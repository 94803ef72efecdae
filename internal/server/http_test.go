package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"parcfl/internal/obs"
)

// TestSlowLogCarriesRequestID: with SlowLog set below any real latency,
// every query logs one line carrying the request ID and the full
// telescoping phase breakdown — the fields an operator joins against a
// bundle's trace after the pager fires.
func TestSlowLogCarriesRequestID(t *testing.T) {
	srv, _, lo := tracedServer(t, Config{BatchWindow: -1})
	defer srv.Close()
	name := srv.Graph().Node(lo.AppQueryVars[0]).Name

	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{SlowLog: time.Nanosecond}))
	defer ts.Close()

	var logBuf bytes.Buffer
	prev := log.Writer()
	prevFlags := log.Flags()
	log.SetOutput(&logBuf)
	log.SetFlags(0)
	defer func() {
		log.SetOutput(prev)
		log.SetFlags(prevFlags)
	}()

	cl := NewClient(ts.URL, nil)
	if _, err := cl.QueryRequest(context.Background(), "slow-rid-7", []string{name}, time.Second); err != nil {
		t.Fatal(err)
	}

	line := logBuf.String()
	if line == "" {
		t.Fatal("SlowLog produced no log line")
	}
	// One line, with the rid, the variable, and every phase of the
	// telescoping breakdown (admit+queue+solve+fanout partitions total;
	// marshal is the HTTP layer's own phase on top).
	re := regexp.MustCompile(`slow query rid=slow-rid-7 vars=` + regexp.QuoteMeta(name) +
		` total=\S+ seq=\d+ batch=\d+ admit=\S+ queue=\S+ solve=\S+ fanout=\S+ marshal=\S+`)
	if !re.MatchString(line) {
		t.Fatalf("slow log line missing fields:\n%s", line)
	}
}

// TestExemplarAtReplyTime: the HTTP handler exemplars the latency bucket
// with the request ID at reply time, using the same TotalNS the server
// observed — so the exemplar names a bucket that actually counted this
// request, and its seq resolves to the request's trace lane.
func TestExemplarAtReplyTime(t *testing.T) {
	srv, sink, lo := tracedServer(t, Config{BatchWindow: -1})
	defer srv.Close()
	sink.EnableExemplars()
	name := srv.Graph().Node(lo.AppQueryVars[0]).Name

	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{}))
	defer ts.Close()

	cl := NewClient(ts.URL, nil)
	reply, err := cl.QueryRequest(context.Background(), "exemplar-rid", []string{name}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tm := reply.Results[0].Timings
	if tm == nil {
		t.Fatal("no timings on the wire")
	}

	exs := sink.HistExemplars(obs.HistServerLatencyNS)
	var found *obs.BucketExemplar
	for i := range exs {
		if exs[i].RID == "exemplar-rid" {
			found = &exs[i]
		}
	}
	if found == nil {
		t.Fatalf("no exemplar for the request; have %+v", exs)
	}
	if found.Seq != tm.Seq {
		t.Fatalf("exemplar seq %d != request seq %d", found.Seq, tm.Seq)
	}
	if found.Value != tm.TotalNS {
		t.Fatalf("exemplar value %d != observed total %d", found.Value, tm.TotalNS)
	}
	// The exemplared bucket holds at least one observation: the exemplar
	// points at a count this request actually incremented.
	hs := sink.Hist(obs.HistServerLatencyNS)
	if found.LE != -1 && hs.Buckets[found.Bucket] == 0 {
		t.Fatalf("exemplar in empty bucket %d", found.Bucket)
	}
}

// TestInProcessRIDExemplar: a request ID attached with WithRID travels the
// in-process query path (no HTTP layer) and exemplars the latency bucket at
// reply time — the contract the soak harness relies on so its report's
// slowest-request IDs resolve daemon-side.
func TestInProcessRIDExemplar(t *testing.T) {
	srv, sink, lo := tracedServer(t, Config{BatchWindow: -1})
	defer srv.Close()
	sink.EnableExemplars()

	ctx := WithRID(context.Background(), "soak-42-1")
	if got := RIDFrom(ctx); got != "soak-42-1" {
		t.Fatalf("RIDFrom = %q", got)
	}
	if got := RIDFrom(context.Background()); got != "" {
		t.Fatalf("RIDFrom on a bare context = %q, want empty", got)
	}

	a, err := srv.QueryRequest(ctx, lo.AppQueryVars[0])
	if err != nil {
		t.Fatal(err)
	}
	exs := sink.HistExemplars(obs.HistServerLatencyNS)
	var found *obs.BucketExemplar
	for i := range exs {
		if exs[i].RID == "soak-42-1" {
			found = &exs[i]
		}
	}
	if found == nil {
		t.Fatalf("in-process rid left no exemplar; have %+v", exs)
	}
	if found.Seq != a.Timings.Seq || found.Value != a.Timings.TotalNS {
		t.Fatalf("exemplar %+v does not match answer timings %+v", found, a.Timings)
	}

	// Without WithRID the in-process path stays exemplar-free.
	if _, err := srv.QueryRequest(context.Background(), lo.AppQueryVars[1]); err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.HistExemplars(obs.HistServerLatencyNS) {
		if e.RID != "soak-42-1" {
			t.Fatalf("rid-less request minted exemplar %+v", e)
		}
	}
}

// postQuery sends a raw /v1/query body and decodes the error reply.
func postQuery(t *testing.T, url string, body []byte) (int, errorReply) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorReply
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e
}

// TestQueryBodyTooLarge: a body over the byte cap is refused with 413 and
// the ErrTooLarge message, and the server admits nothing.
func TestQueryBodyTooLarge(t *testing.T) {
	lo := genBench(t)
	srv := New(lo.Graph, Config{Threads: 1, TypeLevels: lo.TypeLevels, BatchWindow: -1})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{}))
	defer ts.Close()

	body, _ := json.Marshal(QuerySpec{Var: strings.Repeat("v", maxQueryBody)})
	status, e := postQuery(t, ts.URL, body)
	if status != http.StatusRequestEntityTooLarge || !strings.HasPrefix(e.Error, ErrTooLarge.Error()) {
		t.Fatalf("oversized body: status %d, error %q; want 413 %q", status, e.Error, ErrTooLarge)
	}
	if n := srv.Stats().Requests; n != 0 {
		t.Fatalf("oversized body admitted %d requests", n)
	}
}

// TestQueryTooManyVars: a request naming more variables than the queue
// depth is refused with 413 before any name is resolved — the names here do
// not exist, so a resolve-first handler would answer 404 instead.
func TestQueryTooManyVars(t *testing.T) {
	lo := genBench(t)
	const depth = 4
	srv := New(lo.Graph, Config{Threads: 1, TypeLevels: lo.TypeLevels, BatchWindow: -1, QueueDepth: depth})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{}))
	defer ts.Close()

	names := make([]string, depth+1)
	for i := range names {
		names[i] = "no-such-var-" + strconv.Itoa(i)
	}
	body, _ := json.Marshal(QuerySpec{Vars: names})
	status, e := postQuery(t, ts.URL, body)
	if status != http.StatusRequestEntityTooLarge || !strings.HasPrefix(e.Error, ErrTooLarge.Error()) {
		t.Fatalf("%d vars at depth %d: status %d, error %q; want 413 %q", len(names), depth, status, e.Error, ErrTooLarge)
	}

	// At the depth itself the request passes the size check and fails on
	// the first unknown name instead.
	body, _ = json.Marshal(QuerySpec{Vars: names[:depth]})
	if status, e := postQuery(t, ts.URL, body); status != http.StatusNotFound {
		t.Fatalf("%d vars at depth %d: status %d (%q), want 404", depth, depth, status, e.Error)
	}
}

// TestSnapshotPathNotClientChosen: /v1/snapshot writes only to the
// daemon's configured path. A body naming another path is refused with 400
// and writes nothing — neither the named file nor the configured one —
// while an empty body or an empty object still saves to the configured
// path.
func TestSnapshotPathNotClientChosen(t *testing.T) {
	lo := genBench(t)
	srv := New(lo.Graph, Config{Threads: 1, TypeLevels: lo.TypeLevels, BatchWindow: -1})
	defer srv.Close()
	dir := t.TempDir()
	configured := filepath.Join(dir, "warm.pag")
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{SnapshotPath: configured}))
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	chosen := filepath.Join(dir, "x")
	body, _ := json.Marshal(map[string]string{"path": chosen})
	if status := post(string(body)); status != http.StatusBadRequest {
		t.Fatalf("body naming a path: status %d, want 400", status)
	}
	for _, p := range []string{chosen, configured} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("refused request wrote %s (stat err %v)", p, err)
		}
	}

	for _, body := range []string{"", "{}"} {
		if status := post(body); status != http.StatusOK {
			t.Fatalf("body %q: status %d, want 200", body, status)
		}
		if _, err := os.Stat(configured); err != nil {
			t.Fatalf("body %q: configured snapshot not written: %v", body, err)
		}
		os.Remove(configured)
	}
}
