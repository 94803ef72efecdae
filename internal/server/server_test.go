package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/javagen"
	"parcfl/internal/obs"
	"parcfl/internal/pag"
)

func genBench(t testing.TB) *frontend.Lowered {
	t.Helper()
	prg, err := javagen.Generate(javagen.Params{
		Name: "servertest", Seed: 23, Containers: 3, CallDepth: 3,
		PayloadClasses: 4, PayloadFieldDepth: 3, AppMethods: 12, OpsPerApp: 12,
		Globals: 3, AppCallFanout: 1, HubFields: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// TestServerAnswersMatchEngine: the service must return exactly what a
// direct engine run returns.
func TestServerAnswersMatchEngine(t *testing.T) {
	lo := genBench(t)
	queries := lo.AppQueryVars
	direct, _ := engine.Run(lo.Graph, queries, engine.Config{
		Mode: engine.DQ, Threads: 2, TypeLevels: lo.TypeLevels,
	})
	byVar := make(map[pag.NodeID]engine.QueryResult, len(direct))
	for _, r := range direct {
		byVar[r.Var] = r
	}

	srv := New(lo.Graph, Config{Threads: 2, TypeLevels: lo.TypeLevels, BatchWindow: -1})
	defer srv.Close()
	for _, q := range queries {
		got, err := srv.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		want := byVar[q]
		if got.Var != want.Var || !reflect.DeepEqual(got.Objects, want.Objects) ||
			got.Contexts != want.Contexts {
			t.Fatalf("var %d: served %+v, direct %+v", q, got, want)
		}
	}
}

// TestCoalesce: concurrent duplicate queries must coalesce onto one engine
// execution, every caller still receiving the (identical) answer.
func TestCoalesce(t *testing.T) {
	lo := genBench(t)
	q := lo.AppQueryVars[0]
	sink := obs.New(obs.Config{})
	srv := New(lo.Graph, Config{
		Threads: 2, TypeLevels: lo.TypeLevels,
		BatchWindow: 20 * time.Millisecond, Obs: sink,
	})
	defer srv.Close()

	const callers = 16
	var wg sync.WaitGroup
	results := make([]engine.QueryResult, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = srv.Query(context.Background(), q)
		}()
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i].Objects, results[0].Objects) {
			t.Fatalf("caller %d got a different answer", i)
		}
	}

	st := srv.Stats()
	if st.Requests != callers {
		t.Fatalf("requests %d, want %d", st.Requests, callers)
	}
	if st.Queries != 1 {
		t.Fatalf("engine solved %d distinct queries, want 1 (coalescing failed)", st.Queries)
	}
	if st.Coalesced != callers-1 {
		t.Fatalf("coalesced %d, want %d", st.Coalesced, callers-1)
	}
	if got := sink.Counter(obs.CtrServerCoalesced); got != callers-1 {
		t.Fatalf("obs coalesced counter %d, want %d", got, callers-1)
	}
}

// TestDeadlineTimeout: a request whose context expires before its batch is
// answered must return promptly with the context error — a clean timeout,
// not a dropped goroutine — and the server must keep serving afterwards.
func TestDeadlineTimeout(t *testing.T) {
	lo := genBench(t)
	q := lo.AppQueryVars[0]
	srv := New(lo.Graph, Config{
		Threads: 2, TypeLevels: lo.TypeLevels,
		// A batch window far beyond the deadline guarantees the expiry
		// fires while the request is still queued.
		BatchWindow: 500 * time.Millisecond,
	})
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := srv.Query(ctx, q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request returned %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 250*time.Millisecond {
		t.Fatalf("timeout took %v — waiter stuck until dispatch", waited)
	}
	if got := srv.Stats().Timeouts; got != 1 {
		t.Fatalf("timeouts %d, want 1", got)
	}

	// The abandoned computation still completes and the server stays
	// healthy: a fresh query succeeds.
	if _, err := srv.Query(context.Background(), q); err != nil {
		t.Fatalf("server unhealthy after timeout: %v", err)
	}
}

// TestDrainOnClose: Close must answer every admitted request before
// returning, and reject admissions made after.
func TestDrainOnClose(t *testing.T) {
	lo := genBench(t)
	queries := lo.AppQueryVars
	srv := New(lo.Graph, Config{
		Threads: 2, TypeLevels: lo.TypeLevels,
		BatchWindow: 50 * time.Millisecond, MaxBatch: 4,
	})

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = srv.Query(context.Background(), queries[i%len(queries)])
		}()
	}
	// Give the goroutines a moment to be admitted, then close while the
	// first batch window is still open.
	time.Sleep(10 * time.Millisecond)
	srv.Close()

	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if answered := st.Requests - st.Rejected; answered > 0 && st.Queries == 0 {
		t.Fatalf("%d admitted requests but 0 queries solved — drain dropped work", answered)
	}
	// Every admitted request must have an answer: recompute from errors.
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("admitted request %d errored: %v", i, err)
		}
	}

	if _, err := srv.Query(context.Background(), queries[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close admission returned %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

// TestAdmissionControl: a full queue rejects with ErrOverloaded instead of
// queueing unboundedly.
func TestAdmissionControl(t *testing.T) {
	lo := genBench(t)
	queries := lo.AppQueryVars
	if len(queries) < 4 {
		t.Skip("bench too small")
	}
	srv := New(lo.Graph, Config{
		Threads: 1, TypeLevels: lo.TypeLevels,
		BatchWindow: time.Second, QueueDepth: 2,
	})
	defer srv.Close()

	// Fill the queue with two distinct vars (waiters in background).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = srv.Query(context.Background(), queries[i])
		}()
	}
	deadline := time.Now().Add(time.Second)
	for srv.Stats().Requests < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background queries never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := srv.Query(context.Background(), queries[2])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow admission returned %v, want ErrOverloaded", err)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Fatalf("rejected %d, want 1", got)
	}
	// A duplicate of a queued var still coalesces even at full depth.
	go func() { _, _ = srv.Query(context.Background(), queries[0]) }()
	wg.Wait()
}

// TestHTTPRoundTrip drives the full wire path: client → handler → server →
// engine and back, including stats, vars and snapshot-to-file.
func TestHTTPRoundTrip(t *testing.T) {
	lo := genBench(t)
	srv := New(lo.Graph, Config{
		Threads: 2, TypeLevels: lo.TypeLevels, QueryVars: lo.AppQueryVars,
		BatchWindow: -1,
	})
	defer srv.Close()

	snapPath := t.TempDir() + "/warm.pag"
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{SnapshotPath: snapPath}))
	defer ts.Close()
	cl := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	vars, err := cl.Vars(ctx)
	if err != nil || len(vars) == 0 {
		t.Fatalf("vars: %v (%d)", err, len(vars))
	}

	res, err := cl.Query(ctx, vars[:3], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Var != vars[i] {
			t.Fatalf("result %d is for %q, want %q", i, r.Var, vars[i])
		}
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 || st.Batches == 0 {
		t.Fatalf("stats after one batch: %+v", st)
	}

	path, err := cl.SaveSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if path != snapPath {
		t.Fatalf("snapshot landed at %q, want %q", path, snapPath)
	}

	if _, err := cl.Query(ctx, []string{"no-such-var"}, time.Second); err == nil {
		t.Fatal("unknown var accepted")
	}
}

// TestOverloadedHTTP: an admission rejection surfaces as 429 with a
// Retry-After hint, and the client reports it as a typed OverloadedError
// that unwraps to ErrOverloaded.
func TestOverloadedHTTP(t *testing.T) {
	lo := genBench(t)
	queries := lo.AppQueryVars
	if len(queries) < 3 {
		t.Skip("bench too small")
	}
	srv := New(lo.Graph, Config{
		Threads: 1, TypeLevels: lo.TypeLevels,
		BatchWindow: time.Second, QueueDepth: 1,
	})
	defer srv.Close()
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{RetryAfter: 3 * time.Second}))
	defer ts.Close()
	cl := NewClient(ts.URL, ts.Client())
	g := srv.Graph()

	// Park one query so the depth-1 queue is full, then hit the API with a
	// different variable.
	go func() { _, _ = srv.Query(context.Background(), queries[0]) }()
	deadline := time.Now().Add(time.Second)
	for srv.Stats().Requests < 1 {
		if time.Now().After(deadline) {
			t.Fatal("background query never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := cl.Query(context.Background(), []string{g.Node(queries[1]).Name}, time.Second)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded daemon returned %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("overloaded daemon returned %T, want *OverloadedError", err)
	}
	if oe.RetryAfter != 3*time.Second {
		t.Fatalf("RetryAfter %v, want 3s (handler hint)", oe.RetryAfter)
	}
}

// TestClientRetriesOverload: WithRetry retries 429s under the policy and
// succeeds when the server recovers; the deadline is respected.
func TestClientRetriesOverload(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			w.Header().Set("Retry-After", "0") // parsed as no hint; policy delay applies
			writeErr(w, http.StatusTooManyRequests, ErrOverloaded)
			return
		}
		writeJSON(w, http.StatusOK, QueryReply{Results: []VarResult{{Var: "v"}}})
	}))
	defer ts.Close()

	cl := NewClient(ts.URL, ts.Client()).WithRetry(RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	})
	res, err := cl.Query(context.Background(), []string{"v"}, time.Second)
	if err != nil {
		t.Fatalf("retrying client failed: %v (after %d attempts)", err, hits.Load())
	}
	if len(res) != 1 || hits.Load() != 3 {
		t.Fatalf("got %d results after %d attempts, want 1 after 3", len(res), hits.Load())
	}

	// Exhausted attempts surface the overload error, not a context error.
	hits.Store(-1000)
	cl2 := cl.WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond})
	if _, err := cl2.Query(context.Background(), []string{"v"}, time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("exhausted retries returned %v, want ErrOverloaded", err)
	}

	// A deadline shorter than the server's Retry-After hint gives up
	// immediately with the overload error instead of sleeping into expiry.
	hits.Store(-1000)
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		writeErr(w, http.StatusTooManyRequests, ErrOverloaded)
	}))
	defer ts2.Close()
	cl3 := NewClient(ts2.URL, ts2.Client()).WithRetry(RetryPolicy{MaxAttempts: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cl3.Query(ctx, []string{"v"}, time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline-bounded retry returned %v, want ErrOverloaded", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("client slept past its deadline before giving up")
	}
}
