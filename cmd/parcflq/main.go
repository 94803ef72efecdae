// Command parcflq is the thin client for a running parcfld daemon.
//
//	$ parcflq -addr localhost:7070 main.s1 main.s2   # query (batched)
//	$ parcflq -addr localhost:7070 -list 10          # show queryable vars
//	$ parcflq -addr localhost:7070 -stats            # service stats
//	$ parcflq -addr localhost:7070 -save             # snapshot to the daemon's -snapshot path
//
// With -json, query results print as the daemon's wire JSON (one reply
// object), which is what scripts should parse.
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parcfl/internal/server"
)

// mintRequestID makes a short client-side request ID, sent as the
// X-Parcfl-Request-Id header so the daemon's logs, trace lanes and reply
// all carry it. 8 random bytes is plenty for correlating a CLI session.
func mintRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("q-%d", time.Now().UnixNano())
	}
	return "q-" + hex.EncodeToString(b[:])
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "parcflq:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "localhost:7070", "parcfld address (host:port or full URL)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	stats := flag.Bool("stats", false, "print service stats and exit")
	list := flag.Int("list", 0, "list up to N queryable variables and exit (0 = off, negative = all)")
	save := flag.Bool("save", false, "make the daemon save a snapshot to its configured -snapshot path")
	asJSON := flag.Bool("json", false, "print raw JSON instead of the human format")
	retries := flag.Int("retries", 0, "retry overloaded (429) responses up to N extra times with jittered backoff")
	verbose := flag.Bool("v", false, "print the request ID, trace ID and per-phase timing breakdown with each answer")
	rid := flag.String("request-id", "", "send this request ID instead of minting one")
	traceparent := flag.String("traceparent", "", "forward this W3C traceparent header value instead of minting one (joins an existing distributed trace)")
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cl := server.NewClient(base, nil)
	if *retries > 0 {
		cl = cl.WithRetry(server.RetryPolicy{MaxAttempts: 1 + *retries})
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout+5*time.Second)
	defer cancel()

	switch {
	case *stats:
		st, err := cl.Stats(ctx)
		if err != nil {
			fail(err)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			_ = enc.Encode(st)
			return
		}
		fmt.Printf("requests   %d (coalesced %d, rejected %d, timeouts %d)\n",
			st.Requests, st.Coalesced, st.Rejected, st.Timeouts)
		fmt.Printf("batches    %d (queries solved %d, aborted %d)\n",
			st.Batches, st.Queries, st.Aborted)
		fmt.Printf("steps      %d total, %d saved by jmp shortcuts, %d jumps taken\n",
			st.TotalSteps, st.StepsSaved, st.JumpsTaken)
		fmt.Printf("store      epoch %d, %d finished + %d unfinished jmp entries\n",
			st.StoreEpoch, st.Share.FinishedAdded, st.Share.UnfinishedAdded)
		fmt.Printf("cache      %d hits, %d misses\n", st.Cache.Hits, st.Cache.Misses)
		fmt.Printf("engine     %.3fs busy over %.1fs uptime\n",
			float64(st.EngineNS)/1e9, float64(st.UptimeNS)/1e9)
		return

	case *list != 0:
		vars, err := cl.Vars(ctx)
		if err != nil {
			fail(err)
		}
		n := len(vars)
		if *list > 0 && *list < n {
			n = *list
		}
		for _, v := range vars[:n] {
			fmt.Println(v)
		}
		if n < len(vars) {
			fmt.Printf("... and %d more\n", len(vars)-n)
		}
		return

	case *save:
		path, err := cl.SaveSnapshot(ctx)
		if err != nil {
			fail(err)
		}
		fmt.Println("snapshot saved to", path)
		return
	}

	vars := flag.Args()
	if len(vars) == 0 {
		fail(fmt.Errorf("nothing to do: give variables to query, or -stats/-list/-save"))
	}
	id := *rid
	if id == "" {
		id = mintRequestID()
	}
	var reply server.QueryReply
	var err error
	if *traceparent != "" {
		reply, err = cl.QueryTraced(ctx, id, *traceparent, vars, *timeout)
	} else {
		// QueryRequest mints a fresh traceparent, so every CLI query is a
		// complete one-request trace resolvable at /debug/traces.
		reply, err = cl.QueryRequest(ctx, id, vars, *timeout)
	}
	if err != nil {
		fail(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reply)
		return
	}
	for _, r := range reply.Results {
		status := ""
		if r.Aborted {
			status = " (aborted: out of budget)"
		}
		fmt.Printf("%s -> {%s} (%d contexts, %d steps)%s\n",
			r.Var, strings.Join(r.Objects, ", "), r.Contexts, r.Steps, status)
		if *verbose && r.Timings != nil {
			t := r.Timings
			co := ""
			if t.Coalesced {
				co = fmt.Sprintf(" coalesced-onto=%d", t.Primary)
			}
			fmt.Printf("  seq=%d batch=%d%s total=%s = admit %s + queue %s + solve %s + fanout %s (+ marshal %s)\n",
				t.Seq, t.Batch, co, time.Duration(t.TotalNS),
				time.Duration(t.AdmitNS), time.Duration(t.QueueWaitNS),
				time.Duration(t.SolveNS), time.Duration(t.FanoutNS),
				time.Duration(t.MarshalNS))
		}
	}
	if *verbose {
		fmt.Printf("request-id %s\n", reply.RequestID)
		if reply.TraceID != "" {
			fmt.Printf("trace-id   %s\n", reply.TraceID)
		}
	}
}
