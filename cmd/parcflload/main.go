// Command parcflload soaks a running parcfld daemon with open-loop load.
//
//	$ parcflload -addr localhost:7070 -rate 200 -duration 10s
//	$ parcflload -addr localhost:7070 -rate 500 -duration 30s -json report.json
//
// Arrivals are Poisson spaced at the target rate regardless of how the
// daemon is keeping up — the open-loop shape that exposes queue growth,
// overload shedding and tail inflation, unlike a closed-loop replay whose
// clients slow down with the server. Each request queries one uniformly
// chosen variable (the daemon's query census by default, or the names given
// as arguments) under its own request ID and a freshly minted W3C
// traceparent (one trace per logical request, shared across overload
// retries), and the phase timings the daemon returns are aggregated into a
// machine-readable parcfl-soak/v1 report. Slow request IDs from the report
// resolve live against the daemon's tail-sampled trace store
// (parcflctl traces get <rid>).
//
// The process exits nonzero if any request failed with a hard error
// (overload shedding and deadline misses are outcomes, not failures — they
// are reported and left to the caller to gate on).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parcfl/internal/diag"
	"parcfl/internal/experiments"
	"parcfl/internal/server"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "parcflload:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "localhost:7070", "parcfld address (host:port or full URL)")
	rate := flag.Float64("rate", 200, "target arrival rate in requests/second (Poisson spaced)")
	duration := flag.Duration("duration", 10*time.Second, "how long arrivals keep coming")
	inflight := flag.Int("inflight", 64, "max outstanding requests; arrivals beyond it are shed client-side")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request deadline")
	seed := flag.Int64("seed", 1, "seed for the arrival process and variable choice")
	retry := flag.Bool("retry", true, "retry each overload rejection once, honouring Retry-After")
	jsonPath := flag.String("json", "", "write the soak report as JSON to this file (\"-\" for stdout)")
	maxVars := flag.Int("max-vars", 0, "use at most N census variables (0 = all)")
	bundleOnFail := flag.String("bundle-on-fail", "", "when any request hard-fails, deadlines, sheds or overloads, trigger a diagnostic bundle on the daemon and save it into this directory")
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cl := server.NewClient(base, nil)

	vars := flag.Args()
	if len(vars) == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		fetched, err := cl.Vars(ctx)
		cancel()
		if err != nil {
			fail(fmt.Errorf("fetching query census: %w", err))
		}
		vars = fetched
	}
	if *maxVars > 0 && *maxVars < len(vars) {
		vars = vars[:*maxVars]
	}
	if len(vars) == 0 {
		fail(fmt.Errorf("daemon exposes no query variables and none were given"))
	}

	fmt.Fprintf(os.Stderr, "parcflload: soaking %s at %.0f req/s for %s over %d variables\n",
		base, *rate, *duration, len(vars))

	rep := experiments.RunSoak(experiments.SoakOptions{
		Rate: *rate, Duration: *duration, MaxInflight: *inflight,
		Seed: *seed, Timeout: *timeout, Retry: *retry, RIDPrefix: "load",
	}, len(vars), func(ctx context.Context, idx int, rid string) (server.Timings, error) {
		reply, err := cl.QueryRequest(ctx, rid, []string{vars[idx]}, *timeout)
		if err != nil {
			return server.Timings{}, err
		}
		if tm := reply.Results[0].Timings; tm != nil {
			return *tm, nil
		}
		return server.Timings{}, nil
	})

	fmt.Printf("sent       %d (%d shed client-side at inflight cap %d)\n", rep.Sent, rep.Shed, *inflight)
	fmt.Printf("outcomes   %d ok, %d overloaded (%.1f%%), %d deadline, %d error, %d retried\n",
		rep.Succeeded, rep.Overloaded, 100*rep.OverloadRate, rep.Deadlined, rep.Errored, rep.Retried)
	fmt.Printf("throughput %.1f req/s achieved of %.1f targeted\n", rep.QPS, rep.TargetQPS)
	fmt.Printf("latency    mean %s  p50 %s  p99 %s  p99.9 %s\n",
		time.Duration(rep.MeanNS), time.Duration(rep.P50NS),
		time.Duration(rep.P99NS), time.Duration(rep.P999NS))
	ph := rep.Phases
	fmt.Printf("phases     admit %.1f%%  queue %.1f%%  solve %.1f%%  fanout %.1f%%\n",
		100*ph.AdmitShare, 100*ph.QueueShare, 100*ph.SolveShare, 100*ph.FanoutShare)
	for i, sr := range rep.Slowest {
		fmt.Printf("slow[%d]    rid=%s total=%s (admit %s, queue %s, solve %s, fanout %s, marshal %s)\n",
			i, sr.RID, time.Duration(sr.LatencyNS),
			time.Duration(sr.Timings.AdmitNS), time.Duration(sr.Timings.QueueWaitNS),
			time.Duration(sr.Timings.SolveNS), time.Duration(sr.Timings.FanoutNS),
			time.Duration(sr.Timings.MarshalNS))
	}

	if *bundleOnFail != "" && rep.Errored+rep.Deadlined+rep.Overloaded+rep.Shed > 0 {
		if path, err := fetchBundle(base, *bundleOnFail); err != nil {
			fmt.Fprintln(os.Stderr, "parcflload: bundle-on-fail:", err)
		} else {
			fmt.Printf("bundle     anomalies detected; daemon diagnostic bundle saved to %s\n", path)
		}
	}

	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
		if *jsonPath != "-" {
			fmt.Printf("report     written to %s (%s)\n", *jsonPath, rep.Schema)
		}
	}

	if rep.Errored > 0 {
		fail(fmt.Errorf("%d requests failed with hard errors", rep.Errored))
	}
}

// fetchBundle asks the daemon for a manual diagnostic bundle (falling back
// to its most recent existing bundle when the manual trigger is in
// cooldown — a watchdog rule probably captured one already) and saves the
// tar.gz into dir. Returns the saved path.
func fetchBundle(base, dir string) (string, error) {
	httpc := &http.Client{Timeout: 30 * time.Second}

	var id string
	resp, err := httpc.Get(base + "/debug/bundle?trigger=1&reason=parcflload+anomalies")
	if err != nil {
		return "", err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var info diag.BundleInfo
		if err := json.Unmarshal(body, &info); err != nil {
			return "", err
		}
		id = info.ID
	case http.StatusTooManyRequests:
		// Cooldown: list and take the newest bundle instead.
		resp, err = httpc.Get(base + "/debug/bundle")
		if err != nil {
			return "", err
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		var list struct {
			Bundles []diag.BundleInfo `json:"bundles"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			return "", err
		}
		if len(list.Bundles) == 0 {
			return "", fmt.Errorf("manual trigger in cooldown and no bundles on the daemon")
		}
		id = list.Bundles[len(list.Bundles)-1].ID
	default:
		return "", fmt.Errorf("trigger: %s: %s", resp.Status, body)
	}

	resp, err = httpc.Get(base + "/debug/bundle/" + id)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fetch %s: %s", id, resp.Status)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("bundle-%s.tar.gz", id[:12]))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}
