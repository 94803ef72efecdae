// Command parcfld is the resident pointer-analysis daemon: load a program
// (or a warm snapshot of one), then answer points-to queries over HTTP for
// as long as the process lives, letting the jmp-edge store and result cache
// compound across requests.
//
//	$ parcfld -bench avrora -snapshot warm.pag -addr localhost:7070
//	$ parcflq -addr localhost:7070 main.s1
//
// On SIGINT/SIGTERM the daemon stops admission, answers every request it
// had accepted, saves a final snapshot (when -snapshot is set) and exits.
// Restarting against the same -snapshot warm-starts: the accumulated jump
// edges make the same queries cheaper than the first run paid.
//
// The obs debug mux (/metrics, /debug/pprof, /debug/obs, ...) is mounted on
// the service address itself, so one port serves queries and scrapes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"parcfl/internal/diag"
	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/gofront"
	"parcfl/internal/javagen"
	"parcfl/internal/mjlang"
	"parcfl/internal/obs"
	"parcfl/internal/server"
	"parcfl/internal/snapshot"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "parcfld:", err)
	os.Exit(1)
}

func parseMode(s string) (engine.Mode, error) {
	switch strings.ToLower(s) {
	case "naive":
		return engine.Naive, nil
	case "d":
		return engine.D, nil
	case "dq":
		return engine.DQ, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want naive|d|dq)", s)
	}
}

func main() {
	addr := flag.String("addr", "localhost:7070", "serve the /v1 query API (and /metrics, /debug/*) on this address")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using -addr localhost:0)")
	srcFile := flag.String("src", "", "mini-Java source file (.mj)")
	goFile := flag.String("go", "", "Go source file")
	bench := flag.String("bench", "", "benchmark preset name")
	scale := flag.Float64("scale", 0.005, "generation scale for -bench")
	snapPath := flag.String("snapshot", "", "snapshot path: warm-start from it when it exists, save to it on shutdown and every -autosave")
	autosave := flag.Duration("autosave", 0, "autosave interval for -snapshot (0 = only on shutdown)")
	mode := flag.String("mode", "dq", "engine mode (naive|d|dq)")
	threads := flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	budget := flag.Int("budget", 75000, "per-query step budget (0 = unbounded)")
	contextK := flag.Int("context-k", 0, "k-limit for call strings (0 = unlimited)")
	cache := flag.Bool("cache", true, "memoise whole result sets across queries (ptcache)")
	queue := flag.Int("queue", 0, "admission queue depth in distinct variables (0 = 1024)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long to wait for concurrent queries to coalesce into one batch")
	batchMax := flag.Int("batch-max", 0, "max distinct variables per engine batch (0 = 256)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event (Perfetto) file of request/batch/solver spans on shutdown")
	spanCap := flag.Int("span-cap", 1<<16, "max spans per track for -trace-out")
	slowLog := flag.Duration("slow-log", 0, "log queries slower than this with their phase breakdown (0 = off)")
	sloAvail := flag.Float64("slo-availability", 0.999, "availability objective for /debug/slo and parcfl_slo_* gauges")
	sloLatObj := flag.Float64("slo-latency-objective", 0.99, "fraction of successes that must meet -slo-latency-target")
	sloLatTarget := flag.Duration("slo-latency-target", 50*time.Millisecond, "latency SLI threshold")
	sample := flag.Duration("sample", 0, "flight-recorder sampling interval (0 = off; auto 250ms when -bundle-dir is set)")
	bundleDir := flag.String("bundle-dir", "", "enable the diagnostic-bundle watchdog, writing bundles into this directory (serves /debug/bundle)")
	bundleOnBurn := flag.Float64("bundle-on-burn", 0, "capture a bundle when the SLO burn rate reaches this multiple of sustainable (0 = rule off)")
	bundleQueueHigh := flag.Int64("bundle-queue-high", 0, "capture a bundle when the admission queue depth reaches this high-water mark (0 = rule off)")
	bundleP99 := flag.Duration("bundle-p99", 0, "capture a bundle when the per-interval p99 latency exceeds this target (0 = rule off)")
	bundleCooldown := flag.Duration("bundle-cooldown", 30*time.Second, "minimum gap between bundles from the same trigger rule")
	bundleRetain := flag.Int("bundle-retain", 8, "max bundles kept on disk; older ones are deleted")
	bundleCPUProfile := flag.Duration("bundle-cpu-profile", 250*time.Millisecond, "CPU-profile sampling window per bundle (negative = no cpu.pprof)")
	bundleAnomalyWindow := flag.Duration("bundle-anomaly-window", 5*time.Second, "retain every request trace for this long after a watchdog rule fires (negative = off)")
	traceStore := flag.Int("trace-store", 512, "retain up to this many tail-sampled request traces, queryable at /debug/traces (0 = off)")
	traceSample := flag.Float64("trace-sample", 0.01, "probability a healthy fast request is retained in the trace store as a baseline")
	traceSlowQ := flag.Float64("trace-slow-quantile", 0.99, "live latency quantile above which a request trace is always retained")
	flag.Parse()

	m, err := parseMode(*mode)
	if err != nil {
		fail(err)
	}

	sink := obs.New(obs.Config{Workers: max(*threads, 1), TraceCap: 1 << 14})
	// A bundle without spans or timeseries is half blind, so -bundle-dir
	// implies span tracing (the buffers are rings: memory stays bounded and
	// the retained window is the most recent) and a default sampling rate.
	if *traceOut != "" || *bundleDir != "" {
		sink.EnableSpans(max(*threads, 1), *spanCap)
	}
	if *bundleDir != "" && *sample == 0 {
		*sample = 250 * time.Millisecond
	}
	var rec *obs.Recorder
	if *sample > 0 {
		rec = obs.NewRecorder(sink, obs.RecorderConfig{Interval: *sample})
		sink.AttachRecorder(rec)
		rec.Start()
	}
	// Exemplar storage is on unconditionally: it is one pointer per bucket
	// and the hot path stays alloc-free. Emission is negotiated per scrape —
	// only clients accepting application/openmetrics-text see exemplars on
	// the latency buckets; the default v0.0.4 body stays exemplar-free (and
	// therefore parseable by every classic Prometheus scraper).
	sink.EnableExemplars()
	// The trace store keeps the interesting tail of completed request
	// traces (failures, above-p99 latencies, anomaly windows, a sampled
	// baseline) live and queryable at /debug/traces. Bounded ring: memory
	// stays within -trace-store entries forever.
	if *traceStore > 0 {
		sink.AttachTraceStore(obs.NewTraceStore(sink, obs.TraceStoreConfig{
			Capacity:     *traceStore,
			SampleRate:   *traceSample,
			SlowQuantile: *traceSlowQ,
		}))
	}
	sink.AttachSLO(obs.NewSLO(obs.SLOConfig{
		AvailabilityObjective: *sloAvail,
		LatencyObjective:      *sloLatObj,
		LatencyTargetNS:       sloLatTarget.Nanoseconds(),
	}))
	cfg := server.Config{
		Mode: m, Threads: *threads, Budget: *budget, ContextK: *contextK,
		ResultCache: *cache, BatchWindow: *batchWindow, MaxBatch: *batchMax,
		QueueDepth: *queue, Obs: sink,
	}

	// Warm start beats cold load: an existing snapshot carries the graph
	// plus every jump edge and cached result earlier runs paid for.
	var srv *server.Server
	if *snapPath != "" {
		if snap, err := snapshot.Load(*snapPath); err == nil {
			srv = server.NewFromSnapshot(snap, cfg)
			fmt.Printf("parcfld: warm start from %s (%d nodes, store epoch %d, saved %s)\n",
				*snapPath, snap.Graph.NumNodes(), storeEpoch(snap),
				time.Unix(0, snap.Meta.CreatedUnixNano).Format(time.RFC3339))
		} else if !errors.Is(err, os.ErrNotExist) {
			fail(err)
		}
	}
	if srv == nil {
		lo := load(*srcFile, *goFile, *bench, *scale)
		cfg.TypeLevels = lo.TypeLevels
		cfg.QueryVars = lo.AppQueryVars
		srv = server.New(lo.Graph, cfg)
		fmt.Printf("parcfld: cold start (%d nodes, %d query vars)\n",
			lo.Graph.NumNodes(), len(lo.AppQueryVars))
	}

	// The fallback mux: the standard obs surface (/metrics, /debug/*,
	// /debug/traces) plus — when enabled — the diagnostic-bundle endpoints,
	// registered on the same DebugMux so the generated "/" index always
	// lists every mounted route.
	debugMux := obs.NewDebugMux(sink)
	fallback := http.Handler(debugMux)
	var watchdog *diag.Watchdog
	if *bundleDir != "" {
		watchdog, err = diag.New(diag.Config{
			Sink:           sink,
			Dir:            *bundleDir,
			Cooldown:       *bundleCooldown,
			MaxBundles:     *bundleRetain,
			CPUProfile:     *bundleCPUProfile,
			BurnThreshold:  *bundleOnBurn,
			QueueHighWater: *bundleQueueHigh,
			P99TargetNS:    bundleP99.Nanoseconds(),
			AnomalyWindow:  *bundleAnomalyWindow,
			Sources: map[string]diag.Source{
				"server-stats.json": func() ([]byte, error) {
					return json.MarshalIndent(srv.Stats(), "", "  ")
				},
				"config.json": func() ([]byte, error) {
					return json.MarshalIndent(map[string]any{
						"mode": *mode, "threads": *threads, "budget": *budget,
						"queue": *queue, "batch_window": batchWindow.String(),
						"batch_max": *batchMax, "timeout": timeout.String(),
						"slo_availability": *sloAvail, "slo_latency_objective": *sloLatObj,
						"slo_latency_target": sloLatTarget.String(),
						"bundle_on_burn":     *bundleOnBurn, "bundle_queue_high": *bundleQueueHigh,
						"bundle_p99": bundleP99.String(),
					}, "", "  ")
				},
			},
		})
		if err != nil {
			fail(err)
		}
		watchdog.Start()
		fmt.Printf("parcfld: bundle watchdog on %s (burn>=%g queue>=%d p99>%s, cooldown %s, retain %d)\n",
			*bundleDir, *bundleOnBurn, *bundleQueueHigh, *bundleP99, *bundleCooldown, *bundleRetain)
		debugMux.Handle("/debug/bundle", "diagnostic bundles (list/fetch/trigger)", diag.Handler(watchdog))
		debugMux.Handle("/debug/bundle/", "", diag.Handler(watchdog))
	}
	handler := server.NewHandler(srv, server.HandlerConfig{
		SnapshotPath:   *snapPath,
		DefaultTimeout: *timeout,
		SlowLog:        *slowLog,
		Fallback:       fallback,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("parcfld: serving on http://%s\n", ln.Addr())
	if *addrFile != "" {
		// Atomic so a script polling the path can never read a partial write.
		if err := writeFileAtomic(*addrFile, []byte(ln.Addr().String())); err != nil {
			fail(err)
		}
	}
	httpSrv := &http.Server{Handler: handler}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}()

	stopAutosave := make(chan struct{})
	if *snapPath != "" && *autosave > 0 {
		go func() {
			t := time.NewTicker(*autosave)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := srv.SaveSnapshot(*snapPath, "autosave"); err != nil {
						fmt.Fprintln(os.Stderr, "parcfld: autosave:", err)
					}
				case <-stopAutosave:
					return
				}
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	<-sigs
	fmt.Println("parcfld: draining...")
	close(stopAutosave)
	// Quiesce the watchdog before draining: a capture racing shutdown would
	// profile the teardown, not the anomaly. The sampler stops after the
	// drain so its final point covers the served traffic.
	watchdog.Stop()

	// Stop accepting HTTP first, then drain the solver: every admitted
	// request gets its answer before the final snapshot is cut.
	ctx, cancel := context.WithTimeout(context.Background(), 2**timeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Most likely a handler still running at the deadline: a hung
		// listener during SIGTERM drain should be visible, not silent.
		fmt.Fprintln(os.Stderr, "parcfld: http drain:", err)
	}
	srv.Close()
	rec.Stop()
	// The server is drained and the dispatcher has exited: every span is
	// final, so the trace flush below never races a producer.
	if *traceOut != "" {
		if err := obs.WriteTraceFile(*traceOut, sink); err != nil {
			fmt.Fprintln(os.Stderr, "parcfld: trace:", err)
		} else {
			fmt.Printf("parcfld: trace written to %s\n", *traceOut)
		}
	}
	if *snapPath != "" {
		if err := srv.SaveSnapshot(*snapPath, "shutdown"); err != nil {
			fmt.Fprintln(os.Stderr, "parcfld: final snapshot:", err)
			os.Exit(1)
		}
		fmt.Printf("parcfld: snapshot saved to %s\n", *snapPath)
	}
	st := srv.Stats()
	fmt.Printf("parcfld: served %d requests (%d coalesced, %d batches, %d jumps taken)\n",
		st.Requests, st.Coalesced, st.Batches, st.JumpsTaken)
}

func load(srcFile, goFile, bench string, scale float64) *frontend.Lowered {
	var prg *frontend.Program
	var err error
	switch {
	case srcFile != "":
		var data []byte
		data, err = os.ReadFile(srcFile)
		if err == nil {
			prg, err = mjlang.Parse(string(data))
		}
	case goFile != "":
		var data []byte
		data, err = os.ReadFile(goFile)
		if err == nil {
			prg, err = gofront.Parse(string(data))
		}
	case bench != "":
		var pr javagen.Preset
		pr, err = javagen.PresetByName(bench)
		if err == nil {
			prg, err = javagen.Generate(pr.Params(scale))
		}
	default:
		err = fmt.Errorf("need -src, -go, -bench or an existing -snapshot")
	}
	if err != nil {
		fail(err)
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		fail(err)
	}
	return lo
}

func storeEpoch(s *snapshot.Snapshot) int64 {
	if s.Store == nil {
		return 0
	}
	return s.Store.Epoch()
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so a script polling -addr-file never observes a partial write.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
