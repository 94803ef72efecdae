// Command pointsto runs batches of points-to queries over a benchmark —
// either a generated preset or a serialised PAG — in any of the paper's
// four execution strategies, and prints per-run statistics plus (optionally)
// the largest points-to sets found.
//
// Usage:
//
//	pointsto -bench _202_jess -mode dq -threads 16
//	pointsto -pag tomcat.pag.json -mode seq -top 5
//	pointsto -src program.mj -mode dq
//	pointsto -bench h2 -mode d -budget 20000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"parcfl/internal/autopsy"
	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/javagen"
	"parcfl/internal/mjlang"
	"parcfl/internal/obs"
	"parcfl/internal/pag"
)

func main() {
	bench := flag.String("bench", "", "benchmark preset name (e.g. _202_jess, tomcat)")
	pagFile := flag.String("pag", "", "serialised PAG file (from benchgen); queries all locals")
	srcFile := flag.String("src", "", "mini-Java source file (.mj); queries all application locals")
	scale := flag.Float64("scale", 0.01, "generation scale for -bench")
	mode := flag.String("mode", "dq", "execution strategy: seq | naive | d | dq")
	threads := flag.Int("threads", 16, "worker count")
	budget := flag.Int("budget", 75000, "per-query step budget (0 = unbounded)")
	top := flag.Int("top", 0, "print the N queries with the largest points-to sets")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof, /debug/obs, /debug/timeseries and /metrics on this address (e.g. localhost:6060)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file of the run (load in ui.perfetto.dev or chrome://tracing)")
	sample := flag.Duration("sample", 0, "flight-recorder sampling interval, e.g. 50ms (0 = off; series go to /debug/timeseries, /metrics and -trace-out counter tracks)")
	heatOut := flag.String("heat-out", "", "write the run's PAG heat profile (budget attribution) as JSON to this file")
	autopsyOut := flag.String("autopsy-out", "", "write autopsy reports for aborted/early-terminated queries as JSON to this file")
	heatDot := flag.String("heat-dot", "", "write the PAG with heat shading as Graphviz DOT to this file")
	flag.Parse()

	// Observability is set up before the graph is built so the flight
	// recorder's history covers generation and lowering, not just the run.
	var sink *obs.Sink
	var rec *obs.Recorder
	var srv *http.Server
	if *debugAddr != "" || *traceOut != "" || *sample > 0 {
		cfg := obs.Config{Workers: *threads, TraceCap: 1 << 16}
		if *traceOut != "" {
			cfg.SpanCap = 1 << 16
		}
		sink = obs.New(cfg)
		if *sample > 0 {
			rec = obs.NewRecorder(sink, obs.RecorderConfig{Interval: *sample})
			sink.AttachRecorder(rec)
			rec.Start()
		}
		if *debugAddr != "" {
			var addr net.Addr
			var err error
			srv, addr, err = obs.ServeDebug(*debugAddr, sink)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/\n", addr)
		}
	}
	// cleanup quiesces observability exactly once — on the normal exit path
	// below or on SIGINT/SIGTERM — stopping the sampler (which takes a
	// final point), flushing the trace file, and gracefully shutting down
	// the debug server instead of leaking its goroutine.
	var cleanupOnce sync.Once
	cleanup := func() {
		cleanupOnce.Do(func() {
			rec.Stop()
			if *traceOut != "" {
				if err := obs.WriteTraceFile(*traceOut, sink); err != nil {
					fmt.Fprintln(os.Stderr, "pointsto:", err)
				} else {
					fmt.Fprintf(os.Stderr, "trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
				}
			}
			if err := obs.ShutdownDebug(srv, 2*time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "pointsto: debug shutdown:", err)
			}
		})
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		cleanup()
		os.Exit(1)
	}()

	var g *pag.Graph
	var queries []pag.NodeID
	var levels []int
	switch {
	case *bench != "":
		pr, err := javagen.PresetByName(*bench)
		if err != nil {
			fail(err)
		}
		prg, err := javagen.Generate(pr.Params(*scale))
		if err != nil {
			fail(err)
		}
		lo, err := frontend.Lower(prg)
		if err != nil {
			fail(err)
		}
		g, queries, levels = lo.Graph, lo.AppQueryVars, lo.TypeLevels
	case *pagFile != "":
		f, err := os.Open(*pagFile)
		if err != nil {
			fail(err)
		}
		g, err = pag.ReadJSON(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		for _, v := range g.Variables() {
			if g.Node(v).Kind == pag.KindLocal {
				queries = append(queries, v)
			}
		}
	case *srcFile != "":
		data, err := os.ReadFile(*srcFile)
		if err != nil {
			fail(err)
		}
		prg, err := mjlang.Parse(string(data))
		if err != nil {
			fail(fmt.Errorf("%s:%w", *srcFile, err))
		}
		lo, err := frontend.Lower(prg)
		if err != nil {
			fail(err)
		}
		g, queries, levels = lo.Graph, lo.AppQueryVars, lo.TypeLevels
	default:
		fail(fmt.Errorf("need -bench, -pag or -src"))
	}

	var m engine.Mode
	switch strings.ToLower(*mode) {
	case "seq":
		m = engine.Seq
	case "naive":
		m = engine.Naive
	case "d":
		m = engine.D
	case "dq":
		m = engine.DQ
	default:
		fail(fmt.Errorf("unknown mode %q (want seq|naive|d|dq)", *mode))
	}

	// The heat collector exists only when a heat/autopsy output was asked
	// for: profiling every query otherwise costs allocations for nothing.
	var col *autopsy.Collector
	if *heatOut != "" || *autopsyOut != "" || *heatDot != "" {
		col = autopsy.NewCollector(g, *budget)
		sink.AttachHeat(col)
	}

	res, st := engine.Run(g, queries, engine.Config{
		Mode: m, Threads: *threads, Budget: *budget, TypeLevels: levels, Obs: sink,
		Heat: col,
	})
	if *heatOut != "" {
		if err := writeJSON(*heatOut, col.Heat()); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "heat profile written to %s\n", *heatOut)
	}
	if *autopsyOut != "" {
		reports, dropped := col.Autopsies()
		payload := struct {
			Schema  string            `json:"schema"`
			Budget  int               `json:"budget"`
			Dropped int               `json:"dropped,omitempty"`
			Reports []*autopsy.Report `json:"reports"`
		}{Schema: "parcfl-autopsy-batch/v1", Budget: *budget, Dropped: dropped, Reports: reports}
		if err := writeJSON(*autopsyOut, payload); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "%d autopsy report(s) written to %s\n", len(reports), *autopsyOut)
	}
	if *heatDot != "" {
		f, err := os.Create(*heatDot)
		if err != nil {
			fail(err)
		}
		err = g.WriteDOTOpts(f, col.DOTOptions(nil))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "heat overlay written to %s\n", *heatDot)
	}
	cleanup()

	fmt.Printf("strategy:            %s x%d\n", st.Mode, st.Threads)
	fmt.Printf("graph:               %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("queries:             %d (completed %d, aborted %d, early-terminated %d)\n",
		st.Queries, st.Completed, st.Aborted, st.EarlyTerminations)
	fmt.Printf("wall time:           %v\n", st.Wall)
	fmt.Printf("steps:               %d total, %d walked, %d saved by jmp shortcuts (R_S=%.2f)\n",
		st.TotalSteps, st.StepsWalked(), st.StepsSaved, st.RS())
	if m == engine.D || m == engine.DQ {
		fmt.Printf("jmp edges:           %d finished, %d unfinished (suppressed: %d/%d)\n",
			st.Share.FinishedAdded, st.Share.UnfinishedAdded,
			st.Share.FinishedSuppressed, st.Share.UnfinishedSuppressed)
	}
	if m == engine.DQ {
		fmt.Printf("schedule:            %d groups, avg size %.1f\n", st.NumGroups, st.AvgGroupSize)
	}

	if *top > 0 {
		sort.Slice(res, func(i, j int) bool { return len(res[i].Objects) > len(res[j].Objects) })
		n := *top
		if n > len(res) {
			n = len(res)
		}
		fmt.Printf("\nlargest points-to sets:\n")
		for _, r := range res[:n] {
			status := ""
			if r.Aborted {
				status = " [aborted]"
			}
			fmt.Printf("  %-40s |pts|=%d steps=%d%s\n", g.Node(r.Var).Name, len(r.Objects), r.Steps, status)
		}
	}
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pointsto:", err)
	os.Exit(1)
}
