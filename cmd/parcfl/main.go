// Command parcfl is an interactive query shell over a program: load
// mini-Java or Go source (or a generated benchmark), then issue demand
// queries the way an IDE or debugging client would.
//
//	$ parcfl -src examples/quickstart-src/vector.mj
//	> pts main.s1
//	> flows o@main:2
//	> alias main.s1 main.s2
//	> explain main.s1 o@main:2
//	> stats
//	> help
//
// Variables are named method.local (as printed by `vars`); objects by their
// allocation-site name (as printed in query results).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"parcfl/internal/autopsy"
	"parcfl/internal/frontend"
	"parcfl/internal/gofront"
	"parcfl/internal/javagen"
	"parcfl/internal/mjlang"
	"parcfl/internal/obs"
	"parcfl/internal/repl"
)

func main() {
	srcFile := flag.String("src", "", "mini-Java source file (.mj)")
	goFile := flag.String("go", "", "Go source file")
	bench := flag.String("bench", "", "benchmark preset name")
	scale := flag.Float64("scale", 0.005, "generation scale for -bench")
	budget := flag.Int("budget", 75000, "per-query step budget")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof, /debug/obs, /debug/timeseries and /metrics on this address (e.g. localhost:6060)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file of the session on exit (load in ui.perfetto.dev or chrome://tracing)")
	sample := flag.Duration("sample", 0, "flight-recorder sampling interval, e.g. 50ms (0 = off; toggle later with the `record` command)")
	heatOut := flag.String("heat-out", "", "write the session's PAG heat profile (budget attribution) as JSON on exit")
	autopsyOut := flag.String("autopsy-out", "", "write autopsy reports for the session's aborted queries as JSON on exit")
	flag.Parse()

	var prg *frontend.Program
	var err error
	switch {
	case *srcFile != "":
		var data []byte
		data, err = os.ReadFile(*srcFile)
		if err == nil {
			prg, err = mjlang.Parse(string(data))
		}
	case *goFile != "":
		var data []byte
		data, err = os.ReadFile(*goFile)
		if err == nil {
			prg, err = gofront.Parse(string(data))
		}
	case *bench != "":
		var pr javagen.Preset
		pr, err = javagen.PresetByName(*bench)
		if err == nil {
			prg, err = javagen.Generate(pr.Params(*scale))
		}
	default:
		err = fmt.Errorf("need -src, -go or -bench")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "parcfl:", err)
		os.Exit(1)
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parcfl:", err)
		os.Exit(1)
	}

	sh := repl.New(lo, *budget, os.Stdout)
	var sink *obs.Sink
	var rec *obs.Recorder
	var srv *http.Server
	if *debugAddr != "" || *traceOut != "" || *sample > 0 {
		cfg := obs.Config{Workers: 1, TraceCap: 1 << 16}
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
			srv, addr, err = obs.ServeDebug(*debugAddr, sink)
			if err != nil {
				fmt.Fprintln(os.Stderr, "parcfl:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/\n", addr)
		}
		sh.SetObs(sink)
	}
	// cleanup quiesces observability exactly once — at normal session end
	// or on SIGINT/SIGTERM: stop the sampler (final point), write the
	// pending trace (the repl's `record` command may have attached a
	// recorder after startup, so re-read it from the sink), and gracefully
	// shut down the debug server rather than leaking its goroutine.
	var cleanupOnce sync.Once
	cleanup := func() {
		cleanupOnce.Do(func() {
			rec.Stop()
			sh.Obs().FlightRecorder().Stop()
			if *traceOut != "" {
				if err := obs.WriteTraceFile(*traceOut, sh.Obs()); err != nil {
					fmt.Fprintln(os.Stderr, "parcfl:", err)
				} else {
					fmt.Fprintf(os.Stderr, "trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", *traceOut)
				}
			}
			if *heatOut != "" {
				if err := writeJSON(*heatOut, sh.Heat().Heat()); err != nil {
					fmt.Fprintln(os.Stderr, "parcfl:", err)
				} else {
					fmt.Fprintf(os.Stderr, "heat profile written to %s\n", *heatOut)
				}
			}
			if *autopsyOut != "" {
				reports, dropped := sh.Heat().Autopsies()
				payload := struct {
					Schema  string            `json:"schema"`
					Budget  int               `json:"budget"`
					Dropped int               `json:"dropped,omitempty"`
					Reports []*autopsy.Report `json:"reports"`
				}{Schema: "parcfl-autopsy-batch/v1", Budget: *budget, Dropped: dropped, Reports: reports}
				if err := writeJSON(*autopsyOut, payload); err != nil {
					fmt.Fprintln(os.Stderr, "parcfl:", err)
				} else {
					fmt.Fprintf(os.Stderr, "%d autopsy report(s) written to %s\n", len(reports), *autopsyOut)
				}
			}
			if err := obs.ShutdownDebug(srv, 2*time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "parcfl: debug shutdown:", err)
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

	sh.Banner()
	sh.Run(os.Stdin)
	cleanup()
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
