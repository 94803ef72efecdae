// Command perfbench is parcfl's benchmark. One invocation runs one seeded
// workload and prints its metrics, the last line of standard output being
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call into a layer and reports the
// per-layer metrics instead, writing a Chrome trace and a per-layer table
// under -out. The three workloads:
//
//   - census: the paper's batch client. Back-to-back cold RunBatch calls
//     (SharingScheduling) over every application local of generated
//     tomcat-shaped programs, through the root parcfl library API.
//   - serve-hot: IDE-hover traffic against a real cmd/parcfld booted from a
//     warm snapshot; Zipf-distributed variables, mostly result-cache hits.
//   - serve-cold: the same daemon booted from a snapshot with an empty jmp
//     store and result cache; every request is a distinct variable.
//
// Every answer is checked against an independent oracle (see oracle.go).
// Build and run it through run.py, which also builds parcfld:
//
//	python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric. moves says which end-to-end metric
// (on which workload) a per-layer metric should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the system sees. Each is defined on
// every workload (see README.md for the per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"p50_ms", "ms", ""},
	{"answers_per_s", "1/s", ""},
	{"peak_rss_mb", "MiB", ""},
}

// perLayer are the traced run's metrics, one group per parcfl module. A
// layer that does not run on a workload reports 0 there.
var perLayer = []metricDef{
	{"frontend.lower_ms", "ms", "setup_s on census"},
	{"snapshot.read_ms", "ms", "setup_s on serve-*"},
	{"snapshot.mb", "MiB", "setup_s, peak_rss_mb on serve-*"},
	{"http.overhead_ms_p50", "ms", "p50_ms on serve-hot"},
	{"http.marshal_us_p50", "us", "p50_ms on serve-hot"},
	{"server.admit_us_p50", "us", "p50_ms on serve-*"},
	{"server.queue_wait_ms_p50", "ms", "p50_ms on serve-*"},
	{"server.queue_wait_ms_p99", "ms", "latency.p95_ms on serve-*"},
	{"server.solve_ms_p50", "ms", "p50_ms on serve-*"},
	{"server.solve_ms_p99", "ms", "latency.p95_ms on serve-*"},
	{"server.fanout_us_p50", "us", "p50_ms on serve-*"},
	{"server.vars_per_batch", "count", "answers_per_s on serve-*"},
	{"server.coalesced_frac", "ratio", "answers_per_s on serve-*"},
	{"server.engine_busy_frac", "ratio", "answers_per_s on serve-*"},
	{"server.rejected", "count", "failed on serve-*"},
	{"server.timeouts", "count", "failed on serve-*"},
	{"sched.schedule_ms_p50", "ms", "p50_ms on serve-hot, serve-cold; census unmoved"},
	{"sched.schedule_ms_p99", "ms", "latency.p95_ms on serve-*"},
	{"sched.groups", "count", "p50_ms on census"},
	{"sched.avg_group_size", "count", "p50_ms on census"},
	{"engine.solve_ex_sched_ms_p50", "ms", "latency.p95_ms on serve-cold; p50_ms on census"},
	{"engine.worker_imbalance", "ratio", "p50_ms on census"},
	{"cfl.steps_walked_per_query", "count", "p50_ms on census, serve-cold"},
	{"cfl.walked_steps_per_s", "1/s", "p50_ms on census, serve-cold"},
	{"cfl.wasted_step_frac", "ratio", "p50_ms on census; latency.p95_ms on serve-*"},
	{"cfl.early_terminations", "count", "p50_ms on census"},
	{"cfl.aborted_frac", "ratio", "guards every speed-up (lower is better)"},
	{"share.hit_rate", "ratio", "p50_ms on census, serve-cold"},
	{"share.rs", "ratio", "p50_ms on census, serve-cold"},
	{"share.jumps", "count", "peak_rss_mb on all"},
	{"ptcache.hit_rate", "ratio", "p50_ms on serve-hot; ~0 on serve-cold"},
	{"ptcache.entries", "count", "peak_rss_mb on serve-*"},
	{"latency.p95_ms", "ms", "tail of p50_ms on serve-*"},
	{"loadgen.lag_p99_ms", "ms", "validity only"},
	{"loadgen.backlog_max", "count", "validity only"},
	{"ledger.p50_gap_ms", "ms", "p50_ms minus the median request's layers (serve-*)"},
	{"trace.overhead_ms", "ms", "traced minus untraced p50_ms"},
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	parcfld  string // path to the cmd/parcfld binary (serve-*)
	outDir   string // work files, traces and the run record
	revision string // source revision of the checkout, for the record
}

// graphCensus is the provenance of one generated program.
type graphCensus struct {
	JavagenSeed int64 `json:"javagen_seed"`
	Nodes       int   `json:"nodes"`
	Edges       int   `json:"edges"`
	Locals      int   `json:"locals"`
}

// outcome is what a workload run measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	// invalid, when set, says why the run is not a measurement (e.g. the
	// load generator fell behind its own bound).
	invalid  string
	graphs   []graphCensus
	tr       *tracer
	sections []string // extra sections for the per-layer table
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated programs, draw order and arrival times")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.parcfld, "parcfld", "", "path to the parcfld binary (serve workloads)")
	flag.StringVar(&cfg.outDir, "out", "perfbench-out", "directory for work files, traces and run records")
	flag.StringVar(&cfg.revision, "revision", "unknown", "source revision recorded with the result")
	flag.Parse()
	cfg.trace = *traceFlag == 1

	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s) and -seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	var out *outcome
	var err error
	if w.serve {
		out, err = runServe(cfg, w)
	} else {
		out, err = runCensus(cfg, w)
	}
	if err != nil {
		fatal(err)
	}
	os.Exit(report(cfg, w, out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints the metrics, writes the run record (and, when traced, the
// trace and the per-layer table) and returns the exit code.
func report(cfg runConfig, w workload, out *outcome) int {
	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layer
	}
	res := result{Correct: out.failed == 0 && out.invalid == "", Attempted: out.attempted,
		Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			fatal(fmt.Errorf("workload %s did not report %s", w.name, m.name))
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("%-32s %14.4f %s\n", m.name, v, m.unit)
	}
	if out.invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench: INVALID RUN: %s\n", out.invalid)
	}
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d answers failed\n", out.failed, out.attempted)
	}

	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace]))
	record := map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"revision": cfg.revision, "graphs": out.graphs, "invalid": out.invalid,
		"finished": time.Now().UTC().Format(time.RFC3339), "result": res,
		"end_to_end": out.e2e, "per_layer": out.layer,
	}
	if data, err := json.MarshalIndent(record, "", "  "); err == nil {
		if err := os.WriteFile(stem+".json", data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: run record:", err)
		}
	}
	if cfg.trace {
		if out.tr != nil {
			if err := out.tr.writeChrome(stem+".trace.json", "perfbench "+w.name); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
			}
		}
		table := layerTable(w, out.layer, out.tr, out.sections)
		if err := os.WriteFile(stem+".layers.txt", []byte(table), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: layer table:", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace and layer table written to %s.{trace.json,layers.txt}\n", stem)
	}
	for _, g := range out.graphs {
		fmt.Fprintf(os.Stderr, "perfbench: graph javagen-seed=%d nodes=%d edges=%d locals=%d\n", g.JavagenSeed, g.Nodes, g.Edges, g.Locals)
	}
	fmt.Fprintf(os.Stderr, "perfbench: nproc=%d GOMAXPROCS=%d %s revision=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.revision)

	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
