package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"parcfl/internal/engine"
)

// BenchSchema identifies the layout of one bench report; bump on breaking
// changes so downstream trajectory tooling can reject files it does not
// understand.
const BenchSchema = "parcfl-bench/v1"

// BenchHistorySchema identifies the BENCH_runs.json root: an append-only
// list of labelled reports, so successive runs accumulate a trajectory
// instead of clobbering each other. Legacy v1 files holding a single bare
// report are read transparently (wrapped as the first history entry).
const BenchHistorySchema = "parcfl-bench-history/v1"

// benchDefaults are the presets the bench experiment runs when none are
// named: the three smallest members of the suite, so the full 3 benchmarks
// x 4 modes grid stays cheap enough for CI.
var benchDefaults = []string{"_200_check", "_201_compress", "_209_db"}

// BenchRun is one (benchmark, mode) cell of the trajectory grid.
type BenchRun struct {
	Bench   string `json:"bench"`
	Mode    string `json:"mode"`
	Threads int    `json:"threads"`

	WallNS int64 `json:"wall_ns"`

	Queries           int `json:"queries"`
	Completed         int `json:"completed"`
	Aborted           int `json:"aborted"`
	EarlyTerminations int `json:"early_terminations"`

	TotalSteps  int64 `json:"total_steps"`
	StepsWalked int64 `json:"steps_walked"`
	StepsSaved  int64 `json:"steps_saved"`
	JumpsTaken  int64 `json:"jumps_taken"`

	// ModeledSpeedup is sequential walked steps over this run's heaviest
	// worker (hardware-independent); WallSpeedup is sequential wall time
	// over this run's wall time (host-bound). Both are 1 for the Seq row.
	ModeledSpeedup float64 `json:"modeled_speedup"`
	WallSpeedup    float64 `json:"wall_speedup"`
	RS             float64 `json:"r_s"`

	// Share counters are zero for Seq/Naive (no jmp store).
	ShareFinished   int64   `json:"share_finished"`
	ShareUnfinished int64   `json:"share_unfinished"`
	ShareLookups    int64   `json:"share_lookups"`
	ShareHits       int64   `json:"share_hits"`
	ShareHitRate    float64 `json:"share_hit_rate"`

	// Cache counters are zero unless the run used the result cache.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Schedule shape (DQ only; zero otherwise).
	NumGroups    int     `json:"num_groups"`
	AvgGroupSize float64 `json:"avg_group_size"`

	// Serving throughput (Serve-* rows only; zero otherwise): request
	// rate and latency percentiles of the census replayed against a
	// resident server (see internal/server).
	QPS   float64 `json:"qps,omitempty"`
	P50NS int64   `json:"p50_ns,omitempty"`
	P99NS int64   `json:"p99_ns,omitempty"`

	// Open-loop soak metrics (Serve-soak row only; zero otherwise): the
	// census soaked at a fixed Poisson arrival rate against a warm server.
	// The share columns attribute the summed request time to the server's
	// lifecycle phases — drift here localises a regression (queueing vs
	// solving vs fan-out) before the aggregate numbers move.
	TargetQPS    float64 `json:"target_qps,omitempty"`
	P999NS       int64   `json:"p999_ns,omitempty"`
	OverloadRate float64 `json:"overload_rate,omitempty"`
	AdmitShare   float64 `json:"admit_share,omitempty"`
	QueueShare   float64 `json:"queue_share,omitempty"`
	SolveShare   float64 `json:"solve_share,omitempty"`
	FanoutShare  float64 `json:"fanout_share,omitempty"`
}

// BenchReport is one labelled grid of bench runs — one entry of the
// BENCH_runs.json history.
type BenchReport struct {
	Schema    string  `json:"schema"`
	Generated string  `json:"generated"` // RFC 3339
	Host      string  `json:"host"`      // GOOS/GOARCH, core count
	Scale     float64 `json:"scale"`
	Budget    int     `json:"budget"`
	Threads   int     `json:"threads"`
	// GoMaxProcs and NumCPU pin down the parallelism the host actually
	// offered: when Threads > NumCPU the workers time-share cores and
	// wall_speedup systematically underestimates parallel scaling (the
	// modeled_speedup column is the hardware-independent number).
	GoMaxProcs int `json:"go_max_procs"`
	NumCPU     int `json:"num_cpu"`

	// Label names the run (e.g. "baseline", "pr-12", "ci-smoke"); a
	// re-run with the same non-empty label replaces the earlier entry in
	// the history instead of appending a duplicate.
	Label string `json:"label,omitempty"`
	// GitRev is the source revision the binary was built from, when known.
	GitRev string `json:"git_rev,omitempty"`

	Runs []BenchRun `json:"runs"`
}

// BenchHistory is the root object of BENCH_runs.json: the accumulated
// reports across runs.
type BenchHistory struct {
	Schema  string        `json:"schema"`
	Reports []BenchReport `json:"reports"`
}

// Add merges rep into the history: an entry with the same non-empty label
// is replaced in place (a re-run supersedes it); otherwise rep is appended.
func (h *BenchHistory) Add(rep BenchReport) {
	if rep.Label != "" {
		for i := range h.Reports {
			if h.Reports[i].Label == rep.Label {
				h.Reports[i] = rep
				return
			}
		}
	}
	h.Reports = append(h.Reports, rep)
}

// LoadBenchHistory reads an existing BENCH_runs.json. A missing file yields
// an empty history; a legacy single-report file (schema parcfl-bench/v1 at
// the root) is wrapped as the history's first entry.
func LoadBenchHistory(path string) (*BenchHistory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &BenchHistory{Schema: BenchHistorySchema}, nil
	}
	if err != nil {
		return nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch probe.Schema {
	case BenchHistorySchema:
		var h BenchHistory
		if err := json.Unmarshal(data, &h); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &h, nil
	case BenchSchema:
		var rep BenchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &BenchHistory{Schema: BenchHistorySchema, Reports: []BenchReport{rep}}, nil
	default:
		return nil, fmt.Errorf("%s: unknown schema %q", path, probe.Schema)
	}
}

// WriteBenchHistory merges rep into the history at path (creating it if
// absent) and writes the result back as indented JSON. It returns the
// resulting history size.
func WriteBenchHistory(path string, rep BenchReport) (int, error) {
	h, err := LoadBenchHistory(path)
	if err != nil {
		return 0, err
	}
	h.Add(rep)
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, err
	}
	return len(h.Reports), nil
}

// benchRunFrom flattens engine stats into one grid cell.
func benchRunFrom(bench string, st engine.Stats, seq engine.Stats) BenchRun {
	r := BenchRun{
		Bench:   bench,
		Mode:    st.Mode.String(),
		Threads: st.Threads,

		WallNS: st.Wall.Nanoseconds(),

		Queries:           st.Queries,
		Completed:         st.Completed,
		Aborted:           st.Aborted,
		EarlyTerminations: st.EarlyTerminations,

		TotalSteps:  st.TotalSteps,
		StepsWalked: st.StepsWalked(),
		StepsSaved:  st.StepsSaved,
		JumpsTaken:  st.JumpsTaken,

		RS: st.RS(),

		ShareFinished:   st.Share.FinishedAdded,
		ShareUnfinished: st.Share.UnfinishedAdded,
		ShareLookups:    st.Share.Lookups,
		ShareHits:       st.Share.LookupHits,
		ShareHitRate:    st.Share.HitRate(),

		CacheHits:    st.Cache.Hits,
		CacheMisses:  st.Cache.Misses,
		CacheHitRate: st.Cache.HitRate(),

		NumGroups:    st.NumGroups,
		AvgGroupSize: st.AvgGroupSize,
	}
	r.ModeledSpeedup = st.ModeledSpeedup(seq.StepsWalked())
	if st.Wall > 0 {
		r.WallSpeedup = float64(seq.Wall) / float64(st.Wall)
	}
	return r
}

// BenchGrid runs every benchmark x mode cell and returns the report. The
// sequential row of each benchmark is the speedup baseline for the other
// three. Exposed separately from Bench so tests can exercise the grid
// without touching the filesystem.
func BenchGrid(opts Options) (*BenchReport, error) {
	opts = opts.withDefaults()
	if len(opts.Benchmarks) == 0 {
		opts.Benchmarks = benchDefaults
	}
	presets, err := opts.presets()
	if err != nil {
		return nil, err
	}

	rep := &BenchReport{
		Schema:     BenchSchema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Host:       fmt.Sprintf("%s/%s %d cores", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Scale:      opts.Scale,
		Budget:     opts.Budget,
		Threads:    opts.Threads,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Label:      opts.Label,
		GitRev:     opts.GitRev,
	}
	for _, pr := range presets {
		b, err := PrepareBench(pr, opts.Scale)
		if err != nil {
			return nil, err
		}
		_, seq := b.runMode(engine.Seq, 1, opts.Budget, 0, 0)
		rep.Runs = append(rep.Runs, benchRunFrom(pr.Name, seq, seq))
		for _, mode := range []engine.Mode{engine.Naive, engine.D, engine.DQ} {
			_, st := b.runMode(mode, opts.Threads, opts.Budget, 0, 0)
			rep.Runs = append(rep.Runs, benchRunFrom(pr.Name, st, seq))
		}
		// One extra DQ run with the result cache on, so the trajectory
		// includes a meaningful cache hit-rate signal.
		_, cached := engine.Run(b.Lowered.Graph, b.Queries, engine.Config{
			Mode: engine.DQ, Threads: opts.Threads, Budget: opts.Budget,
			TypeLevels: b.Lowered.TypeLevels, ResultCache: true,
		})
		cr := benchRunFrom(pr.Name, cached, seq)
		cr.Mode = cached.Mode.String() + "+cache"
		rep.Runs = append(rep.Runs, cr)
		// Serving rows: the census replayed against a resident server,
		// cold and then warm through the snapshot codec, so benchdiff
		// gates daemon throughput and the warm-start win.
		serve, err := ServeRows(b, opts)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, serve...)
	}
	return rep, nil
}

// BenchTrajectory runs the benchmark-trajectory grid, prints a summary
// table, and — when Options.JSONPath is set — writes the full report there
// as indented JSON (the BENCH_runs.json artifact). Registered as the
// "bench" experiment.
func BenchTrajectory(opts Options) error {
	opts = opts.withDefaults()
	rep, err := BenchGrid(opts)
	if err != nil {
		return err
	}
	w := opts.Out
	fmt.Fprintf(w, "Bench trajectory: %d runs (scale=%.4g, B=%d, %d threads)\n",
		len(rep.Runs), rep.Scale, rep.Budget, rep.Threads)
	if rep.Threads > rep.NumCPU {
		fmt.Fprintf(w, "warning: %d threads on %d cores — workers are time-sharing, so wallX underestimates parallel scaling; read the modeled column instead\n",
			rep.Threads, rep.NumCPU)
	}
	fmt.Fprintf(w, "%-14s %-16s %10s %8s %8s %8s %8s %9s %9s\n",
		"Benchmark", "Mode", "wall", "queries", "aborted", "modeled", "wallX", "shareHit", "cacheHit")
	for _, r := range rep.Runs {
		fmt.Fprintf(w, "%-14s %-16s %10s %8d %8d %8.2f %8.2f %8.1f%% %8.1f%%\n",
			r.Bench, r.Mode, time.Duration(r.WallNS).Round(time.Microsecond),
			r.Queries, r.Aborted, r.ModeledSpeedup, r.WallSpeedup,
			100*r.ShareHitRate, 100*r.CacheHitRate)
	}
	if opts.JSONPath != "" {
		n, err := WriteBenchHistory(opts.JSONPath, *rep)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s (%s, %d runs, %d reports in history)\n",
			opts.JSONPath, rep.Schema, len(rep.Runs), n)
	}
	return nil
}
