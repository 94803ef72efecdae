// Command benchdiff is the bench regression gate: it compares two labelled
// reports of a BENCH_runs.json history (see cmd/experiments -json) against
// percentage thresholds, prints a delta table, and exits non-zero when the
// head report regressed — wall time up, the sharing counters (steps_saved,
// jumps_taken, early_terminations) down, serving throughput (qps) down, or
// the soak p99.9 tail up (direction-aware like the wall gate, but with a
// deliberately looser threshold — the extreme tail is noisy).
// Soak rows also carry informational phase-share drift cells (basis points
// of the request's end-to-end time) that localise a regression to admit,
// queue-wait, solve or fan-out without gating on it.
//
// Usage:
//
//	benchdiff -base ci-baseline -head ci
//	benchdiff -file BENCH_runs.json -base baseline -head pr-7 -wall-pct 10
//	benchdiff -base ci-baseline -head ci -wall-pct 0   # counters only
//
// Exit status: 0 when no gate fails, 1 on regression, 2 on usage or I/O
// errors. Wall time is host-bound — when base and head come from different
// machines, disable or loosen the wall gate (-wall-pct 0 / a large value)
// and let the deterministic counters carry the comparison.
//
// Cells present only in head (a benchmark or mode added since the baseline
// was recorded) are listed as "new in head (ungated)"
// and never fail the gate; they start being gated once a baseline containing
// them is recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"parcfl/internal/experiments"
)

func main() {
	def := experiments.DefaultDiffOptions()
	file := flag.String("file", "BENCH_runs.json", "bench history file")
	base := flag.String("base", "", "label of the baseline report")
	head := flag.String("head", "", "label of the candidate report")
	wallPct := flag.Float64("wall-pct", def.WallPct,
		"fail when wall_ns grows more than this percent (0 disables the wall gate)")
	countPct := flag.Float64("count-pct", def.CountPct,
		"fail when steps_saved/jumps_taken/early_terminations drop more than this percent (0 disables)")
	minCount := flag.Int64("min-count", def.MinCount,
		"ignore counter drops whose baseline value is below this floor")
	minWall := flag.Duration("min-wall", time.Duration(def.MinWallNS),
		"ignore wall regressions whose baseline ran shorter than this")
	qpsPct := flag.Float64("qps-pct", def.QPSPct,
		"fail when a serving cell's qps drops more than this percent (0 disables the qps gate)")
	minQPS := flag.Float64("min-qps", def.MinQPS,
		"ignore qps drops whose baseline rate is below this floor")
	tailPct := flag.Float64("tail-pct", def.TailPct,
		"fail when a soak cell's p999_ns grows more than this percent (0 disables the tail gate)")
	minTail := flag.Duration("min-tail", time.Duration(def.MinTailNS),
		"ignore tail regressions whose baseline p99.9 is below this floor")
	jsonOut := flag.String("json", "", "also write the diff report as JSON to this file (written before the exit code is decided, so CI can upload it on failure)")
	flag.Parse()

	if *base == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -base and -head labels")
		flag.Usage()
		os.Exit(2)
	}
	hist, err := experiments.LoadBenchHistory(*file)
	if err != nil {
		fail(err)
	}
	baseRep, err := experiments.ReportByLabel(hist, *base)
	if err != nil {
		fail(err)
	}
	headRep, err := experiments.ReportByLabel(hist, *head)
	if err != nil {
		fail(err)
	}
	d := experiments.DiffReports(baseRep, headRep, experiments.DiffOptions{
		WallPct:   *wallPct,
		CountPct:  *countPct,
		MinCount:  *minCount,
		MinWallNS: int64(*minWall),
		QPSPct:    *qpsPct,
		MinQPS:    *minQPS,
		TailPct:   *tailPct,
		MinTailNS: int64(*minTail),
	})
	d.WriteTable(os.Stdout)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, d); err != nil {
			fail(err)
		}
	}
	if d.Regressions > 0 {
		os.Exit(1)
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
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
