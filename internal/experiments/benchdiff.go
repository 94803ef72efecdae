package experiments

import (
	"fmt"
	"io"
	"time"
)

// Bench regression gate: compare two labelled reports of a BENCH_runs.json
// history cell by cell — a cell is one (benchmark, mode) pair — against
// percentage thresholds, so the bench trajectory becomes an enforced perf
// contract instead of an archive. Wall time gates "did it get slower";
// steps_saved / jumps_taken / early_terminations gate "did the sharing
// scheme stop pulling its weight" (the Fig. 7 signals), failing only on
// drops. cmd/benchdiff wraps this into a CLI that exits non-zero on
// regression, which CI runs against the committed baseline label.

// DiffOptions are the regression thresholds.
type DiffOptions struct {
	// WallPct fails a cell whose wall_ns grew by more than this percent
	// over the baseline. <= 0 disables the wall gate (useful when base and
	// head ran on different hosts).
	WallPct float64
	// CountPct fails a cell where a sharing counter (steps_saved,
	// jumps_taken, early_terminations) dropped by more than this percent.
	// <= 0 disables the counter gates.
	CountPct float64
	// MinCount is the noise floor for counter gates: baselines below it
	// are too small for a relative drop to mean anything (a handful of
	// racy jmp inserts can halve them run to run) and are skipped.
	MinCount int64
	// MinWallNS is the wall gate's noise floor: cells whose baseline ran
	// shorter than this are skipped.
	MinWallNS int64
	// QPSPct fails a serving cell (Serve-*) whose qps dropped by more than
	// this percent below the baseline. qps is higher-is-better — the
	// opposite gating direction from wall_ns, same as the sharing counters.
	// <= 0 disables the qps gate.
	QPSPct float64
	// MinQPS is the qps gate's noise floor: baselines below this rate are
	// too small for a relative drop to mean anything.
	MinQPS float64
	// TailPct fails a soak cell whose p999_ns grew by more than this
	// percent. The tail is far noisier than the median, so its threshold is
	// deliberately looser than WallPct; <= 0 disables the tail gate.
	TailPct float64
	// MinTailNS is the tail gate's noise floor: baselines whose p99.9 is
	// below it are dominated by scheduler jitter and skipped.
	MinTailNS int64
}

// DefaultDiffOptions returns the thresholds benchdiff ships with: 20% wall
// growth, 50% counter drop, 50% qps drop, 150% p99.9 growth; counters under
// 50, walls under 1ms, rates under 20 qps and tails under 1ms ignored.
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{
		WallPct:   20,
		CountPct:  50,
		MinCount:  50,
		MinWallNS: int64(time.Millisecond),
		QPSPct:    50,
		MinQPS:    20,
		TailPct:   150,
		MinTailNS: int64(time.Millisecond),
	}
}

// DiffCell is one metric comparison within one (benchmark, mode) cell.
type DiffCell struct {
	Bench  string `json:"bench"`
	Mode   string `json:"mode"`
	Metric string `json:"metric"`
	Base   int64  `json:"base"`
	Head   int64  `json:"head"`
	// DeltaPct is (head-base)/base in percent (0 when base is 0).
	DeltaPct float64 `json:"delta_pct"`
	// Regression marks the cell as failing its threshold.
	Regression bool `json:"regression"`
	// Skipped marks comparisons below the noise floors or with the gate
	// disabled; Note says why (also set on incomparable cells).
	Skipped bool   `json:"skipped"`
	Note    string `json:"note,omitempty"`
}

// DiffSchema identifies the Diff JSON layout (benchdiff -json); bump on
// breaking changes.
const DiffSchema = "parcfl-benchdiff/v1"

// Diff is the outcome of comparing two reports.
type Diff struct {
	Schema    string     `json:"schema"`
	BaseLabel string     `json:"base_label"`
	HeadLabel string     `json:"head_label"`
	Cells     []DiffCell `json:"cells"`
	// Regressions counts failing cells; the CLI exit code is non-zero iff
	// this is.
	Regressions int `json:"regressions"`
	// MissingHead lists bench/mode cells present in base but absent from
	// head (reported, not failed: the suite may legitimately shrink).
	MissingHead []string `json:"missing_head,omitempty"`
	// NewHead lists bench/mode cells present in head but absent from base:
	// freshly added benchmarks or modes (e.g. a row landing before the
	// baseline is re-recorded). They have nothing to gate against, so
	// they are reported as new and ungated rather than treated as an error.
	NewHead []string `json:"new_head,omitempty"`
	// Incomparable lists cells whose query census differs between the two
	// reports — their metrics are shown but not gated, since a changed
	// workload invalidates the comparison.
	Incomparable []string `json:"incomparable,omitempty"`
}

// ReportByLabel finds the history entry with the given label.
func ReportByLabel(h *BenchHistory, label string) (*BenchReport, error) {
	for i := range h.Reports {
		if h.Reports[i].Label == label {
			return &h.Reports[i], nil
		}
	}
	var have []string
	for i := range h.Reports {
		if h.Reports[i].Label != "" {
			have = append(have, h.Reports[i].Label)
		}
	}
	return nil, fmt.Errorf("no report labelled %q in history (labels: %v)", label, have)
}

// cellKey identifies one grid cell across reports.
type cellKey struct{ bench, mode string }

// DiffReports compares head against base cell by cell. Cells are matched by
// (benchmark, mode); head-only cells are reported as new (ungated),
// base-only cells as missing.
func DiffReports(base, head *BenchReport, opt DiffOptions) *Diff {
	d := &Diff{Schema: DiffSchema, BaseLabel: base.Label, HeadLabel: head.Label}
	headIdx := make(map[cellKey]*BenchRun, len(head.Runs))
	baseIdx := make(map[cellKey]bool, len(base.Runs))
	for i := range head.Runs {
		r := &head.Runs[i]
		headIdx[cellKey{r.Bench, r.Mode}] = r
	}
	for i := range base.Runs {
		b := &base.Runs[i]
		baseIdx[cellKey{b.Bench, b.Mode}] = true
	}
	for i := range head.Runs {
		r := &head.Runs[i]
		if !baseIdx[cellKey{r.Bench, r.Mode}] {
			d.NewHead = append(d.NewHead, r.Bench+"/"+r.Mode)
		}
	}
	for i := range base.Runs {
		b := &base.Runs[i]
		h, ok := headIdx[cellKey{b.Bench, b.Mode}]
		if !ok {
			d.MissingHead = append(d.MissingHead, b.Bench+"/"+b.Mode)
			continue
		}
		comparable := b.Queries == h.Queries
		if !comparable {
			d.Incomparable = append(d.Incomparable,
				fmt.Sprintf("%s/%s (queries %d -> %d)", b.Bench, b.Mode, b.Queries, h.Queries))
		}
		d.add(diffWall(b, h, opt, comparable))
		d.add(diffCount(b, h, "steps_saved", b.StepsSaved, h.StepsSaved, opt, comparable))
		d.add(diffCount(b, h, "jumps_taken", b.JumpsTaken, h.JumpsTaken, opt, comparable))
		d.add(diffCount(b, h, "early_terminations",
			int64(b.EarlyTerminations), int64(h.EarlyTerminations), opt, comparable))
		// Serving cells additionally carry a throughput gate (direction
		// opposite to wall) and, for soak rows, informational phase-share
		// drift so a localised shift (queueing vs solving) is visible in the
		// diff before it moves the aggregate numbers.
		if b.QPS > 0 && h.QPS > 0 {
			d.add(diffQPS(b, h, opt, comparable))
		}
		if b.P999NS > 0 && h.P999NS > 0 {
			d.add(diffTail(b, h, opt, comparable))
		}
		if b.TargetQPS > 0 && h.TargetQPS > 0 {
			d.add(diffShare(b, h, "admit_share_bp", b.AdmitShare, h.AdmitShare, comparable))
			d.add(diffShare(b, h, "queue_share_bp", b.QueueShare, h.QueueShare, comparable))
			d.add(diffShare(b, h, "solve_share_bp", b.SolveShare, h.SolveShare, comparable))
			d.add(diffShare(b, h, "fanout_share_bp", b.FanoutShare, h.FanoutShare, comparable))
		}
	}
	return d
}

func (d *Diff) add(c DiffCell) {
	if c.Regression {
		d.Regressions++
	}
	d.Cells = append(d.Cells, c)
}

func deltaPct(base, head int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(head-base) / float64(base)
}

// diffWall gates wall_ns: growth beyond WallPct is a regression.
func diffWall(b, h *BenchRun, opt DiffOptions, comparable bool) DiffCell {
	c := DiffCell{
		Bench: b.Bench, Mode: b.Mode, Metric: "wall_ns",
		Base: b.WallNS, Head: h.WallNS, DeltaPct: deltaPct(b.WallNS, h.WallNS),
	}
	switch {
	case !comparable:
		c.Skipped, c.Note = true, "query census changed"
	case opt.WallPct <= 0:
		c.Skipped, c.Note = true, "wall gate disabled"
	case b.WallNS < opt.MinWallNS:
		c.Skipped, c.Note = true, "below noise floor"
	default:
		c.Regression = c.DeltaPct > opt.WallPct
	}
	return c
}

// diffCount gates a higher-is-better sharing counter: a drop beyond
// CountPct is a regression.
func diffCount(b, h *BenchRun, metric string, base, head int64, opt DiffOptions, comparable bool) DiffCell {
	c := DiffCell{
		Bench: b.Bench, Mode: b.Mode, Metric: metric,
		Base: base, Head: head, DeltaPct: deltaPct(base, head),
	}
	switch {
	case !comparable:
		c.Skipped, c.Note = true, "query census changed"
	case opt.CountPct <= 0:
		c.Skipped, c.Note = true, "counter gate disabled"
	case base < opt.MinCount:
		c.Skipped, c.Note = true, "below noise floor"
	default:
		c.Regression = c.DeltaPct < -opt.CountPct
	}
	return c
}

// diffQPS gates serving throughput, reported in milli-qps so the int64 cell
// keeps three decimals. qps is higher-is-better: a drop beyond QPSPct is
// the regression, growth never fails.
func diffQPS(b, h *BenchRun, opt DiffOptions, comparable bool) DiffCell {
	c := DiffCell{
		Bench: b.Bench, Mode: b.Mode, Metric: "qps_milli",
		Base: int64(b.QPS * 1000), Head: int64(h.QPS * 1000),
	}
	c.DeltaPct = deltaPct(c.Base, c.Head)
	switch {
	case !comparable:
		c.Skipped, c.Note = true, "query census changed"
	case opt.QPSPct <= 0:
		c.Skipped, c.Note = true, "qps gate disabled"
	case b.QPS < opt.MinQPS:
		c.Skipped, c.Note = true, "below noise floor"
	default:
		c.Regression = c.DeltaPct < -opt.QPSPct
	}
	return c
}

// diffTail gates the soak p99.9: growth beyond TailPct is a regression,
// shrinkage never fails (same direction as wall_ns, looser threshold — the
// extreme tail is the metric the trace store retains requests by, and the
// first to move when queueing goes wrong, but also the noisiest).
func diffTail(b, h *BenchRun, opt DiffOptions, comparable bool) DiffCell {
	c := DiffCell{
		Bench: b.Bench, Mode: b.Mode, Metric: "p999_ns",
		Base: b.P999NS, Head: h.P999NS, DeltaPct: deltaPct(b.P999NS, h.P999NS),
	}
	switch {
	case !comparable:
		c.Skipped, c.Note = true, "query census changed"
	case opt.TailPct <= 0:
		c.Skipped, c.Note = true, "tail gate disabled"
	case b.P999NS < opt.MinTailNS:
		c.Skipped, c.Note = true, "below noise floor"
	default:
		c.Regression = c.DeltaPct > opt.TailPct
	}
	return c
}

// diffShare reports phase-share drift in basis points (1/100 of a percent of
// the request's end-to-end time). Shares are a diagnostic — where the time
// went, not how much — so these cells are always informational: never gated,
// present in the table and the -json diff to localise a wall/qps regression.
func diffShare(b, h *BenchRun, metric string, base, head float64, comparable bool) DiffCell {
	c := DiffCell{
		Bench: b.Bench, Mode: b.Mode, Metric: metric,
		Base: int64(base*10_000 + 0.5), Head: int64(head*10_000 + 0.5),
		Skipped: true, Note: "informational",
	}
	c.DeltaPct = deltaPct(c.Base, c.Head)
	if !comparable {
		c.Note = "query census changed"
	}
	return c
}

// WriteTable prints the delta table, one line per comparison, regressions
// marked, followed by a verdict line.
func (d *Diff) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "benchdiff: %q -> %q\n", d.BaseLabel, d.HeadLabel)
	fmt.Fprintf(w, "%-14s %-16s %-20s %14s %14s %9s  %s\n",
		"Benchmark", "Mode", "Metric", "base", "head", "delta", "verdict")
	for _, c := range d.Cells {
		verdict := "ok"
		switch {
		case c.Regression:
			verdict = "REGRESSION"
		case c.Skipped:
			verdict = "skipped: " + c.Note
		}
		fmt.Fprintf(w, "%-14s %-16s %-20s %14d %14d %+8.1f%%  %s\n",
			c.Bench, c.Mode, c.Metric, c.Base, c.Head, c.DeltaPct, verdict)
	}
	for _, m := range d.MissingHead {
		fmt.Fprintf(w, "missing in head: %s\n", m)
	}
	for _, m := range d.NewHead {
		fmt.Fprintf(w, "new in head (ungated): %s\n", m)
	}
	for _, m := range d.Incomparable {
		fmt.Fprintf(w, "incomparable (not gated): %s\n", m)
	}
	if d.Regressions > 0 {
		fmt.Fprintf(w, "FAIL: %d regression(s)\n", d.Regressions)
	} else {
		fmt.Fprintf(w, "PASS: no regressions\n")
	}
}
