// Package engine runs batches of points-to queries over a PAG in the four
// configurations the paper evaluates (Section IV-C):
//
//   - Seq      — SEQCFL: one thread, no sharing, no scheduling;
//   - Naive    — PARCFL_naive: t threads fetching queries from a shared
//     work list, no sharing (Section III-A);
//   - D        — PARCFL_D: Naive plus the data-sharing scheme (jmp edges,
//     Section III-B);
//   - DQ       — PARCFL_DQ: D plus the query-scheduling scheme (grouping,
//     CD/DD ordering, Section III-C).
//
// Workers are goroutines, one cfl.Solver each; the jmp-edge store is the
// only shared mutable state. Work is distributed by an atomic cursor over
// the scheduled units — individual queries for Seq/Naive/D, whole groups
// for DQ ("we assign a group of queries rather than a single query to a
// thread at a time to reduce synchronisation overhead", Section III-C1).
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parcfl/internal/autopsy"
	"parcfl/internal/cfl"
	"parcfl/internal/obs"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/sched"
	"parcfl/internal/share"
)

// Mode selects the parallelisation strategy.
type Mode uint8

const (
	// Seq is the sequential baseline SEQCFL.
	Seq Mode = iota
	// Naive is inter-query parallelism with a shared work list only.
	Naive
	// D adds data sharing (jmp edges).
	D
	// DQ adds query scheduling on top of data sharing.
	DQ
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case Seq:
		return "SeqCFL"
	case Naive:
		return "ParCFL-naive"
	case D:
		return "ParCFL-D"
	case DQ:
		return "ParCFL-DQ"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Config configures a Run.
type Config struct {
	Mode Mode
	// Threads is the worker count; 0 means GOMAXPROCS. Seq forces 1.
	Threads int
	// Budget is the per-query step budget B (paper: 75,000). 0 disables.
	Budget int
	// TauF/TauU are the selective-insertion thresholds of Section IV-A.
	// Zero values select the paper defaults (100 / 10,000); negative
	// values disable the thresholds entirely (insert everything), which
	// is the ablation of Fig. 7.
	TauF, TauU int
	// TypeLevels feeds the scheduler's dependence-depth heuristic (only
	// used by DQ). May be nil.
	TypeLevels []int
	// Store lets the caller share a pre-populated jmp store across runs;
	// normally nil, in which case D/DQ create a fresh one.
	Store *share.Store
	// ResultCache additionally shares whole memoised traversal results
	// across queries and workers (the "ad-hoc caching" extension; see
	// internal/ptcache). Works with any mode.
	ResultCache bool
	// Cache lets the caller share a pre-populated result cache across
	// runs, like Store; implies ResultCache. Normally nil, in which case
	// ResultCache creates a fresh one per run.
	Cache *ptcache.Cache
	// ContextK k-limits call strings (0 = unlimited, the paper's setting).
	ContextK int
	// Obs, when non-nil, receives run metrics, trace events and per-worker
	// timelines (see internal/obs). A nil sink costs nothing: every hook is
	// a nil check. Stores and caches created by Run are attached to it;
	// a caller-provided Store keeps whatever sink it already has.
	Obs *obs.Sink
	// Profile turns on per-query budget attribution: every QueryResult
	// carries a Prof breakdown whose summed steps equal Steps exactly
	// (see cfl.Config.Profile). Off, the solver hooks cost one nil check.
	Profile bool
	// Heat, when non-nil, aggregates every query's attribution into a
	// batch PAG heat profile and retains autopsy reports for aborted
	// queries (see internal/autopsy). Implies Profile. A nil collector
	// costs nothing.
	Heat *autopsy.Collector
	// Tag is an opaque caller-supplied batch identifier carried into the
	// run's SpRun span (its third payload), letting trace consumers join
	// an engine batch back to whoever dispatched it — the resident server
	// stamps its batch sequence number here. Zero means untagged.
	Tag int64
}

func (c Config) threads() int {
	if c.Mode == Seq {
		return 1
	}
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) sharing() bool { return c.Mode == D || c.Mode == DQ }

// QueryResult is the outcome of one query in a batch run.
type QueryResult struct {
	Var pag.NodeID
	// Objects is the deduplicated allocation-site projection of the
	// points-to set (partial if Aborted).
	Objects []pag.NodeID
	// Contexts is the size of the full context-sensitive result set.
	Contexts        int
	Aborted         bool
	EarlyTerminated bool
	Steps           int
	JumpsTaken      int
	StepsSaved      int
	// Prof is the budget attribution (nil unless Config.Profile or
	// Config.Heat is set). Its Sum() equals Steps exactly.
	Prof *cfl.Attribution
}

// Stats aggregates a batch run.
type Stats struct {
	Mode    Mode
	Threads int
	Queries int
	// Completed/Aborted/EarlyTerminations partition the batch (ETs are a
	// subset of Aborted).
	Completed         int
	Aborted           int
	EarlyTerminations int
	// TotalSteps is the number of budget steps consumed by all queries
	// (including steps charged for shortcuts). StepsSaved is the portion
	// that was satisfied by jmp shortcuts rather than walked; the
	// difference is the number of steps actually traversed.
	TotalSteps int64
	StepsSaved int64
	JumpsTaken int64
	// Wall is the batch wall-clock time.
	Wall time.Duration
	// Share is the jmp store's counters (zero value when sharing is off).
	Share share.Stats
	// Cache is the result cache's counters (zero value when disabled).
	Cache ptcache.Stats
	// AvgGroupSize and NumGroups describe the schedule (DQ only): Sg of
	// Table I is AvgGroupSize.
	AvgGroupSize float64
	NumGroups    int
	// WalkedPerWorker records, per worker goroutine, the steps actually
	// traversed by the queries it processed. On hosts with fewer cores
	// than workers (the paper used 16 cores), max(WalkedPerWorker) is a
	// hardware-independent model of the parallel critical path; see
	// ModeledSpeedup.
	WalkedPerWorker []int64
}

// MaxWorkerWalked returns the heaviest worker's walked steps — the modeled
// parallel critical path.
func (s *Stats) MaxWorkerWalked() int64 {
	var m int64
	for _, w := range s.WalkedPerWorker {
		if w > m {
			m = w
		}
	}
	return m
}

// ModeledSpeedup returns the work-model speedup of this run relative to a
// baseline's walked steps: baselineWalked / max(WalkedPerWorker). It models
// an idealised machine with one core per worker, which is how speedups are
// reported when the host has fewer physical cores than the paper's testbed
// (a documented substitution); wall-clock speedups are reported alongside.
func (s *Stats) ModeledSpeedup(baselineWalked int64) float64 {
	m := s.MaxWorkerWalked()
	if m == 0 {
		return 0
	}
	return float64(baselineWalked) / float64(m)
}

// StepsWalked returns the steps actually traversed (total minus shortcut).
func (s *Stats) StepsWalked() int64 { return s.TotalSteps - s.StepsSaved }

// RS returns the R_S ratio of Table I: steps saved by jmp edges over steps
// traversed across original edges.
func (s *Stats) RS() float64 {
	w := s.StepsWalked()
	if w == 0 {
		return 0
	}
	return float64(s.StepsSaved) / float64(w)
}

// dedup returns the batch with duplicate variables removed, keeping first
// occurrences in order. The original slice is returned untouched when it has
// no duplicates.
func dedup(queries []pag.NodeID) []pag.NodeID {
	seen := make(map[pag.NodeID]struct{}, len(queries))
	for i, v := range queries {
		if _, dup := seen[v]; dup {
			// First duplicate found: copy the unique prefix and filter
			// the rest.
			out := append([]pag.NodeID(nil), queries[:i]...)
			for _, w := range queries[i:] {
				if _, d := seen[w]; d {
					continue
				}
				seen[w] = struct{}{}
				out = append(out, w)
			}
			return out
		}
		seen[v] = struct{}{}
	}
	return queries
}

// RunMapped is Run plus the query→result dedup mapping: mapping[i] is the
// index into the returned results of the original batch's i-th query.
// Duplicate batch positions map to the one shared result, and DQ's
// scheduler-imposed processing order is resolved here — callers that fan one
// coalesced computation back out to many waiters (the resident server) index
// straight through the mapping instead of re-sorting results by NodeID.
func RunMapped(g *pag.Graph, queries []pag.NodeID, cfg Config) ([]QueryResult, []int, Stats) {
	results, stats := Run(g, queries, cfg)
	byVar := make(map[pag.NodeID]int, len(results))
	for i := range results {
		byVar[results[i].Var] = i
	}
	mapping := make([]int, len(queries))
	for i, q := range queries {
		mapping[i] = byVar[q]
	}
	return results, mapping, stats
}

// Run executes the query batch and returns per-query results in processing
// order together with aggregate statistics. Duplicate query variables are
// answered once: the batch is deduplicated up front (first occurrences kept
// in order) in every mode, so Stats.Queries, step totals and result slices
// are comparable across Seq/Naive/D/DQ regardless of batch duplicates.
func Run(g *pag.Graph, queries []pag.NodeID, cfg Config) ([]QueryResult, Stats) {
	threads := cfg.threads()
	stats := Stats{Mode: cfg.Mode, Threads: threads}
	sink := cfg.Obs
	queries = dedup(queries)

	var store *share.Store
	if cfg.sharing() {
		store = cfg.Store
		if store == nil {
			sc := share.DefaultConfig()
			if cfg.TauF != 0 {
				sc.TauF = max(cfg.TauF, 0)
			}
			if cfg.TauU != 0 {
				sc.TauU = max(cfg.TauU, 0)
			}
			store = share.NewStore(sc)
			store.SetObs(sink)
		}
	}

	cache := cfg.Cache
	if cache == nil && cfg.ResultCache {
		cache = ptcache.New(64)
		cache.SetObs(sink)
	}

	// Build the work units.
	var units [][]pag.NodeID
	if cfg.Mode == DQ {
		plan := sched.ScheduleObs(g, queries, cfg.TypeLevels, sink)
		units = plan.Groups
		stats.AvgGroupSize = plan.AvgGroupSize
		stats.NumGroups = len(plan.Groups)
	} else {
		units = make([][]pag.NodeID, len(queries))
		for i, q := range queries {
			units[i] = []pag.NodeID{q}
		}
	}
	sink.SetGauge(obs.GaugeWorkers, int64(threads))
	sink.SetGauge(obs.GaugeUnits, int64(len(units)))
	sink.SetGauge(obs.GaugeWorklistDepth, int64(len(units)))
	sink.SetGauge(obs.GaugeInflight, 0)
	total := 0
	for _, u := range units {
		total += len(u)
	}
	stats.Queries = total

	// Pre-size the result slots: one contiguous region per unit, so
	// workers write disjoint slices without locking.
	offsets := make([]int, len(units)+1)
	for i, u := range units {
		offsets[i+1] = offsets[i] + len(u)
	}
	results := make([]QueryResult, total)

	start := time.Now()
	runT0 := sink.SpanStart()
	walked := make([]int64, threads)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink.WorkerStarted(w)
			// Accumulate per-worker tallies in locals and store them once
			// at exit: the walked slice's adjacent entries live on shared
			// cache lines, so per-query writes from all workers would
			// false-share them for the whole run.
			var local obs.WorkerStats
			defer func() {
				walked[w] = local.Walked
				sink.WorkerStopped(w, local)
			}()
			solver := cfl.New(g, cfl.Config{
				Budget: cfg.Budget, Share: store, Cache: cache, ContextK: cfg.ContextK,
				Obs: sink, Worker: int32(w),
				Profile: cfg.Profile || cfg.Heat != nil,
			})
			for {
				u := int(cursor.Add(1)) - 1
				if u >= len(units) {
					return
				}
				unitT0 := sink.SpanStart()
				sink.Trace(obs.EvUnitClaim, int32(w), int64(u), int64(len(units[u])))
				sink.Add(obs.CtrUnitsClaimed, 1)
				// Racing workers may write depths slightly out of order;
				// the gauge is a sampling target for the flight recorder's
				// drain-rate view, not an exact queue length.
				sink.SetGauge(obs.GaugeWorklistDepth, int64(len(units)-u-1))
				local.Units++
				out := results[offsets[u]:offsets[u+1]]
				var unitSteps int64
				for i, v := range units[u] {
					// sink.Now is the per-query clock for both the latency
					// histogram and the query span (0 when the sink is nil).
					qT0 := sink.Now()
					sink.AddGauge(obs.GaugeInflight, 1)
					r := solver.PointsTo(v, pag.EmptyContext)
					sink.AddGauge(obs.GaugeInflight, -1)
					out[i] = QueryResult{
						Var:             v,
						Objects:         r.Objects(),
						Contexts:        len(r.PointsTo),
						Aborted:         r.Aborted,
						EarlyTerminated: r.EarlyTerminated,
						Steps:           r.Steps,
						JumpsTaken:      r.JumpsTaken,
						StepsSaved:      r.StepsSaved,
						Prof:            r.Prof,
					}
					cfg.Heat.Record(&r)
					unitSteps += int64(r.Steps)
					qw := int64(r.Steps - r.StepsSaved)
					local.Walked += qw
					local.Steps += int64(r.Steps)
					local.Queries++
					if sink.Enabled() {
						sink.Add(obs.CtrQueries, 1)
						sink.Add(obs.CtrStepsWalked, qw)
						sink.Add(obs.CtrStepsSaved, int64(r.StepsSaved))
						sink.Add(obs.CtrJumpsTaken, int64(r.JumpsTaken))
						sink.Observe(obs.HistQueryNS, sink.Now()-qT0)
						sink.Observe(obs.HistQuerySteps, int64(r.Steps))
						steps := int64(r.Steps)
						if r.Aborted {
							sink.Add(obs.CtrQueriesAborted, 1)
							steps = -steps
							if r.EarlyTerminated {
								sink.Add(obs.CtrEarlyTerms, 1)
								sink.Trace(obs.EvEarlyTerm, int32(w), int64(v), int64(r.Steps))
							}
						}
						sink.Trace(obs.EvQueryDone, int32(w), int64(v), steps)
						sink.Span(obs.SpQuery, int32(w), qT0, int64(v), steps, int64(r.JumpsTaken))
					}
				}
				cfg.Heat.RecordUnit(u, len(units[u]), unitSteps)
				sink.Span(obs.SpUnit, int32(w), unitT0, int64(u), int64(len(units[u])), 0)
			}
		}(w)
	}
	wg.Wait()
	stats.WalkedPerWorker = walked
	stats.Wall = time.Since(start)
	sink.Time(obs.TmRun, stats.Wall)
	sink.Span(obs.SpRun, obs.NoWorker, runT0, int64(total), int64(len(units)), cfg.Tag)

	for i := range results {
		r := &results[i]
		stats.TotalSteps += int64(r.Steps)
		stats.StepsSaved += int64(r.StepsSaved)
		stats.JumpsTaken += int64(r.JumpsTaken)
		if r.Aborted {
			stats.Aborted++
			if r.EarlyTerminated {
				stats.EarlyTerminations++
			}
		} else {
			stats.Completed++
		}
	}
	if store != nil {
		stats.Share = store.Snapshot()
	}
	if cache != nil {
		stats.Cache = cache.Snapshot()
	}
	return results, stats
}
