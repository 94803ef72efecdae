// Package obs is the engine's observability layer: allocation-conscious
// atomic counters and timers, a bounded in-memory trace ring of engine
// events, and per-worker timelines, all behind a nil-safe *Sink.
//
// Every method is safe (and free) to call on a nil *Sink: the disabled path
// is a single nil check with no allocations, so hot loops can carry
// unconditional instrumentation calls. Producers (engine workers, the jmp
// store, the result cache, the scheduler) record into the sink; consumers
// read a consistent Snapshot, or watch live through the debug HTTP endpoint
// (see ServeDebug).
//
// The design follows the paper's own evaluation needs: Table I and
// Figs. 6–8 are per-run counters (steps, jumps, early terminations,
// group shapes) and per-worker work distributions; the trace ring adds the
// event-level view (who claimed which unit when, where shortcuts were taken)
// that aggregate counters cannot answer.
package obs

import (
	"sync/atomic"
	"time"
)

// CounterID names one monotonic counter. Counters are cheap enough to bump
// from hot paths (one atomic add each).
type CounterID uint8

const (
	// CtrQueries counts queries completed or aborted.
	CtrQueries CounterID = iota
	// CtrQueriesAborted counts queries that ran out of budget.
	CtrQueriesAborted
	// CtrEarlyTerms counts aborts triggered by unfinished jmp entries.
	CtrEarlyTerms
	// CtrStepsWalked counts budget steps actually traversed.
	CtrStepsWalked
	// CtrStepsSaved counts budget steps satisfied by jmp shortcuts.
	CtrStepsSaved
	// CtrJumpsTaken counts finished jmp shortcuts taken.
	CtrJumpsTaken
	// CtrJmpFinishedIns / CtrJmpUnfinishedIns count jmp store insertions.
	CtrJmpFinishedIns
	CtrJmpUnfinishedIns
	// CtrCacheHits / CtrCacheMisses count result-cache lookups.
	CtrCacheHits
	CtrCacheMisses
	// CtrUnitsClaimed counts work units claimed off the shared cursor.
	CtrUnitsClaimed
	// CtrRefineQueries / CtrRefinePasses count refinement-based queries
	// and the refinement iterations they ran.
	CtrRefineQueries
	CtrRefinePasses
	// CtrIncEditsGrow / CtrIncEditsShrink count incremental graph edits
	// by class (growing edits invalidate caches, shrinking ones do not).
	CtrIncEditsGrow
	CtrIncEditsShrink
	// CtrIncResolves counts incremental re-solve queries.
	CtrIncResolves
	// CtrShareLookups / CtrShareHits count jmp store lookups and the
	// subset that found a current-epoch entry; their ratio is the
	// shortcut hit-rate behind the TauF/TauU thresholds.
	CtrShareLookups
	CtrShareHits
	// CtrServerRequests counts query requests admitted by the resident
	// server (see internal/server).
	CtrServerRequests
	// CtrServerCoalesced counts admitted requests answered by another
	// request's computation (in-flight or same-batch dedup).
	CtrServerCoalesced
	// CtrServerRejected counts requests refused by admission control
	// (bounded queue full or server draining).
	CtrServerRejected
	// CtrServerTimeouts counts requests whose deadline expired before
	// their batch was answered.
	CtrServerTimeouts
	// CtrServerBatches counts coalesced engine.Run batches dispatched.
	CtrServerBatches

	// NumCounters is the number of defined counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	"queries", "queries_aborted", "early_terminations",
	"steps_walked", "steps_saved", "jumps_taken",
	"jmp_finished_inserted", "jmp_unfinished_inserted",
	"cache_hits", "cache_misses", "units_claimed",
	"refine_queries", "refine_passes",
	"inc_edits_grow", "inc_edits_shrink", "inc_resolves",
	"share_lookups", "share_hits",
	"server_requests", "server_coalesced", "server_rejected",
	"server_timeouts", "server_batches",
}

// String returns the counter's snake_case name.
func (c CounterID) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter_unknown"
}

// GaugeID names one last-value gauge.
type GaugeID uint8

const (
	// GaugeWorkers is the worker count of the current/last run.
	GaugeWorkers GaugeID = iota
	// GaugeUnits is the number of scheduled work units of the current run.
	GaugeUnits
	// GaugeEpoch is the sharing epoch of the attached stores.
	GaugeEpoch
	// GaugeWorklistDepth is the number of scheduled work units not yet
	// claimed by any worker (drains from GaugeUnits to 0 over a run).
	GaugeWorklistDepth
	// GaugeInflight is the number of queries currently being solved across
	// all workers (each worker solves at most one at a time).
	GaugeInflight
	// GaugeShareFinished / GaugeShareUnfinished are the jmp store's
	// current-epoch entry counts by kind.
	GaugeShareFinished
	GaugeShareUnfinished
	// GaugeShareHighWater is the largest total jmp store size ever seen.
	GaugeShareHighWater
	// GaugePtcacheEntries is the result cache's published-entry count.
	GaugePtcacheEntries
	// GaugeSchedComponents is the number of direct-relation components the
	// last schedule touched.
	GaugeSchedComponents
	// GaugeServerQueueDepth is the number of admitted server requests
	// waiting to be dispatched in a batch.
	GaugeServerQueueDepth
	// GaugeServerInflight is the number of unique query variables currently
	// being computed by dispatched server batches.
	GaugeServerInflight

	// NumGauges is the number of defined gauges.
	NumGauges
)

var gaugeNames = [NumGauges]string{
	"workers", "units", "epoch",
	"worklist_depth", "inflight_queries",
	"share_finished_size", "share_unfinished_size", "share_high_water",
	"ptcache_entries", "sched_components",
	"server_queue_depth", "server_inflight",
}

// String returns the gauge's snake_case name.
func (g GaugeID) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return "gauge_unknown"
}

// TimerID names one aggregate timer (count + total duration).
type TimerID uint8

const (
	// TmSchedule times sched.Schedule plan construction.
	TmSchedule TimerID = iota
	// TmRun times whole engine.Run batches.
	TmRun

	// NumTimers is the number of defined timers.
	NumTimers
)

var timerNames = [NumTimers]string{"schedule", "run"}

// String returns the timer's snake_case name.
func (t TimerID) String() string {
	if int(t) < len(timerNames) {
		return timerNames[t]
	}
	return "timer_unknown"
}

// TimerStats is one timer's aggregate.
type TimerStats struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
}

// WorkerStats is one worker goroutine's timeline entry. Entries are padded
// to a full cache line so adjacent workers never false-share; workers write
// only their own entry, once at start and once at exit.
type WorkerStats struct {
	StartNS int64 `json:"start_ns"` // ns since sink creation
	StopNS  int64 `json:"stop_ns"`
	Units   int64 `json:"units"`   // work units claimed
	Queries int64 `json:"queries"` // queries processed
	Steps   int64 `json:"steps"`   // budget steps consumed (incl. shortcut charges)
	Walked  int64 `json:"walked"`  // steps actually traversed

	_ [2]int64 // pad to 64 bytes
}

// paddedCounter keeps each hot counter on its own cache line.
type paddedCounter struct {
	v atomic.Int64
	_ [7]int64
}

// Config sizes a Sink.
type Config struct {
	// Workers is the number of per-worker timeline slots (0 = none).
	Workers int
	// TraceCap is the trace ring capacity in events; 0 disables tracing
	// (counters, gauges, timers and timelines still work).
	TraceCap int
	// SpanCap, when positive, attaches span buffers at creation: one
	// shared track plus one per worker, each bounded at SpanCap spans
	// (see EnableSpans). 0 leaves span tracing off.
	SpanCap int
}

// Sink collects observations. The zero value is not usable; create with
// New. A nil *Sink is the disabled sink: every method no-ops.
type Sink struct {
	start      time.Time
	counters   [NumCounters]paddedCounter
	gauges     [NumGauges]atomic.Int64
	timers     [NumTimers]struct{ n, ns atomic.Int64 }
	hists      [NumHists]hist
	workers    []WorkerStats
	ring       *ring
	spans      atomic.Pointer[spanRegion]
	recorder   atomic.Pointer[Recorder]
	heat       atomic.Pointer[heatBox]
	slo        atomic.Pointer[SLO]
	exemplars  atomic.Pointer[exemplarTable]
	tracestore atomic.Pointer[traceStoreBox]
}

// New creates a sink.
func New(cfg Config) *Sink {
	s := &Sink{start: time.Now()}
	if cfg.Workers > 0 {
		s.workers = make([]WorkerStats, cfg.Workers)
	}
	if cfg.TraceCap > 0 {
		s.ring = newRing(cfg.TraceCap)
	}
	if cfg.SpanCap > 0 {
		s.spans.Store(newSpanRegion(cfg.Workers, cfg.SpanCap))
	}
	return s
}

// Enabled reports whether the sink records anything (false for nil).
func (s *Sink) Enabled() bool { return s != nil }

// Tracing reports whether the trace ring is active. Producers may use it to
// skip building event payloads when no ring will record them.
func (s *Sink) Tracing() bool { return s != nil && s.ring != nil }

// sinceNS returns nanoseconds since sink creation.
func (s *Sink) sinceNS() int64 { return int64(time.Since(s.start)) }

// Now returns the sink-relative timestamp in ns (0 on a nil sink).
func (s *Sink) Now() int64 {
	if s == nil {
		return 0
	}
	return s.sinceNS()
}

// Add bumps counter c by n.
func (s *Sink) Add(c CounterID, n int64) {
	if s == nil {
		return
	}
	s.counters[c].v.Add(n)
}

// Counter reads counter c.
func (s *Sink) Counter(c CounterID) int64 {
	if s == nil {
		return 0
	}
	return s.counters[c].v.Load()
}

// SetGauge stores the latest value of gauge g.
func (s *Sink) SetGauge(g GaugeID, v int64) {
	if s == nil {
		return
	}
	s.gauges[g].Store(v)
}

// AddGauge adjusts gauge g by delta atomically (for gauges that track a
// level, like in-flight queries, rather than a last-written value).
func (s *Sink) AddGauge(g GaugeID, delta int64) {
	if s == nil {
		return
	}
	s.gauges[g].Add(delta)
}

// Gauge reads gauge g.
func (s *Sink) Gauge(g GaugeID) int64 {
	if s == nil {
		return 0
	}
	return s.gauges[g].Load()
}

// AttachRecorder attaches r as the sink's flight recorder, replacing any
// previous one. Consumers (the debug endpoint, the Prometheus exposition,
// the trace-event export) discover it through FlightRecorder.
func (s *Sink) AttachRecorder(r *Recorder) {
	if s == nil {
		return
	}
	s.recorder.Store(r)
}

// FlightRecorder returns the attached flight recorder (nil when none is
// attached, or on a nil sink).
func (s *Sink) FlightRecorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.recorder.Load()
}

// Time records one observation of duration d under timer t.
func (s *Sink) Time(t TimerID, d time.Duration) {
	if s == nil {
		return
	}
	s.timers[t].n.Add(1)
	s.timers[t].ns.Add(int64(d))
}

// Timer reads timer t's aggregate.
func (s *Sink) Timer(t TimerID) TimerStats {
	if s == nil {
		return TimerStats{}
	}
	return TimerStats{Count: s.timers[t].n.Load(), TotalNS: s.timers[t].ns.Load()}
}

// Trace appends an event to the trace ring (no-op when tracing is off).
// worker is the producing worker id, or NoWorker when not attributable.
func (s *Sink) Trace(kind EventKind, worker int32, a, b int64) {
	if s == nil || s.ring == nil {
		return
	}
	s.ring.put(Event{Kind: kind, Worker: worker, T: s.sinceNS(), A: a, B: b})
}

// WorkerStarted stamps worker w's timeline start and traces EvWorkerStart.
func (s *Sink) WorkerStarted(w int) {
	if s == nil {
		return
	}
	if w >= 0 && w < len(s.workers) {
		s.workers[w].StartNS = s.sinceNS()
	}
	s.Trace(EvWorkerStart, int32(w), 0, 0)
}

// WorkerStopped stores worker w's accumulated stats (a single write at
// worker exit — producers accumulate locally, avoiding cross-worker cache
// traffic during the run) and traces EvWorkerStop. With span tracing on,
// the worker's whole run becomes an SpWorker span on its track.
func (s *Sink) WorkerStopped(w int, st WorkerStats) {
	if s == nil {
		return
	}
	if w >= 0 && w < len(s.workers) {
		start := s.workers[w].StartNS
		s.workers[w] = st
		s.workers[w].StartNS = start
		s.workers[w].StopNS = s.sinceNS()
		s.Span(SpWorker, int32(w), start, st.Units, st.Queries, st.Walked)
	}
	s.Trace(EvWorkerStop, int32(w), st.Queries, st.Walked)
}

// Workers returns a copy of the per-worker timelines.
func (s *Sink) Workers() []WorkerStats {
	if s == nil || len(s.workers) == 0 {
		return nil
	}
	out := make([]WorkerStats, len(s.workers))
	copy(out, s.workers)
	return out
}

// Snapshot is a consistent-enough copy of everything the sink holds
// (counters are read one by one; exactness across counters is not needed
// for reporting).
type Snapshot struct {
	UptimeNS     int64                   `json:"uptime_ns"`
	Counters     map[string]int64        `json:"counters"`
	Gauges       map[string]int64        `json:"gauges"`
	Timers       map[string]TimerStats   `json:"timers"`
	Hists        map[string]HistSnapshot `json:"hists,omitempty"`
	Workers      []WorkerStats           `json:"workers,omitempty"`
	Trace        []Event                 `json:"trace,omitempty"`
	TraceDropped uint64                  `json:"trace_dropped"`
}

// Snapshot captures the sink's current state (zero value on nil).
func (s *Sink) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		UptimeNS: s.sinceNS(),
		Counters: make(map[string]int64, NumCounters),
		Gauges:   make(map[string]int64, NumGauges),
		Timers:   make(map[string]TimerStats, NumTimers),
		Workers:  s.Workers(),
	}
	for c := CounterID(0); c < NumCounters; c++ {
		snap.Counters[c.String()] = s.Counter(c)
	}
	for g := GaugeID(0); g < NumGauges; g++ {
		snap.Gauges[g.String()] = s.Gauge(g)
	}
	for t := TimerID(0); t < NumTimers; t++ {
		snap.Timers[t.String()] = s.Timer(t)
	}
	for h := HistID(0); h < NumHists; h++ {
		if hs := s.Hist(h); hs.Count > 0 {
			if snap.Hists == nil {
				snap.Hists = make(map[string]HistSnapshot, NumHists)
			}
			snap.Hists[h.String()] = hs
		}
	}
	if s.ring != nil {
		snap.Trace, snap.TraceDropped = s.ring.snapshot()
	}
	return snap
}
