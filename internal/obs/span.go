package obs

import (
	"sort"
	"sync"
)

// SpanKind identifies one span (timed interval) or instant-event type.
//
// Spans carry a start timestamp and a duration; instants a timestamp only.
// The distinction matters to consumers: the trace-event exporter renders
// spans as "complete" (X) events that nest by containment on their worker's
// track, and instants as zero-width (i) markers.
type SpanKind uint8

const (
	// SpRun: one whole engine.Run batch. A = queries, B = units.
	SpRun SpanKind = iota
	// SpWorker: one worker goroutine's run. A = units, B = queries,
	// C = steps walked.
	SpWorker
	// SpUnit: one claimed work unit, claim to completion. A = unit index,
	// B = unit size (queries).
	SpUnit
	// SpQuery: one query, start to answer. A = query variable, B = steps
	// consumed (negative when the query aborted), C = jumps taken.
	SpQuery
	// SpCompPts: one scan of a memoised backward (points-to) traversal.
	// A = node, B = steps consumed by the scan, C = context depth.
	SpCompPts
	// SpCompFls: the forward (flows-to) mirror of SpCompPts.
	SpCompFls
	// SpSchedule: one whole sched plan build. A = groups.
	SpSchedule
	// SpSchedGroup: the component-grouping phase. A = components touched.
	SpSchedGroup
	// SpSchedOrder: the CD/DD ordering phase. A = groups ordered.
	SpSchedOrder
	// SpSchedBalance: the split/merge rebalancing phase. A = final groups.
	SpSchedBalance
	// SpRefinePass: one refinement pass. A = query variable, B = pass
	// index (0-based), C = approximate fields remaining after the pass.
	SpRefinePass
	// SpIncUpdate: one incremental edit application. A = edges added,
	// B = edges removed.
	SpIncUpdate
	// SpanAdmit: one server request's admission phase (handler entry to the
	// pending-map insert or coalesce join). A = request sequence number,
	// B = queue depth at admission, C = admission class (0 = new entry,
	// 1 = coalesced onto pending, 2 = coalesced onto inflight).
	SpanAdmit
	// SpanQueueWait: one server request's wait from admission until the
	// batch containing it was sealed. A = request sequence number,
	// B = batch sequence number.
	SpanQueueWait
	// SpanBatchWindow: one dispatcher batch from window open (first pending
	// entry observed) through seal, solve and fan-out. A = batch sequence
	// number, B = distinct variables sealed, C = pending depth left behind.
	SpanBatchWindow
	// SpanServe: one server request end to end, admission to reply.
	// A = request sequence number, B = primary request sequence (the request
	// whose computation this one rode; equals A when not coalesced),
	// C = outcome class (0 = success, 1 = overload, 2 = deadline, 3 = error).
	SpanServe

	// SpJmpTake (instant): a finished jmp shortcut was taken. A = node,
	// B = steps saved.
	SpJmpTake
	// SpEarlyTerm (instant): a query early-terminated on an unfinished jmp
	// entry. A = node, B = required budget.
	SpEarlyTerm
	// SpJmpInsert (instant): a jmp edge entered the store. A = node,
	// B = step cost (negative for unfinished markers).
	SpJmpInsert

	// NumSpanKinds is the number of defined span kinds.
	NumSpanKinds
)

var spanNames = [NumSpanKinds]string{
	"run", "worker", "unit", "query", "comp_pts", "comp_fls",
	"schedule", "sched_group", "sched_order", "sched_balance",
	"refine_pass", "inc_update",
	"admit", "queue_wait", "batch_window", "serve",
	"jmp_take", "early_term", "jmp_insert",
}

// String returns the span kind's snake_case name.
func (k SpanKind) String() string {
	if int(k) < len(spanNames) {
		return spanNames[k]
	}
	return "span_unknown"
}

// Instant reports whether the kind is an instant event (zero duration by
// construction) rather than a timed span.
func (k SpanKind) Instant() bool {
	return k == SpJmpTake || k == SpEarlyTerm || k == SpJmpInsert
}

// Span is one recorded span or instant event. T is the start timestamp in
// nanoseconds since sink creation; Dur is 0 for instants. A, B and C are
// kind-specific payloads (see the SpanKind docs).
type Span struct {
	Kind   SpanKind `json:"kind"`
	Worker int32    `json:"worker"`
	T      int64    `json:"t_ns"`
	Dur    int64    `json:"dur_ns"`
	A      int64    `json:"a"`
	B      int64    `json:"b"`
	C      int64    `json:"c"`
}

// spanBuf is one span buffer. Buffer 0 (the "main" track: engine phases,
// scheduler phases, store insertions — anything not attributable to a
// single worker goroutine) is shared between goroutines. Buffers 1..N are
// per-worker and single-writer: only worker w appends to buffer w+1, so
// their mutex is uncontended on the query hot path — it exists so a live
// reader (a diagnostic bundle capturing mid-incident, when the ring
// overwrite mutates existing entries) snapshots consistent spans instead
// of racing the writers. The struct is padded so adjacent workers'
// buffers never share a cache line.
//
// A full buffer behaves as a ring: new spans overwrite the oldest (counted
// as dropped). A long-lived daemon therefore always holds the most recent
// window of activity — the spans a diagnostic bundle captured mid-incident
// actually needs — rather than whatever happened in its first minutes.
type spanBuf struct {
	mu      sync.Mutex
	spans   []Span
	next    int // overwrite position once len(spans) == limit
	dropped int64

	_ [2]int64 // pad to a cache line
}

func (b *spanBuf) put(sp Span, limit int) {
	b.mu.Lock()
	if len(b.spans) < limit {
		b.spans = append(b.spans, sp)
		b.mu.Unlock()
		return
	}
	b.spans[b.next] = sp
	b.next = (b.next + 1) % limit
	b.dropped++
	b.mu.Unlock()
}

// spanRegion is an attached set of span buffers: one shared buffer plus one
// buffer per worker. Buffers grow geometrically up to limit spans each,
// then wrap (overwriting oldest, counting drops), bounding memory on
// runaway traces while retaining the most recent activity.
type spanRegion struct {
	limit int
	bufs  []spanBuf
}

func newSpanRegion(workers, limit int) *spanRegion {
	if workers < 0 {
		workers = 0
	}
	return &spanRegion{limit: limit, bufs: make([]spanBuf, workers+1)}
}

// put records sp into worker's buffer. NoWorker and out-of-range ids land
// in the shared buffer 0. Every buffer locks its own mutex inside put.
func (r *spanRegion) put(worker int32, sp Span) {
	i := int(worker) + 1
	if i < 1 || i >= len(r.bufs) {
		i = 0
	}
	r.bufs[i].put(sp, r.limit)
}

// SpanTracing reports whether span buffers are attached (false for nil).
// Producers may use it to skip computing span payloads entirely.
func (s *Sink) SpanTracing() bool { return s != nil && s.spans.Load() != nil }

// SpanStart returns the span-relative start timestamp for a span about to
// open, or 0 when span tracing is off (including on a nil sink).
func (s *Sink) SpanStart() int64 {
	if s == nil || s.spans.Load() == nil {
		return 0
	}
	return s.sinceNS()
}

// Span closes a span opened at startNS (a value returned by SpanStart while
// tracing was on) and records it on worker's track. No-op when span tracing
// is off; like every Sink method it is safe and allocation-free on nil.
func (s *Sink) Span(kind SpanKind, worker int32, startNS int64, a, b, c int64) {
	if s == nil {
		return
	}
	r := s.spans.Load()
	if r == nil {
		return
	}
	r.put(worker, Span{Kind: kind, Worker: worker, T: startNS, Dur: s.sinceNS() - startNS, A: a, B: b, C: c})
}

// SpanAt records a span whose start and duration were measured elsewhere —
// e.g. reconstructed from phase stamps after a request replied, when the
// interval's endpoints were captured by different goroutines. startNS must
// come from SpanStart (or arithmetic on such values); durNS is clamped at 0.
func (s *Sink) SpanAt(kind SpanKind, worker int32, startNS, durNS int64, a, b, c int64) {
	if s == nil {
		return
	}
	r := s.spans.Load()
	if r == nil {
		return
	}
	if durNS < 0 {
		durNS = 0
	}
	r.put(worker, Span{Kind: kind, Worker: worker, T: startNS, Dur: durNS, A: a, B: b, C: c})
}

// SpanInstant records a zero-duration instant event on worker's track.
func (s *Sink) SpanInstant(kind SpanKind, worker int32, a, b int64) {
	if s == nil {
		return
	}
	r := s.spans.Load()
	if r == nil {
		return
	}
	r.put(worker, Span{Kind: kind, Worker: worker, T: s.sinceNS(), A: a, B: b})
}

// EnableSpans attaches fresh span buffers: one shared track plus one track
// per worker, each bounded at capPerTrack spans. Any previously attached
// buffers (and their spans) are discarded. Call while no producers are
// running; producers observe the swap atomically.
func (s *Sink) EnableSpans(workers, capPerTrack int) {
	if s == nil || capPerTrack <= 0 {
		return
	}
	s.spans.Store(newSpanRegion(workers, capPerTrack))
}

// DisableSpans detaches the span buffers, returning the recorded spans (as
// by Spans) one last time. Subsequent span hooks no-op until EnableSpans.
func (s *Sink) DisableSpans() ([]Span, int64) {
	if s == nil {
		return nil, 0
	}
	r := s.spans.Swap(nil)
	return collectSpans(r)
}

// Spans returns a copy of every recorded span, merged across tracks in
// start-time order, plus the total number of spans dropped on full buffers.
// Every buffer is mutex-guarded, so this is safe on a live process — a
// watchdog-triggered diagnostic bundle captures mid-run without tearing
// spans — though a moving run means the snapshot is only per-buffer (not
// globally) atomic; for exact end-of-run accounting call it quiesced.
func (s *Sink) Spans() ([]Span, int64) {
	if s == nil {
		return nil, 0
	}
	return collectSpans(s.spans.Load())
}

func collectSpans(r *spanRegion) ([]Span, int64) {
	if r == nil {
		return nil, 0
	}
	var out []Span
	var dropped int64
	for i := range r.bufs {
		b := &r.bufs[i]
		b.mu.Lock()
		out = append(out, b.spans...)
		dropped += b.dropped
		b.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		// Equal starts: longer span first, so parents precede children.
		return out[i].Dur > out[j].Dur
	})
	return out, dropped
}
