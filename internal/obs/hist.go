package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistID names one log-bucketed latency/size histogram.
type HistID uint8

const (
	// HistQueryNS buckets per-query wall time in nanoseconds.
	HistQueryNS HistID = iota
	// HistQuerySteps buckets per-query budget steps consumed.
	HistQuerySteps
	// HistServerBatchSize buckets unique query variables per dispatched
	// server batch.
	HistServerBatchSize
	// HistServerWaitNS buckets admission-to-dispatch queue wait per server
	// request in nanoseconds.
	HistServerWaitNS
	// HistServerLatencyNS buckets admission-to-reply latency per server
	// request in nanoseconds.
	HistServerLatencyNS

	// NumHists is the number of defined histograms.
	NumHists
)

var histNames = [NumHists]string{
	"query_latency_ns", "query_steps",
	"server_batch_size", "server_wait_ns", "server_latency_ns",
}

var histHelp = [NumHists]string{
	"Per-query wall time in nanoseconds.",
	"Per-query budget steps consumed (including shortcut charges).",
	"Unique query variables per dispatched server batch.",
	"Admission-to-dispatch queue wait per server request in nanoseconds.",
	"Admission-to-reply latency per server request in nanoseconds.",
}

// String returns the histogram's snake_case name.
func (h HistID) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "hist_unknown"
}

// Bucket layout. Pure power-of-two buckets give at most one bucket per
// octave, which is far too coarse for warm-snapshot serve latencies: a
// daemon answering most requests between 1µs and 4µs would pile every
// observation into two buckets and report p50 == p99. Buckets therefore
// stay exact powers of two up to 2^histSubOctaveStart, and above that each
// octave (2^k, 2^(k+1)] splits into histSubBuckets equal-width sub-buckets
// (~19% relative resolution at 4 per octave). The top finite bound stays
// 2^histTopPow ns ≈ 4.6 minutes; larger observations still count toward
// Count and Sum (the +Inf bucket at export time).
const (
	histSubOctaveStart = 10 // last pure power-of-two bucket bound: 2^10
	histSubBuckets     = 4  // sub-buckets per octave above that
	histTopPow         = 38 // last finite bound: 2^38
)

// NumHistBuckets is the number of finite histogram buckets: bucket i counts
// observations v with HistBucketBound(i-1) < v <= HistBucketBound(i),
// matching Prometheus `le` semantics. 11 power-of-two buckets (2^0..2^10)
// plus 4 sub-buckets for each of the 28 octaves up to 2^38.
const NumHistBuckets = histSubOctaveStart + 1 + (histTopPow-histSubOctaveStart)*histSubBuckets

// HistBucketBound returns bucket i's inclusive upper bound: 2^i for
// i <= histSubOctaveStart, then histSubBuckets evenly spaced bounds per
// octave ending at 2^histTopPow.
func HistBucketBound(i int) int64 {
	if i <= histSubOctaveStart {
		return 1 << uint(i)
	}
	j := i - histSubOctaveStart - 1
	k := histSubOctaveStart + j/histSubBuckets
	sub := j % histSubBuckets
	// Bounds within (2^k, 2^(k+1)]: 2^k * (5/4, 6/4, 7/4, 8/4).
	return (int64(1) << uint(k)) / histSubBuckets * int64(histSubBuckets+1+sub)
}

// histBucket maps an observation to its bucket index: the smallest i with
// v <= HistBucketBound(i). Values beyond the last finite bound return
// NumHistBuckets (the implicit +Inf bucket).
func histBucket(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // smallest b with v <= 2^b
	if b <= histSubOctaveStart {
		return b
	}
	if b > histTopPow {
		return NumHistBuckets
	}
	k := b - 1                 // v lies in (2^k, 2^(k+1)]
	w := int64(1) << uint(k-2) // sub-bucket width 2^k / histSubBuckets
	sub := (v - 1 - (int64(1) << uint(k))) / w
	return histSubOctaveStart + 1 + (k-histSubOctaveStart)*histSubBuckets + int(sub)
}

// hist is one histogram's storage: per-bucket counts plus count and sum,
// all atomics so any worker may observe concurrently.
type hist struct {
	count, sum atomic.Int64
	buckets    [NumHistBuckets]atomic.Int64
}

// Observe records one observation of value v (clamped at 0) into histogram
// h. Nil-safe and allocation-free; a handful of atomic adds when live.
func (s *Sink) Observe(h HistID, v int64) {
	if s == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	hs := &s.hists[h]
	hs.count.Add(1)
	hs.sum.Add(v)
	if b := histBucket(v); b < NumHistBuckets {
		hs.buckets[b].Add(1)
	}
}

// HistSnapshot is one histogram's state at a point in time. Buckets are
// per-bucket (non-cumulative) counts; Count includes observations beyond
// the last finite bound, so Count - sum(Buckets) is the +Inf bucket.
type HistSnapshot struct {
	Count   int64                 `json:"count"`
	Sum     int64                 `json:"sum"`
	Buckets [NumHistBuckets]int64 `json:"buckets"`
}

// Merge returns the element-wise sum of two snapshots (e.g. the same
// histogram sampled from several sinks).
func (a HistSnapshot) Merge(b HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	for i := range out.Buckets {
		out.Buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution by locating the bucket containing the rank and linearly
// interpolating within it. Observations beyond the last finite bound are
// reported as that bound. Returns 0 on an empty histogram.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	for i := 0; i < NumHistBuckets; i++ {
		c := h.Buckets[i]
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			var lo int64
			if i > 0 {
				lo = HistBucketBound(i - 1)
			}
			hi := HistBucketBound(i)
			frac := (rank - float64(cum)) / float64(c)
			return lo + int64(frac*float64(hi-lo)+0.5)
		}
		cum += c
	}
	return HistBucketBound(NumHistBuckets - 1)
}

// Sub returns the element-wise difference a-b: the observations recorded
// between the moment snapshot b was taken and the moment a was. Negative
// cells (a reset sink, or snapshots taken out of order) clamp to 0 so
// windowed quantiles never see impossible counts.
func (a HistSnapshot) Sub(b HistSnapshot) HistSnapshot {
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	out := HistSnapshot{Count: clamp(a.Count - b.Count), Sum: clamp(a.Sum - b.Sum)}
	for i := range out.Buckets {
		out.Buckets[i] = clamp(a.Buckets[i] - b.Buckets[i])
	}
	return out
}

// Hist reads histogram h (zero value on a nil sink).
func (s *Sink) Hist(h HistID) HistSnapshot {
	if s == nil {
		return HistSnapshot{}
	}
	hs := &s.hists[h]
	out := HistSnapshot{Count: hs.count.Load(), Sum: hs.sum.Load()}
	for i := range out.Buckets {
		out.Buckets[i] = hs.buckets[i].Load()
	}
	return out
}

// Exemplars: each histogram bucket may retain the identity of the most
// recent observation that landed in it — the request ID (and its server-side
// sequence number) behind a latency sample — so a p99 bucket on /metrics
// links to a concrete request whose trace lane and log lines can be pulled
// up. Storage is attached lazily by EnableExemplars; while detached, the
// exemplar hooks are a single atomic load and allocate nothing, keeping the
// hot path identical to a sink without the feature.

// Exemplar is one bucket's retained observation identity.
type Exemplar struct {
	// RID is the request ID that produced the observation.
	RID string `json:"rid"`
	// Seq is the server-side request sequence number (keys the "req N"
	// trace lane in the span export; 0 when not applicable).
	Seq int64 `json:"seq,omitempty"`
	// Value is the observed value (same unit as the histogram).
	Value int64 `json:"value"`
	// UnixNano is the wall-clock capture time.
	UnixNano int64 `json:"unix_nano"`
}

// exemplarTable holds one exemplar slot per bucket per histogram, the last
// slot of each row being the +Inf bucket. Slots are atomic pointers:
// concurrent writers race benignly (last write wins — "most recent" is the
// contract) and readers always see a whole Exemplar.
type exemplarTable struct {
	slots [NumHists][NumHistBuckets + 1]atomic.Pointer[Exemplar]
}

// EnableExemplars attaches exemplar storage to the sink's histograms.
// Idempotent; call once at startup. Nil-safe.
func (s *Sink) EnableExemplars() {
	if s == nil || s.exemplars.Load() != nil {
		return
	}
	s.exemplars.CompareAndSwap(nil, &exemplarTable{})
}

// ExemplarsEnabled reports whether exemplar storage is attached.
func (s *Sink) ExemplarsEnabled() bool { return s != nil && s.exemplars.Load() != nil }

// Exemplar records rid (with server sequence seq) as the exemplar of the
// bucket that value v falls in for histogram h. It does not bump the bucket
// counts — pair it with an Observe of the same value, typically at reply
// time when the request ID is in hand. No-op (and allocation-free) when
// exemplar storage is not attached or on a nil sink.
func (s *Sink) Exemplar(h HistID, v int64, rid string, seq int64) {
	if s == nil {
		return
	}
	t := s.exemplars.Load()
	if t == nil || rid == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	t.slots[h][histBucket(v)].Store(&Exemplar{RID: rid, Seq: seq, Value: v, UnixNano: time.Now().UnixNano()})
}

// BucketExemplar is one retained exemplar with its bucket coordinates.
type BucketExemplar struct {
	// Bucket is the bucket index; LE its inclusive upper bound (-1 for the
	// +Inf bucket).
	Bucket int   `json:"bucket"`
	LE     int64 `json:"le"`
	Exemplar
}

// HistExemplars returns histogram h's retained exemplars in bucket order
// (nil when exemplar storage is not attached, or on a nil sink).
func (s *Sink) HistExemplars(h HistID) []BucketExemplar {
	if s == nil {
		return nil
	}
	t := s.exemplars.Load()
	if t == nil {
		return nil
	}
	var out []BucketExemplar
	for i := 0; i <= NumHistBuckets; i++ {
		e := t.slots[h][i].Load()
		if e == nil {
			continue
		}
		le := int64(-1)
		if i < NumHistBuckets {
			le = HistBucketBound(i)
		}
		out = append(out, BucketExemplar{Bucket: i, LE: le, Exemplar: *e})
	}
	return out
}
