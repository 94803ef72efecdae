package obs

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition of a Sink: every counter becomes a
// `parcfl_<name>_total` counter, every gauge a `parcfl_<name>` gauge,
// every timer a `_count`/`_ns_total` counter pair, and every log-bucketed
// histogram a native Prometheus histogram with power-of-two `le` bounds.
// Two formats are served: the classic text exposition v0.0.4 (the one
// every Prometheus scraper and promtool understand), and OpenMetrics 1.0
// for clients that negotiate it — only the latter may carry bucket
// exemplars, because the v0.0.4 parser allows nothing after a sample's
// value except an optional timestamp and would fail the whole scrape on
// an exemplar-bearing line.

var counterHelp = [NumCounters]string{
	"Queries completed or aborted.",
	"Queries that ran out of budget.",
	"Aborts triggered by unfinished jmp entries.",
	"Budget steps actually traversed.",
	"Budget steps satisfied by jmp shortcuts.",
	"Finished jmp shortcuts taken.",
	"Finished jmp store insertions.",
	"Unfinished jmp store insertions.",
	"Result-cache hits.",
	"Result-cache misses.",
	"Work units claimed off the shared cursor.",
	"Refinement-based queries answered.",
	"Refinement passes executed.",
	"Incremental edits that can grow value-flow paths.",
	"Incremental edits that only remove paths.",
	"Incremental re-solve queries.",
	"Jmp store lookups.",
	"Jmp store lookups that found a current-epoch entry.",
	"Query requests admitted by the resident server.",
	"Admitted requests answered by another request's computation.",
	"Requests refused by admission control.",
	"Requests whose deadline expired before their batch was answered.",
	"Coalesced engine batches dispatched by the server.",
}

var gaugeHelp = [NumGauges]string{
	"Worker count of the current/last run.",
	"Scheduled work units of the current run.",
	"Sharing epoch of the attached stores.",
	"Scheduled work units not yet claimed.",
	"Queries currently being solved across all workers.",
	"Current-epoch finished jmp entries.",
	"Current-epoch unfinished jmp entries.",
	"Largest total jmp store size ever seen.",
	"Published result-cache entries.",
	"Direct-relation components touched by the last schedule.",
	"Admitted server requests waiting to be dispatched.",
	"Unique query variables in dispatched server batches.",
}

var timerHelp = [NumTimers]string{
	"sched.Schedule plan construction.",
	"Whole engine.Run batches.",
}

// WriteProm writes the sink's state in the classic Prometheus text
// exposition format v0.0.4. The body is exemplar-free by construction:
// clients that want exemplars negotiate OpenMetrics (see WriteOpenMetrics).
// A nil sink writes only a marker comment (all series absent), which is
// still a valid scrape body.
func WriteProm(w io.Writer, s *Sink) error {
	return writeExposition(w, s, false)
}

// WriteOpenMetrics writes the same series in the OpenMetrics 1.0 text
// format: counter families are declared without the mandatory `_total`
// sample suffix, histogram bucket lines carry exemplars
// (` # {request_id="...",seq="..."} value ts`) linking a latency bucket to
// the most recent request that landed in it, and the body ends with the
// required `# EOF` terminator.
func WriteOpenMetrics(w io.Writer, s *Sink) error {
	return writeExposition(w, s, true)
}

func writeExposition(w io.Writer, s *Sink, om bool) error {
	bw := &errWriter{w: w}
	if !om {
		// OpenMetrics permits no free-form comments; v0.0.4 keeps the marker
		// so an all-absent scrape body is visibly ours.
		bw.printf("# parcfl metrics\n")
	}
	if s == nil {
		if om {
			bw.printf("# EOF\n")
		}
		return bw.err
	}

	// counterHeader declares the family for a counter sample named with the
	// `_total` suffix; OpenMetrics names the family without it.
	counterHeader := func(sample, help string) {
		fam := sample
		if om {
			fam = strings.TrimSuffix(sample, "_total")
		}
		bw.printf("# HELP %s %s\n", fam, help)
		bw.printf("# TYPE %s counter\n", fam)
	}

	for c := CounterID(0); c < NumCounters; c++ {
		name := "parcfl_" + c.String() + "_total"
		counterHeader(name, counterHelp[c])
		bw.printf("%s %d\n", name, s.Counter(c))
	}
	for g := GaugeID(0); g < NumGauges; g++ {
		name := "parcfl_" + g.String()
		bw.printf("# HELP %s %s\n", name, gaugeHelp[g])
		bw.printf("# TYPE %s gauge\n", name)
		bw.printf("%s %d\n", name, s.Gauge(g))
	}
	{
		name := "parcfl_uptime_seconds"
		bw.printf("# HELP %s Seconds since the sink was created.\n", name)
		bw.printf("# TYPE %s gauge\n", name)
		bw.printf("%s %g\n", name, float64(s.Now())/1e9)
	}
	{
		// Build identity as the conventional info-style gauge: the constant 1
		// with the identity in labels, joinable against every other series.
		bi := ReadBuildIdentity()
		name := "parcfl_build_info"
		bw.printf("# HELP %s Build identity of the running binary (constant 1; labels carry the identity).\n", name)
		bw.printf("# TYPE %s gauge\n", name)
		bw.printf("%s{go_version=%q,revision=%q,dirty=%q} 1\n",
			name, bi.GoVersion, bi.Revision, boolStr(bi.Dirty))
	}
	for t := TimerID(0); t < NumTimers; t++ {
		ts := s.Timer(t)
		base := "parcfl_timer_" + t.String()
		// An OpenMetrics counter sample must end in `_total`, which the
		// `_count` series name cannot; it is declared `unknown` there so the
		// series keeps its identity across both formats.
		countType := "counter"
		if om {
			countType = "unknown"
		}
		bw.printf("# HELP %s_count Timed observations: %s\n", base, timerHelp[t])
		bw.printf("# TYPE %s_count %s\n", base, countType)
		bw.printf("%s_count %d\n", base, ts.Count)
		counterHeader(base+"_ns_total", "Total nanoseconds: "+timerHelp[t])
		bw.printf("%s_ns_total %d\n", base, ts.TotalNS)
	}
	for h := HistID(0); h < NumHists; h++ {
		hs := s.Hist(h)
		name := "parcfl_" + h.String()
		// Bucket exemplars (OpenMetrics syntax: "# {labels} value timestamp"
		// appended to the bucket's sample line) link a latency bucket to the
		// most recent request ID that landed in it — and through its seq to
		// the request's "req N" trace lane in the span export. Only the
		// OpenMetrics body may carry them: v0.0.4 parsers reject the syntax.
		var exByBucket map[int]BucketExemplar
		if exs := s.HistExemplars(h); om && len(exs) > 0 {
			exByBucket = make(map[int]BucketExemplar, len(exs))
			for _, e := range exs {
				exByBucket[e.Bucket] = e
			}
		}
		bw.printf("# HELP %s %s\n", name, histHelp[h])
		bw.printf("# TYPE %s histogram\n", name)
		cum := int64(0)
		for i := 0; i < NumHistBuckets; i++ {
			cum += hs.Buckets[i]
			bw.printf("%s_bucket{le=\"%d\"} %d", name, HistBucketBound(i), cum)
			writeExemplar(bw, exByBucket, i)
			bw.printf("\n")
		}
		bw.printf("%s_bucket{le=\"+Inf\"} %d", name, hs.Count)
		writeExemplar(bw, exByBucket, NumHistBuckets)
		bw.printf("\n")
		bw.printf("%s_sum %d\n", name, hs.Sum)
		bw.printf("%s_count %d\n", name, hs.Count)
	}
	// SLO state, when a tracker is attached: outcome counts by class plus
	// per-window availability/latency attainment and burn rates. Window
	// lengths become a label so both 5m and 1h series scrape side by side.
	if slo := s.SLO(); slo != nil {
		snap := slo.Snapshot()
		counterHeader("parcfl_slo_requests_total", "Requests accounted by the SLO tracker, by outcome class (longest window).")
		if n := len(snap.Windows); n > 0 {
			longest := snap.Windows[n-1]
			for c := SLOClass(0); c < NumSLOClasses; c++ {
				bw.printf("parcfl_slo_requests_total{class=%q} %d\n", c.String(), longest.Classes[c.String()])
			}
		}
		bw.printf("# HELP parcfl_slo_availability_objective Availability objective (fraction).\n")
		bw.printf("# TYPE parcfl_slo_availability_objective gauge\n")
		bw.printf("parcfl_slo_availability_objective %g\n", snap.AvailabilityObjective)
		bw.printf("# HELP parcfl_slo_latency_objective Latency objective (fraction within target).\n")
		bw.printf("# TYPE parcfl_slo_latency_objective gauge\n")
		bw.printf("parcfl_slo_latency_objective %g\n", snap.LatencyObjective)
		bw.printf("# HELP parcfl_slo_latency_target_ns Latency SLI threshold in nanoseconds.\n")
		bw.printf("# TYPE parcfl_slo_latency_target_ns gauge\n")
		bw.printf("parcfl_slo_latency_target_ns %d\n", snap.LatencyTargetNS)
		for _, fam := range []struct {
			name, help string
			val        func(SLOWindow) float64
		}{
			{"parcfl_slo_availability", "Rolling availability SLI (success+overload over total).", func(w SLOWindow) float64 { return w.Availability }},
			{"parcfl_slo_avail_burn_rate", "Availability error-budget burn rate ((1-SLI)/(1-objective)).", func(w SLOWindow) float64 { return w.AvailBurnRate }},
			{"parcfl_slo_latency_attainment", "Rolling fraction of successes within the latency target.", func(w SLOWindow) float64 { return w.LatencyAttainment }},
			{"parcfl_slo_latency_burn_rate", "Latency error-budget burn rate ((1-SLI)/(1-objective)).", func(w SLOWindow) float64 { return w.LatencyBurnRate }},
		} {
			bw.printf("# HELP %s %s\n", fam.name, fam.help)
			bw.printf("# TYPE %s gauge\n", fam.name)
			for _, w := range snap.Windows {
				bw.printf("%s{window=\"%ds\"} %g\n", fam.name, w.WindowSec, fam.val(w))
			}
		}
	}
	// Trace-store retention state, when one is attached: how many request
	// traces were offered / retained (by tail policy) / evicted, the live
	// retained count against its bound, and the current slow threshold —
	// enough to alert on "the interesting traces are being evicted faster
	// than anyone could fetch them".
	if ts := s.TraceStore(); ts != nil {
		snap := ts.Snapshot()
		counterHeader("parcfl_trace_observed_total", "Completed request traces offered to the trace store.")
		bw.printf("parcfl_trace_observed_total %d\n", snap.Observed)
		counterHeader("parcfl_trace_retained_total", "Request traces retained, by tail policy.")
		for p := RetainPolicy(0); p < NumRetainPolicies; p++ {
			bw.printf("parcfl_trace_retained_total{policy=%q} %d\n", p.String(), snap.RetainedByPolicy[p.String()])
		}
		counterHeader("parcfl_trace_dropped_total", "Request traces offered but not retained (sampled out).")
		bw.printf("parcfl_trace_dropped_total %d\n", snap.Dropped)
		counterHeader("parcfl_trace_evicted_total", "Retained traces overwritten by newer ones (ring full).")
		bw.printf("parcfl_trace_evicted_total %d\n", snap.Evicted)
		bw.printf("# HELP parcfl_trace_retained Retained request traces currently held.\n")
		bw.printf("# TYPE parcfl_trace_retained gauge\n")
		bw.printf("parcfl_trace_retained %d\n", snap.Retained)
		bw.printf("# HELP parcfl_trace_capacity Trace-store ring capacity (memory bound, in traces).\n")
		bw.printf("# TYPE parcfl_trace_capacity gauge\n")
		bw.printf("parcfl_trace_capacity %d\n", snap.Capacity)
		bw.printf("# HELP parcfl_trace_slow_threshold_ns Live slow-retention latency threshold (0 = inactive).\n")
		bw.printf("# TYPE parcfl_trace_slow_threshold_ns gauge\n")
		bw.printf("parcfl_trace_slow_threshold_ns %d\n", snap.ThresholdNS)
		bw.printf("# HELP parcfl_trace_anomaly_active Whether the watchdog anomaly retention window is open.\n")
		bw.printf("# TYPE parcfl_trace_anomaly_active gauge\n")
		active := int64(0)
		if snap.AnomalyActive {
			active = 1
		}
		bw.printf("parcfl_trace_anomaly_active %d\n", active)
	}
	// The flight recorder's newest sample, one gauge per series under the
	// parcfl_fr_ prefix (fr = flight recorder) so runtime series never
	// collide with the engine counter/gauge names above.
	if names, vals, ok := s.FlightRecorder().Last(); ok {
		for i, n := range names {
			name := "parcfl_fr_" + n
			bw.printf("# HELP %s Flight-recorder series %s (last sample).\n", name, n)
			bw.printf("# TYPE %s gauge\n", name)
			bw.printf("%s %g\n", name, vals[i])
		}
	}
	// Top-k rows of the attached heat profile, one labelled gauge family
	// per series under the parcfl_heat_ prefix (analysis-semantic step
	// attribution; see internal/autopsy).
	if h := s.Heat(); h != nil {
		samples := h.HeatTop(promHeatTopK)
		var lastSeries string
		for _, smp := range samples {
			name := "parcfl_heat_" + smp.Series
			if smp.Series != lastSeries {
				bw.printf("# HELP %s Heat-profile series %s (top %d).\n", name, smp.Series, promHeatTopK)
				bw.printf("# TYPE %s gauge\n", name)
				lastSeries = smp.Series
			}
			bw.printf("%s{%s=%q} %d\n", name, smp.LabelKey, smp.Label, smp.Value)
		}
	}
	if om {
		bw.printf("# EOF\n")
	}
	return bw.err
}

// promHeatTopK bounds the heat rows exported per series on /metrics: the
// full profile stays on /debug/heat, the scrape surface stays small.
const promHeatTopK = 10

// writeExemplar appends one bucket's exemplar in OpenMetrics syntax to the
// (unterminated) sample line: ` # {request_id="...",seq="..."} value ts`.
func writeExemplar(bw *errWriter, ex map[int]BucketExemplar, bucket int) {
	e, ok := ex[bucket]
	if !ok {
		return
	}
	bw.printf(" # {request_id=%q,seq=\"%d\"} %d %d.%03d",
		e.RID, e.Seq, e.Value, e.UnixNano/1e9, (e.UnixNano/1e6)%1000)
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// errWriter latches the first write error so the exposition loop stays
// uncluttered.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Write lets an errWriter be handed to extra-series hooks as an io.Writer,
// with the same first-error latching as printf.
func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
