package obs

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
)

// Chrome trace-event JSON export of the recorded spans, loadable in
// Perfetto (https://ui.perfetto.dev) and chrome://tracing. Each worker
// goroutine maps to one trace "thread": tid 1 is the shared "engine" track
// (batch/schedule phases, store insertions), tid 2+w is worker w. Spans
// become "complete" (ph=X) events — the viewers nest them by time
// containment, reproducing the query → traversal call structure — and
// instants become thread-scoped ph=i markers.

// TraceEvent is one exported trace-event record. Timestamps and durations
// are microseconds, per the trace-event spec.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the root object of the exported JSON ("JSON Object Format"
// of the trace-event spec).
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	// SpansDropped reports spans lost to full buffers (extra keys are
	// allowed and preserved by the viewers).
	SpansDropped int64 `json:"parcflSpansDropped"`
}

// Lanes. Engine-side spans keep the original single process (pid 1, one
// thread per worker); server request-lifecycle spans get their own
// "parcfl-requests" process where every request sequence number is a
// thread, so a request's admit → queue_wait → serve phases stack into one
// Perfetto lane; the dispatcher's batch-anatomy spans get a third
// "parcfl-batcher" process.
const (
	tracePid         = 1
	traceRequestsPid = 2
	traceBatcherPid  = 3
)

// spanArgNames maps each span kind's A/B/C payloads to argument names; an
// empty name omits the argument.
var spanArgNames = [NumSpanKinds][3]string{
	SpRun:           {"queries", "units", "batch"},
	SpWorker:        {"units", "queries", "steps_walked"},
	SpUnit:          {"unit", "size", ""},
	SpQuery:         {"var", "steps", "jumps_taken"},
	SpCompPts:       {"node", "steps", "ctx_depth"},
	SpCompFls:       {"node", "steps", "ctx_depth"},
	SpSchedule:      {"groups", "", ""},
	SpSchedGroup:    {"components", "", ""},
	SpSchedOrder:    {"groups", "", ""},
	SpSchedBalance:  {"groups", "", ""},
	SpRefinePass:    {"var", "pass", "approx_fields"},
	SpIncUpdate:     {"edges_added", "edges_removed", ""},
	SpanAdmit:       {"req", "queue_depth", "admit_class"},
	SpanQueueWait:   {"req", "batch", ""},
	SpanBatchWindow: {"batch", "vars", "pending_left"},
	SpanServe:       {"req", "primary", "outcome"},
	SpJmpTake:       {"node", "steps_saved", ""},
	SpEarlyTerm:     {"node", "required_budget", ""},
	SpJmpInsert:     {"node", "cost", ""},
}

func spanTid(worker int32) int64 {
	if worker < 0 {
		return 1 // shared "engine" track
	}
	return 2 + int64(worker)
}

// spanLane places a span on its (process, thread) lane and names the
// thread. Request-lifecycle spans lane by request sequence (their A
// payload); batch-anatomy spans share one batcher lane; everything else
// keeps the engine/worker layout.
func spanLane(sp Span) (pid, tid int64, thread string) {
	switch sp.Kind {
	case SpanAdmit, SpanQueueWait, SpanServe:
		return traceRequestsPid, sp.A, "req " + strconv.FormatInt(sp.A, 10)
	case SpanBatchWindow:
		return traceBatcherPid, 1, "batcher"
	}
	if sp.Worker < 0 {
		return tracePid, 1, "engine"
	}
	return tracePid, spanTid(sp.Worker), "worker " + strconv.Itoa(int(sp.Worker))
}

var tracePidNames = map[int64]string{
	tracePid:         "parcfl",
	traceRequestsPid: "parcfl-requests",
	traceBatcherPid:  "parcfl-batcher",
}

// TraceEvents converts the sink's recorded spans (see Spans) into
// trace-event records, metadata included, and merges the attached flight
// recorder's history as counter tracks (ph=C) on the same clock — spans and
// time-series render on one Perfetto timeline. Call it quiesced, like Spans.
func TraceEvents(s *Sink) TraceFile {
	spans, dropped := s.Spans()
	tf := TraceFile{DisplayTimeUnit: "ms", SpansDropped: dropped}
	// Name each process and thread lazily, at its first event.
	tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
		Name: "process_name", Ph: "M", Pid: tracePid, Tid: 1,
		Args: map[string]any{"name": tracePidNames[tracePid]},
	})
	namedPids := map[int64]bool{tracePid: true}
	namedTids := map[[2]int64]bool{}
	for _, sp := range spans {
		pid, tid, thread := spanLane(sp)
		if !namedPids[pid] {
			namedPids[pid] = true
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
				Args: map[string]any{"name": tracePidNames[pid]},
			})
		}
		if lane := [2]int64{pid, tid}; !namedTids[lane] {
			namedTids[lane] = true
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": thread},
			})
		}
		tf.TraceEvents = append(tf.TraceEvents, spanEvent(sp, pid, tid))
	}
	if rec := s.FlightRecorder(); rec != nil {
		ts := rec.Snapshot()
		for _, p := range ts.Points {
			for i, name := range ts.Series {
				tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
					Name: name, Cat: "parcfl-fr", Ph: "C",
					Pid:  tracePid,
					Ts:   float64(p.TNS) / 1e3,
					Args: map[string]any{"value": p.V[i]},
				})
			}
		}
	}
	if tf.TraceEvents == nil {
		tf.TraceEvents = []TraceEvent{}
	}
	return tf
}

// spanEvent converts one span into its trace-event record on lane
// (pid, tid), mapping the A/B/C payloads to named arguments.
func spanEvent(sp Span, pid, tid int64) TraceEvent {
	ev := TraceEvent{
		Name: sp.Kind.String(),
		Cat:  "parcfl",
		Pid:  pid,
		Tid:  tid,
		Ts:   float64(sp.T) / 1e3,
	}
	if sp.Kind.Instant() {
		ev.Ph = "i"
		ev.S = "t"
	} else {
		ev.Ph = "X"
		if sp.Dur > 0 {
			ev.Dur = float64(sp.Dur) / 1e3
		}
	}
	names := spanArgNames[sp.Kind]
	vals := [3]int64{sp.A, sp.B, sp.C}
	for i, n := range names {
		if n == "" {
			continue
		}
		if ev.Args == nil {
			ev.Args = make(map[string]any, 3)
		}
		ev.Args[n] = vals[i]
	}
	return ev
}

// RequestTraceEvents converts one retained request trace into a standalone
// Perfetto trace file: the request's phase spans on its "req N" lane in the
// parcfl-requests process, with identity (rid, W3C trace/span ids, queried
// variables, retention policy) attached as arguments on the serve span so
// the viewer shows who the trace belongs to. The serve span's duration is
// the reply's total_ns by construction — the trace and the reply the client
// saw can never disagree.
func RequestTraceEvents(t ReqTrace) TraceFile {
	tf := TraceFile{DisplayTimeUnit: "ms"}
	tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
		Name: "process_name", Ph: "M", Pid: traceRequestsPid, Tid: 1,
		Args: map[string]any{"name": tracePidNames[traceRequestsPid]},
	})
	namedTids := map[[2]int64]bool{}
	for _, sp := range t.Spans {
		pid, tid, thread := spanLane(sp)
		if lane := [2]int64{pid, tid}; !namedTids[lane] {
			namedTids[lane] = true
			tf.TraceEvents = append(tf.TraceEvents, TraceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": thread},
			})
		}
		ev := spanEvent(sp, pid, tid)
		if sp.Kind == SpanServe {
			if ev.Args == nil {
				ev.Args = make(map[string]any, 8)
			}
			ev.Args["rid"] = t.RID
			ev.Args["trace_id"] = t.TraceID
			ev.Args["span_id"] = t.SpanID
			ev.Args["outcome_name"] = OutcomeName(t.Outcome)
			ev.Args["policy"] = t.Policy
			if len(t.Vars) > 0 {
				ev.Args["vars"] = t.Vars
			}
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	return tf
}

// WriteTraceEvents writes the sink's spans as Chrome trace-event JSON.
func WriteTraceEvents(w io.Writer, s *Sink) error {
	enc := json.NewEncoder(w)
	return enc.Encode(TraceEvents(s))
}

// WriteTraceFile writes the sink's spans as Chrome trace-event JSON to
// path, creating or truncating it.
func WriteTraceFile(path string, s *Sink) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTraceEvents(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
