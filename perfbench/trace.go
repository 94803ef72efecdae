package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a layer.
// Spans of one request share Req; Parent is the parent span's id (0 for a
// root).
type span struct {
	ID     int
	Parent int
	Name   string
	Req    string
	Lane   int
	Start  time.Duration // since the run started
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records [start, end] and returns the span's id (0 on a nil tracer).
func (t *tracer) add(parent int, name, req string, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Lane: lane,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return id
}

// writeChrome writes the spans as Chrome trace-event JSON (one complete
// "X" event per span, lanes as threads), loadable in Perfetto.
func (t *tracer) writeChrome(path, process string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Req != "" {
			args["req"] = s.Req
		}
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Lane, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover (children never overlap one another here).
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
	}
	return self
}

// layerTable renders the per-layer metrics of one traced run next to the
// end-to-end metric each should move, followed by free-form sections.
func layerTable(w workload, layer map[string]float64, t *tracer, sections []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# per-layer metrics, workload %s\n", w.name)
	fmt.Fprintf(&b, "%-32s %14s %-8s %s\n", "metric", "value", "unit", "should move")
	for _, m := range perLayer {
		fmt.Fprintf(&b, "%-32s %14.4f %-8s %s\n", m.name, layer[m.name], m.unit, m.moves)
	}
	if t != nil {
		self := t.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "\n# span self time (duration minus children), summed over the run\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%-32s %14.3f ms\n", n, ms(self[n]))
		}
	}
	for _, s := range sections {
		b.WriteString("\n")
		b.WriteString(s)
	}
	return b.String()
}
