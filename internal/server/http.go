package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"parcfl/internal/engine"
	"parcfl/internal/obs"
	"parcfl/internal/pag"
)

// RequestIDHeader carries the client-minted request ID. The server echoes
// it on the response (minting one from the primary request sequence when
// the client sent none) and returns it in the reply body, so a slow
// response can be joined to its daemon-side trace lane and log lines.
const RequestIDHeader = "X-Parcfl-Request-Id"

// HTTP/JSON surface of the resident server. Variables travel by name
// ("v3main") with decimal node IDs accepted as a fallback; objects come
// back as names. The wire types live here and in the client package-side
// functions below so cmd/parcflq and tests share one schema.

// maxQueryBody caps a /v1/query body in bytes. A request within the default
// 1024-variable queue depth needs a few tens of KiB, so the cap only ever
// refuses bodies no admissible request could produce.
const maxQueryBody = 1 << 20

// maxSnapshotBody caps a /v1/snapshot body in bytes. The endpoint takes no
// parameters, so any body but an empty JSON object is refused anyway; the
// cap only bounds how much of one the daemon reads first.
const maxSnapshotBody = 1 << 10

// QuerySpec is the body of POST /v1/query: one variable or a batch.
type QuerySpec struct {
	// Var queries a single variable; Vars a batch. Exactly one of the two
	// should be set.
	Var  string   `json:"var,omitempty"`
	Vars []string `json:"vars,omitempty"`
	// TimeoutMS bounds the wait server-side (0 means the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// VarResult is one variable's answer on the wire.
type VarResult struct {
	Var      string   `json:"var"`
	Objects  []string `json:"objects"`
	Contexts int      `json:"contexts"`
	Aborted  bool     `json:"aborted,omitempty"`
	Steps    int      `json:"steps"`
	// Timings is the per-request phase breakdown (see server.Timings).
	Timings *Timings `json:"timings,omitempty"`
}

// QueryReply is the body of a /v1/query response.
type QueryReply struct {
	// RequestID echoes the client's X-Parcfl-Request-Id (or the
	// server-minted fallback). The per-variable server-side sequence
	// numbers live in each result's timings.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the W3C trace id this request was served under — the
	// client's traceparent trace id when one was forwarded, a server-minted
	// one otherwise. The response's traceparent header carries the full
	// version-00 value with the server's span id.
	TraceID string      `json:"trace_id,omitempty"`
	Results []VarResult `json:"results"`
}

// SnapshotReply reports where the snapshot landed.
type SnapshotReply struct {
	Path string `json:"path"`
}

// VarsReply is the body of GET /v1/vars.
type VarsReply struct {
	Vars []string `json:"vars"`
}

type errorReply struct {
	Error string `json:"error"`
}

// HandlerConfig wires the HTTP surface.
type HandlerConfig struct {
	// SnapshotPath is the only destination /v1/snapshot writes to (the
	// endpoint answers 400 when it is empty).
	SnapshotPath string
	// DefaultTimeout bounds queries that do not set timeout_ms (0 means
	// 30s).
	DefaultTimeout time.Duration
	// RetryAfter is the back-off hint sent with 429 responses (Retry-After
	// header, whole seconds, rounded up; 0 means 1s). One batch window is
	// usually enough for the queue to drain, so the default is deliberately
	// short.
	RetryAfter time.Duration
	// SlowLog, when positive, logs every /v1/query slower than it —
	// request ID, variables and phase breakdown — to the standard logger.
	SlowLog time.Duration
	// Fallback, when non-nil, serves any path the API does not claim
	// (e.g. obs.Handler for /metrics and /debug/*).
	Fallback http.Handler
}

func (c HandlerConfig) timeout() time.Duration {
	if c.DefaultTimeout <= 0 {
		return 30 * time.Second
	}
	return c.DefaultTimeout
}

// retryAfterSeconds renders the 429 hint as the integer seconds the header
// requires, never below 1 (a "Retry-After: 0" invites an immediate retry
// storm from naive clients).
func (c HandlerConfig) retryAfterSeconds() int {
	d := c.RetryAfter
	if d <= 0 {
		d = time.Second
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// apiHandler binds a Server to the HTTP surface.
type apiHandler struct {
	srv    *Server
	cfg    HandlerConfig
	byName map[string]pag.NodeID
}

// NewHandler returns the daemon's HTTP handler: /v1/query, /v1/stats,
// /v1/snapshot and /v1/vars, with everything else delegated to
// cfg.Fallback.
func NewHandler(srv *Server, cfg HandlerConfig) http.Handler {
	h := &apiHandler{srv: srv, cfg: cfg, byName: make(map[string]pag.NodeID)}
	g := srv.Graph()
	// First-name-wins matches the repl's lookup table; names are unique
	// for query variables in practice.
	for id := 0; id < g.NumNodes(); id++ {
		if name := g.Node(pag.NodeID(id)).Name; name != "" {
			if _, ok := h.byName[name]; !ok {
				h.byName[name] = pag.NodeID(id)
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", h.handleQuery)
	mux.HandleFunc("/v1/stats", h.handleStats)
	mux.HandleFunc("/v1/snapshot", h.handleSnapshot)
	mux.HandleFunc("/v1/vars", h.handleVars)
	if cfg.Fallback != nil {
		mux.Handle("/", cfg.Fallback)
	}
	return mux
}

func (h *apiHandler) resolve(name string) (pag.NodeID, bool) {
	if id, ok := h.byName[name]; ok {
		return id, true
	}
	if n, err := strconv.Atoi(name); err == nil && n >= 0 && n < h.srv.Graph().NumNodes() {
		return pag.NodeID(n), true
	}
	return 0, false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorReply{Error: err.Error()})
}

func (h *apiHandler) toWire(r engine.QueryResult) VarResult {
	g := h.srv.Graph()
	objs := make([]string, len(r.Objects))
	for i, o := range r.Objects {
		objs[i] = g.Node(o).Name
	}
	return VarResult{
		Var: g.Node(r.Var).Name, Objects: objs, Contexts: r.Contexts,
		Aborted: r.Aborted, Steps: r.Steps,
	}
}

func (h *apiHandler) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var spec QuerySpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxQueryBody)).Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%w: body exceeds %d bytes", ErrTooLarge, mbe.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	names := spec.Vars
	if spec.Var != "" {
		names = append([]string{spec.Var}, names...)
	}
	if len(names) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("no var(s) given"))
		return
	}
	// Refuse before resolving: the queue depth bounds how many variables
	// may wait at once, so it bounds one request's names too, and an
	// oversized request costs no lookups.
	if depth := h.srv.cfg.queueDepth(); len(names) > depth {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("%w: %d vars exceed the queue depth %d", ErrTooLarge, len(names), depth))
		return
	}
	vars := make([]pag.NodeID, len(names))
	for i, name := range names {
		id, ok := h.resolve(name)
		if !ok {
			writeErr(w, http.StatusNotFound, errors.New("unknown variable "+name))
			return
		}
		vars[i] = id
	}
	timeout := h.cfg.timeout()
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	rid := r.Header.Get(RequestIDHeader)
	// W3C trace propagation: continue the caller's trace under a fresh
	// server span id, or mint a whole trace when the caller sent none (or
	// sent garbage — malformed traceparent values must not propagate). The
	// response always echoes the full value, so even an untraced caller
	// learns the id its retained trace is filed under.
	tp, traced := obs.ParseTraceParent(r.Header.Get(obs.TraceParentHeader))
	if traced {
		tp.SpanID = obs.MintSpanID()
	} else {
		tp = obs.MintTraceParent()
	}
	w.Header().Set(obs.TraceParentHeader, tp.String())
	ctx = WithRID(ctx, rid)
	ctx = WithTrace(ctx, tp.TraceID, tp.SpanID)
	answers, err := h.srv.QueryBatchAnswers(ctx, vars)
	if err != nil {
		status := http.StatusInternalServerError
		class := obs.ClassError
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status = http.StatusGatewayTimeout
			class = obs.ClassDeadline
		case errors.Is(err, ErrOverloaded):
			status = http.StatusTooManyRequests
			class = obs.ClassOverload
			// Admission rejections are transient (the queue drains on the
			// next batch); tell well-behaved clients when to come back.
			w.Header().Set("Retry-After", strconv.Itoa(h.cfg.retryAfterSeconds()))
		case errors.Is(err, ErrClosed):
			// Intentional shedding while draining, same as overload for
			// SLO purposes: the server is protecting itself, not failing.
			status = http.StatusServiceUnavailable
			class = obs.ClassOverload
		}
		if rid != "" {
			w.Header().Set(RequestIDHeader, rid)
		}
		h.srv.sink.SLO().Record(class, time.Since(start).Nanoseconds())
		writeErr(w, status, err)
		return
	}
	// Wire conversion is the marshal phase: it is what stands between
	// solve-done fan-out and bytes on the socket, and it scales with the
	// points-to set sizes being rendered.
	mStart := time.Now()
	reply := QueryReply{Results: make([]VarResult, len(answers))}
	for i, a := range answers {
		reply.Results[i] = h.toWire(a.Result)
	}
	marshalNS := time.Since(mStart).Nanoseconds()
	for i, a := range answers {
		t := a.Timings
		t.MarshalNS = marshalNS
		reply.Results[i].Timings = &t
	}
	if rid == "" {
		rid = "srv-" + strconv.FormatInt(answers[0].Timings.Seq, 10)
	}
	w.Header().Set(RequestIDHeader, rid)
	reply.RequestID = rid
	reply.TraceID = tp.TraceID
	// Exemplar the request's latency bucket with its ID: the value is the
	// same TotalNS the server already Observe()d for this request, so the
	// exemplar lands in exactly the bucket this request incremented — and
	// its seq names the "req N" lane in the trace export. No-op (and
	// alloc-free) unless the sink has exemplars enabled.
	h.srv.sink.Exemplar(obs.HistServerLatencyNS, answers[0].Timings.TotalNS, rid, answers[0].Timings.Seq)
	total := time.Since(start)
	h.srv.sink.SLO().Record(obs.ClassSuccess, total.Nanoseconds())
	if h.cfg.SlowLog > 0 && total > h.cfg.SlowLog {
		var names2 []string
		for _, res := range reply.Results {
			names2 = append(names2, res.Var)
		}
		t0 := answers[0].Timings
		log.Printf("parcfld: slow query rid=%s vars=%s total=%s seq=%d batch=%d admit=%s queue=%s solve=%s fanout=%s marshal=%s",
			rid, strings.Join(names2, ","), total, t0.Seq, t0.Batch,
			time.Duration(t0.AdmitNS), time.Duration(t0.QueueWaitNS),
			time.Duration(t0.SolveNS), time.Duration(t0.FanoutNS),
			time.Duration(t0.MarshalNS))
	}
	writeJSON(w, http.StatusOK, reply)
}

func (h *apiHandler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.srv.Stats())
}

func (h *apiHandler) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	// The body is empty or an empty JSON object: clients cannot choose
	// where the daemon writes, so a body naming a path (or anything else)
	// is refused before any file is touched.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSnapshotBody))
	dec.DisallowUnknownFields()
	var spec struct{}
	if err := dec.Decode(&spec); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	path := h.cfg.SnapshotPath
	if path == "" {
		writeErr(w, http.StatusBadRequest, errors.New("no snapshot path configured"))
		return
	}
	if err := h.srv.SaveSnapshot(path, "api"); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, SnapshotReply{Path: path})
}

func (h *apiHandler) handleVars(w http.ResponseWriter, r *http.Request) {
	g := h.srv.Graph()
	meta := h.srv.Meta()
	names := make([]string, 0, len(meta.QueryVars))
	for _, v := range meta.QueryVars {
		names = append(names, g.Node(v).Name)
	}
	writeJSON(w, http.StatusOK, VarsReply{Vars: names})
}
