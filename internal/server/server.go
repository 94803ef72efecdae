// Package server turns the batch engine into a long-lived query service.
//
// The paper's engine answers one batch and exits; every invocation re-pays
// PAG loading and jmp-edge warm-up. A resident Server instead keeps the
// frozen graph, the shared jmp store and the cross-query result cache alive
// between requests, so the data sharing of Algorithm 2 compounds across the
// whole process lifetime (and, via internal/snapshot, across restarts).
//
// # Micro-batching
//
// The engine's scheduling win (sched.Schedule grouping queries whose
// traversals overlap) only exists when queries arrive as a batch, but a
// service receives them one at a time. The micro-batcher recovers the
// batch: an admitted request parks in a pending map keyed by query
// variable, and a single dispatcher goroutine waits one batch window for
// stragglers before handing every distinct pending variable to engine.Run
// as one sched-ordered batch. Concurrent requests for the same variable
// coalesce onto one computation — both while queued and while already in
// flight — and every waiter gets the one result.
//
// # Admission control and drain
//
// Admission is bounded: at most QueueDepth distinct variables may be
// pending; beyond that Query fails fast with ErrOverloaded rather than
// letting latency grow without bound. Each waiter honours its context, so a
// deadline expiry returns promptly (the batch still completes and feeds any
// other waiters; nothing leaks — replies go into buffered channels). Close
// stops admission, lets the dispatcher finish every admitted request, and
// only then returns: a drained server has answered everything it accepted.
package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parcfl/internal/engine"
	"parcfl/internal/obs"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
	"parcfl/internal/snapshot"
)

// Errors returned by Query.
var (
	// ErrClosed reports admission after Close.
	ErrClosed = errors.New("server: closed")
	// ErrOverloaded reports admission-control rejection (queue full).
	ErrOverloaded = errors.New("server: overloaded")
	// ErrUnknownVar reports a query for a node the graph does not have.
	ErrUnknownVar = errors.New("server: unknown variable")
	// ErrTooLarge reports a /v1/query request refused before admission: a
	// body over the byte cap, or more variable names than QueueDepth. The
	// HTTP surface maps it to 413.
	ErrTooLarge = errors.New("server: request too large")
)

// Config tunes the resident service. The zero value serves: DQ mode,
// GOMAXPROCS workers, paper-default thresholds, a 2ms batch window and a
// 1024-variable queue.
type Config struct {
	// Mode is the engine mode; zero value Seq is almost never what a
	// service wants, so New defaults it to DQ.
	Mode    engine.Mode
	Threads int
	// Budget is the per-query step budget (0 disables).
	Budget int
	// TauF/TauU select jmp insertion thresholds (0 = paper defaults).
	TauF, TauU int
	// TypeLevels feeds DQ scheduling; nil degrades the heuristic, not
	// correctness.
	TypeLevels []int
	// QueryVars is the application query census, published via Meta (and
	// /v1/vars). Ignored when NewFromSnapshot already carries one.
	QueryVars []pag.NodeID
	// ContextK k-limits call strings.
	ContextK int
	// ResultCache additionally memoises whole result sets across queries.
	ResultCache bool
	// BatchWindow is how long the dispatcher waits after the first pending
	// request for more to coalesce. 0 means 2ms; negative means dispatch
	// immediately (useful in tests).
	BatchWindow time.Duration
	// MaxBatch caps distinct variables per engine.Run (0 means 256).
	MaxBatch int
	// QueueDepth caps distinct pending variables (0 means 1024).
	QueueDepth int
	// Obs receives server and engine metrics (nil disables, as usual).
	Obs *obs.Sink
}

func (c Config) window() time.Duration {
	if c.BatchWindow == 0 {
		return 2 * time.Millisecond
	}
	if c.BatchWindow < 0 {
		return 0
	}
	return c.BatchWindow
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return 256
	}
	return c.MaxBatch
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 1024
	}
	return c.QueueDepth
}

// waiter is one admitted request: a buffered reply slot (the dispatcher's
// send never blocks, so an abandoned waiter cannot leak a goroutine) plus
// its identity and admission time for attribution. The first waiter in a
// pending/inflight list is the request that created the entry — the
// "primary" whose computation every later joiner rides.
type waiter struct {
	seq      int64 // server-assigned request sequence number
	reply    chan answerMsg
	admitted time.Time
}

// answerMsg is what the dispatcher sends each waiter: the result plus the
// batch-side phase stamps (sealed = batch claimed after the window,
// solveStart/solveDone bracket engine.RunMapped) and the identity of the
// batch and of the primary request whose entry carried this variable.
type answerMsg struct {
	result     engine.QueryResult
	primary    int64
	batch      int64
	sealed     time.Time
	solveStart time.Time
	solveDone  time.Time
}

// Timings is one request's phase breakdown, stamped at monotonic points of
// its life: admitted (entry), enqueued (admission done), batch-sealed,
// solve-start, solve-done, replied. For an uncoalesced request the four
// phase durations partition TotalNS exactly; a waiter that joined an
// already-inflight batch clamps QueueWaitNS at 0 (the batch sealed before
// it arrived) so its phases can sum below TotalNS. MarshalNS is filled by
// the HTTP handler (response encoding), outside the partition.
type Timings struct {
	// Seq is this request's sequence number; Primary is the request whose
	// pending/inflight entry computed the answer (== Seq when this request
	// created the entry); Batch is the dispatcher batch that solved it.
	Seq     int64 `json:"seq"`
	Primary int64 `json:"primary"`
	Batch   int64 `json:"batch"`
	// Coalesced reports that this request rode another's computation.
	Coalesced bool `json:"coalesced,omitempty"`

	AdmitNS     int64 `json:"admit_ns"`
	QueueWaitNS int64 `json:"queue_wait_ns"`
	SolveNS     int64 `json:"solve_ns"`
	FanoutNS    int64 `json:"fanout_ns"`
	// MarshalNS is response-encoding time, measured by the HTTP layer.
	MarshalNS int64 `json:"marshal_ns,omitempty"`
	TotalNS   int64 `json:"total_ns"`
}

// Answer is one request's result plus its phase attribution.
type Answer struct {
	Result  engine.QueryResult
	Timings Timings
}

// Stats is the service-level cumulative view served by /v1/stats.
type Stats struct {
	// Requests/Coalesced/Rejected/Timeouts/Batches mirror the obs
	// counters; see their help strings.
	Requests  int64 `json:"requests"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected"`
	Timeouts  int64 `json:"timeouts"`
	Batches   int64 `json:"batches"`
	// Queries is the distinct variables the engine actually solved.
	Queries   int64 `json:"queries"`
	Completed int64 `json:"completed"`
	Aborted   int64 `json:"aborted"`
	// TotalSteps/StepsSaved/JumpsTaken accumulate engine.Stats across all
	// dispatched batches.
	TotalSteps int64 `json:"total_steps"`
	StepsSaved int64 `json:"steps_saved"`
	JumpsTaken int64 `json:"jumps_taken"`
	// EngineNS is wall time spent inside engine.Run.
	EngineNS int64 `json:"engine_ns"`
	// Share/Cache are the live stores' counters (not per-batch deltas).
	Share share.Stats   `json:"share"`
	Cache ptcache.Stats `json:"cache"`
	// StoreEpoch is the jmp store's current epoch.
	StoreEpoch int64 `json:"store_epoch"`
	// Uptime of the server in nanoseconds.
	UptimeNS int64 `json:"uptime_ns"`
}

// Server is the resident solver. Create with New or NewFromSnapshot; all
// methods are safe for concurrent use.
type Server struct {
	cfg   Config
	graph *pag.Graph
	store *share.Store
	cache *ptcache.Cache
	meta  snapshot.Meta
	sink  *obs.Sink
	start time.Time

	// reqSeq mints request sequence numbers (1-based); batchSeq is bumped
	// by the dispatcher alone.
	reqSeq   atomic.Int64
	batchSeq int64

	mu       sync.Mutex
	cond     *sync.Cond // signals the dispatcher: work pending or closing
	pending  map[pag.NodeID][]waiter
	order    []pag.NodeID // FIFO over distinct pending variables
	inflight map[pag.NodeID][]waiter
	closed   bool
	done     chan struct{} // dispatcher exited

	stats struct {
		requests, coalesced, rejected, batches int64
		// timeouts is atomic: recorded on waiter goroutines outside the
		// server lock.
		timeouts                           atomic.Int64
		queries, completed, aborted        int64
		totalSteps, stepsSaved, jumpsTaken int64
		engineNS                           int64
	}
}

// New builds a resident server around a frozen graph, creating a fresh jmp
// store (for sharing modes) and, if configured, a fresh result cache.
func New(g *pag.Graph, cfg Config) *Server {
	return newServer(g, nil, nil, snapshot.Meta{TypeLevels: cfg.TypeLevels}, cfg)
}

// NewFromSnapshot builds a resident server around warm-loaded state: the
// snapshot's graph, jmp store and result cache are used directly, and its
// Meta fills any Config fields the caller left zero (TypeLevels, Budget,
// ContextK) so a warm start replays the settings the state was recorded
// under.
func NewFromSnapshot(s *snapshot.Snapshot, cfg Config) *Server {
	if cfg.TypeLevels == nil {
		cfg.TypeLevels = s.Meta.TypeLevels
	}
	if cfg.Budget == 0 {
		cfg.Budget = s.Meta.Budget
	}
	if cfg.ContextK == 0 {
		cfg.ContextK = s.Meta.ContextK
	}
	return newServer(s.Graph, s.Store, s.Cache, s.Meta, cfg)
}

func newServer(g *pag.Graph, store *share.Store, cache *ptcache.Cache, meta snapshot.Meta, cfg Config) *Server {
	if cfg.Mode == engine.Seq {
		cfg.Mode = engine.DQ
	}
	sharing := cfg.Mode == engine.D || cfg.Mode == engine.DQ
	if store == nil && sharing {
		sc := share.DefaultConfig()
		if cfg.TauF != 0 {
			sc.TauF = max(cfg.TauF, 0)
		}
		if cfg.TauU != 0 {
			sc.TauU = max(cfg.TauU, 0)
		}
		store = share.NewStore(sc)
	}
	if store != nil {
		store.SetObs(cfg.Obs)
	}
	if cache == nil && cfg.ResultCache {
		cache = ptcache.New(64)
	}
	if cache != nil {
		cache.SetObs(cfg.Obs)
	}
	meta.TypeLevels = cfg.TypeLevels
	meta.Budget = cfg.Budget
	meta.ContextK = cfg.ContextK
	if len(meta.QueryVars) == 0 {
		meta.QueryVars = cfg.QueryVars
	}
	s := &Server{
		cfg: cfg, graph: g, store: store, cache: cache, meta: meta,
		sink: cfg.Obs, start: time.Now(),
		pending:  make(map[pag.NodeID][]waiter),
		inflight: make(map[pag.NodeID][]waiter),
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.dispatch()
	return s
}

// Graph returns the resident frozen graph (read-only by convention).
func (s *Server) Graph() *pag.Graph { return s.graph }

// Meta returns the serving metadata (query census, type levels, settings).
func (s *Server) Meta() snapshot.Meta { return s.meta }

// Admission classes recorded in SpanAdmit's C payload.
const (
	admitNew      = 0 // created a fresh pending entry
	admitPending  = 1 // joined an already-queued entry
	admitInflight = 2 // joined an already-dispatched computation
)

// Outcome classes recorded in SpanServe's C payload.
const (
	outcomeSuccess  = 0
	outcomeOverload = 1
	outcomeDeadline = 2
)

// Query answers one points-to query, waiting until the coalesced batch that
// contains it completes or ctx expires. A ctx expiry returns ctx.Err()
// promptly and cleanly: the computation still completes and feeds any other
// waiters on the same variable.
func (s *Server) Query(ctx context.Context, v pag.NodeID) (engine.QueryResult, error) {
	a, err := s.QueryRequest(ctx, v)
	return a.Result, err
}

// ridKey carries a client-minted request ID through the in-process query
// path; the HTTP surface carries it in RequestIDHeader instead.
type ridKey struct{}

// WithRID attaches a request ID to ctx for QueryRequest: at reply time the
// ID exemplars the request's latency bucket (when the sink has exemplars
// enabled), so an in-process caller — the soak harness minting
// <prefix>-<seed>-<n> IDs — joins the same trace lanes and diagnostic
// bundles an HTTP client's X-Parcfl-Request-Id does.
func WithRID(ctx context.Context, rid string) context.Context {
	if rid == "" {
		return ctx
	}
	return context.WithValue(ctx, ridKey{}, rid)
}

// RIDFrom returns the request ID attached by WithRID ("" when none).
func RIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// traceKey carries W3C trace identity (trace id + the server's span id for
// this request) through the in-process query path, the way ridKey carries
// the request ID.
type traceKey struct{}

type traceIDs struct{ traceID, spanID string }

// WithTrace attaches a W3C trace id and the serving span id to ctx; retained
// request traces carry them, so a parcfl trace joins the caller's own
// distributed trace. Empty values are fine (the trace store mints ids for
// untraced requests at retention time).
func WithTrace(ctx context.Context, traceID, spanID string) context.Context {
	if traceID == "" && spanID == "" {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, traceIDs{traceID, spanID})
}

// TraceFrom returns the trace identity attached by WithTrace ("" when none).
func TraceFrom(ctx context.Context) (traceID, spanID string) {
	ids, _ := ctx.Value(traceKey{}).(traceIDs)
	return ids.traceID, ids.spanID
}

// offerTrace assembles this request's phase spans from its reply-time
// timings and offers the completed trace to the attached store. Built from
// the same Timings the caller returns, the serve span's duration IS the
// reply's total_ns — the live trace and the client's reply can never
// disagree. Callers guard on TraceStore() != nil, so a detached sink costs
// the reply path one atomic load and zero allocations.
func (s *Server) offerTrace(ts *obs.TraceStore, ctx context.Context, v pag.NodeID, t Timings, outcome int64, entered time.Time, enteredNS, depth, class int64) {
	rid := RIDFrom(ctx)
	if rid == "" {
		// Match the HTTP handler's fallback mint so both surfaces agree on
		// the rid a trace is stored under.
		rid = "srv-" + strconv.FormatInt(t.Seq, 10)
	}
	traceID, spanID := TraceFrom(ctx)
	baseNS := enteredNS
	if baseNS == 0 {
		// Span tracing off: place the spans on the sink clock from the
		// total, so the export still lines up with any enabled-later spans.
		baseNS = s.sink.Now() - t.TotalNS
		if baseNS < 0 {
			baseNS = 0
		}
	}
	spans := make([]obs.Span, 0, 3)
	if outcome == outcomeSuccess {
		spans = append(spans,
			obs.Span{Kind: obs.SpanAdmit, Worker: obs.NoWorker, T: baseNS, Dur: t.AdmitNS, A: t.Seq, B: depth, C: class},
			obs.Span{Kind: obs.SpanQueueWait, Worker: obs.NoWorker, T: baseNS + t.AdmitNS, Dur: t.QueueWaitNS, A: t.Seq, B: t.Batch},
		)
	}
	spans = append(spans, obs.Span{Kind: obs.SpanServe, Worker: obs.NoWorker, T: baseNS, Dur: t.TotalNS, A: t.Seq, B: t.Primary, C: outcome})
	ts.Offer(obs.ReqTrace{
		RID: rid, TraceID: traceID, SpanID: spanID,
		Seq: t.Seq, Primary: t.Primary, Batch: t.Batch, Outcome: outcome,
		Vars:          []string{s.graph.Node(v).Name},
		StartUnixNano: entered.UnixNano(), TotalNS: t.TotalNS,
		Spans: spans,
	})
}

// QueryRequest is Query plus request identity and phase attribution: the
// returned Answer carries the request's sequence number, the batch that
// solved it, which request's computation it rode, and a per-phase latency
// breakdown. With span tracing enabled, each request also becomes an
// admit → queue_wait → serve lane in the trace export, stamped even when
// the waiter gives up on its deadline mid-batch. A request ID attached via
// WithRID exemplars the latency bucket this request observes into.
func (s *Server) QueryRequest(ctx context.Context, v pag.NodeID) (Answer, error) {
	if v < 0 || int(v) >= s.graph.NumNodes() {
		return Answer{}, ErrUnknownVar
	}
	seq := s.reqSeq.Add(1)
	entered := time.Now()
	enteredNS := s.sink.SpanStart()
	w := waiter{seq: seq, reply: make(chan answerMsg, 1), admitted: entered}

	primary := seq
	class := int64(admitNew)
	var depth int64
	s.mu.Lock()
	switch {
	case s.closed:
		s.stats.rejected++
		s.mu.Unlock()
		s.sink.Add(obs.CtrServerRejected, 1)
		s.sink.Span(obs.SpanServe, obs.NoWorker, enteredNS, seq, seq, outcomeOverload)
		if ts := s.sink.TraceStore(); ts != nil {
			s.offerTrace(ts, ctx, v, Timings{Seq: seq, Primary: seq, TotalNS: time.Since(entered).Nanoseconds()},
				outcomeOverload, entered, enteredNS, 0, admitNew)
		}
		return Answer{}, ErrClosed
	case len(s.inflight[v]) > 0:
		// Already being computed: ride the in-flight batch.
		primary = s.inflight[v][0].seq
		class = admitInflight
		s.inflight[v] = append(s.inflight[v], w)
		s.stats.requests++
		s.stats.coalesced++
		depth = int64(len(s.order))
		s.mu.Unlock()
		s.sink.Add(obs.CtrServerRequests, 1)
		s.sink.Add(obs.CtrServerCoalesced, 1)
	case len(s.pending[v]) > 0:
		// Already queued: join the pending entry.
		primary = s.pending[v][0].seq
		class = admitPending
		s.pending[v] = append(s.pending[v], w)
		s.stats.requests++
		s.stats.coalesced++
		depth = int64(len(s.order))
		s.mu.Unlock()
		s.sink.Add(obs.CtrServerRequests, 1)
		s.sink.Add(obs.CtrServerCoalesced, 1)
	case len(s.order) >= s.cfg.queueDepth():
		s.stats.rejected++
		s.mu.Unlock()
		s.sink.Add(obs.CtrServerRejected, 1)
		s.sink.Span(obs.SpanServe, obs.NoWorker, enteredNS, seq, seq, outcomeOverload)
		if ts := s.sink.TraceStore(); ts != nil {
			s.offerTrace(ts, ctx, v, Timings{Seq: seq, Primary: seq, TotalNS: time.Since(entered).Nanoseconds()},
				outcomeOverload, entered, enteredNS, 0, admitNew)
		}
		return Answer{}, ErrOverloaded
	default:
		s.pending[v] = []waiter{w}
		s.order = append(s.order, v)
		s.stats.requests++
		depth = int64(len(s.order))
		s.cond.Signal()
		s.mu.Unlock()
		s.sink.Add(obs.CtrServerRequests, 1)
		s.sink.SetGauge(obs.GaugeServerQueueDepth, depth)
	}
	admitDone := time.Now()
	s.sink.Span(obs.SpanAdmit, obs.NoWorker, enteredNS, seq, depth, class)

	select {
	case msg := <-w.reply:
		replied := time.Now()
		t := Timings{
			Seq: seq, Primary: msg.primary, Batch: msg.batch,
			Coalesced:   class != admitNew,
			AdmitNS:     admitDone.Sub(entered).Nanoseconds(),
			QueueWaitNS: max64(msg.solveStart.Sub(admitDone).Nanoseconds(), 0),
			SolveNS:     msg.solveDone.Sub(msg.solveStart).Nanoseconds(),
			FanoutNS:    replied.Sub(msg.solveDone).Nanoseconds(),
			TotalNS:     replied.Sub(entered).Nanoseconds(),
		}
		s.sink.Observe(obs.HistServerLatencyNS, t.TotalNS)
		if rid := RIDFrom(ctx); rid != "" {
			s.sink.Exemplar(obs.HistServerLatencyNS, t.TotalNS, rid, seq)
		}
		if s.sink.SpanTracing() {
			admitDoneNS := enteredNS + t.AdmitNS
			s.sink.SpanAt(obs.SpanQueueWait, obs.NoWorker, admitDoneNS, t.QueueWaitNS, seq, msg.batch, 0)
			s.sink.SpanAt(obs.SpanServe, obs.NoWorker, enteredNS, t.TotalNS, seq, msg.primary, outcomeSuccess)
		}
		if ts := s.sink.TraceStore(); ts != nil {
			s.offerTrace(ts, ctx, v, t, outcomeSuccess, entered, enteredNS, depth, class)
		}
		return Answer{Result: msg.result, Timings: t}, nil
	case <-ctx.Done():
		// The replied stamp for an abandoned waiter: its serve span closes
		// here with the deadline outcome, so traced lanes are never
		// truncated even when the batch finishes after we are gone.
		s.stats.timeouts.Add(1)
		s.sink.Add(obs.CtrServerTimeouts, 1)
		s.sink.Span(obs.SpanServe, obs.NoWorker, enteredNS, seq, primary, outcomeDeadline)
		if ts := s.sink.TraceStore(); ts != nil {
			s.offerTrace(ts, ctx, v, Timings{Seq: seq, Primary: primary, Coalesced: class != admitNew,
				TotalNS: time.Since(entered).Nanoseconds()}, outcomeDeadline, entered, enteredNS, depth, class)
		}
		return Answer{}, ctx.Err()
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// QueryBatch answers several variables, admitting all of them up front (so
// they coalesce into the same dispatch) and waiting for every answer.
// Results are positional: out[i] answers vars[i]. The first admission or
// wait error aborts the call.
func (s *Server) QueryBatch(ctx context.Context, vars []pag.NodeID) ([]engine.QueryResult, error) {
	as, err := s.QueryBatchAnswers(ctx, vars)
	if err != nil {
		return nil, err
	}
	out := make([]engine.QueryResult, len(as))
	for i, a := range as {
		out[i] = a.Result
	}
	return out, nil
}

// QueryBatchAnswers is QueryBatch returning full Answers (timings included).
func (s *Server) QueryBatchAnswers(ctx context.Context, vars []pag.NodeID) ([]Answer, error) {
	out := make([]Answer, len(vars))
	errs := make([]error, len(vars))
	var wg sync.WaitGroup
	for i, v := range vars {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = s.QueryRequest(ctx, v)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dispatch is the micro-batcher: one goroutine that turns the pending map
// into sched-ordered engine batches.
func (s *Server) dispatch() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.order) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.order) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()

		windowNS := s.sink.SpanStart()

		// Batch window: let concurrent arrivals pile up so the scheduler
		// has a real batch to group. Skipped when closing — drain fast.
		if w := s.cfg.window(); w > 0 {
			s.mu.Lock()
			closing := s.closed
			s.mu.Unlock()
			if !closing {
				time.Sleep(w)
			}
		}

		// Claim up to maxBatch distinct variables FIFO, moving their
		// waiter lists pending→inflight so late arrivals for the same
		// variables attach to this computation.
		s.batchSeq++
		batchSeq := s.batchSeq
		s.mu.Lock()
		n := min(len(s.order), s.cfg.maxBatch())
		batch := make([]pag.NodeID, n)
		copy(batch, s.order[:n])
		s.order = s.order[n:]
		sealed := time.Now()
		primaries := make([]int64, n)
		for i, v := range batch {
			s.inflight[v] = s.pending[v]
			primaries[i] = s.pending[v][0].seq
			delete(s.pending, v)
		}
		s.stats.batches++
		depth := int64(len(s.order))
		s.mu.Unlock()

		s.sink.Add(obs.CtrServerBatches, 1)
		s.sink.SetGauge(obs.GaugeServerQueueDepth, depth)
		s.sink.SetGauge(obs.GaugeServerInflight, int64(n))
		s.sink.Observe(obs.HistServerBatchSize, int64(n))

		solveStart := time.Now()
		results, mapping, stats := engine.RunMapped(s.graph, batch, engine.Config{
			Mode: s.cfg.Mode, Threads: s.cfg.Threads, Budget: s.cfg.Budget,
			TauF: s.cfg.TauF, TauU: s.cfg.TauU, TypeLevels: s.cfg.TypeLevels,
			Store: s.store, Cache: s.cache, ResultCache: s.cache != nil,
			ContextK: s.cfg.ContextK, Obs: s.sink,
			Tag: batchSeq,
		})
		solveDone := time.Now()

		// Fan out, then retire the in-flight entries. Replies are buffered
		// size-1 channels with exactly one send each: never blocks, even
		// for waiters that already gave up.
		s.mu.Lock()
		for i, v := range batch {
			msg := answerMsg{
				result: results[mapping[i]], primary: primaries[i], batch: batchSeq,
				sealed: sealed, solveStart: solveStart, solveDone: solveDone,
			}
			for _, w := range s.inflight[v] {
				s.sink.Observe(obs.HistServerWaitNS, sealed.Sub(w.admitted).Nanoseconds())
				w.reply <- msg
			}
			delete(s.inflight, v)
		}
		s.stats.queries += int64(stats.Queries)
		s.stats.completed += int64(stats.Completed)
		s.stats.aborted += int64(stats.Aborted)
		s.stats.totalSteps += stats.TotalSteps
		s.stats.stepsSaved += stats.StepsSaved
		s.stats.jumpsTaken += stats.JumpsTaken
		s.stats.engineNS += stats.Wall.Nanoseconds()
		s.mu.Unlock()
		s.sink.SetGauge(obs.GaugeServerInflight, 0)
		s.sink.Span(obs.SpanBatchWindow, obs.NoWorker, windowNS, batchSeq, int64(n), depth)
	}
}

// Close stops admission and drains: every request admitted before Close
// gets its answer before Close returns. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if !wasClosed {
		<-s.done
		return
	}
	<-s.done
}

// Stats returns the cumulative service view.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	out := Stats{
		Requests: s.stats.requests, Coalesced: s.stats.coalesced,
		Rejected: s.stats.rejected, Batches: s.stats.batches,
		Queries: s.stats.queries, Completed: s.stats.completed,
		Aborted: s.stats.aborted, TotalSteps: s.stats.totalSteps,
		StepsSaved: s.stats.stepsSaved, JumpsTaken: s.stats.jumpsTaken,
		EngineNS: s.stats.engineNS,
	}
	s.mu.Unlock()
	out.Timeouts = s.stats.timeouts.Load()
	out.UptimeNS = time.Since(s.start).Nanoseconds()
	if s.store != nil {
		out.Share = s.store.Snapshot()
		out.StoreEpoch = s.store.Epoch()
	}
	if s.cache != nil {
		out.Cache = s.cache.Snapshot()
	}
	return out
}

// Snapshot captures the resident state for persistence. Taken live: entries
// inserted by a batch racing the save may or may not be included, which is
// safe (they are pure accelerators).
func (s *Server) Snapshot(label string) *snapshot.Snapshot {
	meta := s.meta
	meta.Label = label
	meta.CreatedUnixNano = time.Now().UnixNano()
	return &snapshot.Snapshot{Graph: s.graph, Store: s.store, Cache: s.cache, Meta: meta}
}

// SaveSnapshot atomically persists the resident state to path.
func (s *Server) SaveSnapshot(path, label string) error {
	return snapshot.Save(path, s.Snapshot(label))
}
