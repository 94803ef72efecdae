// Package cfl implements demand-driven, context- and field-sensitive pointer
// analysis as CFL-reachability over a PAG, following Algorithm 1 of the paper
// (the sequential solver) and Algorithm 2 (the data-sharing variant that
// records and takes jmp shortcut edges).
//
// The languages involved are L_FS (field-sensitivity, Eq. 2: st(f)/ld(f)
// matched as balanced parentheses through an alias test) intersected with
// R_CS (context-sensitivity, Eq. 3: param_i/ret_i matched as balanced call
// parentheses, with partially balanced prefixes allowed when the context is
// empty). PointsTo answers "which (object, context) pairs flow to this
// variable"; FlowsTo is its inverse.
//
// # Recursive alias resolution
//
// Algorithm 1 calls PointsTo, FlowsTo and ReachableNodes mutually
// recursively; on real programs these recursions cycle (e.g. p = p.next).
// As written in the paper the pseudo-code would not terminate on such
// cycles; practical implementations memoise per-query results. We make the
// memoisation explicit: each (direction, node, context) traversal is a
// "computation" with a monotonically growing result set. A computation that
// re-enters itself observes its current partial set; whenever a set grows,
// computations that consulted it are marked dirty and re-evaluated until a
// query-local fixpoint is reached. At that fixpoint every completed query's
// answer equals the exact CFL-reachability answer, which is what makes the
// parallel modes testable against the sequential one.
//
// # Budgets
//
// Each query carries a step budget B (paper: 75,000); every first visit of a
// (node, context) pair costs one step. Overrunning the budget aborts the
// query ("out of budget"), returning its partial result marked Aborted.
// With data sharing enabled, taking a finished jmp shortcut charges the
// recorded step cost (keeping budget accounting aligned with an unshared
// run), and meeting an unfinished jmp whose cost exceeds the remaining
// budget aborts immediately — the paper's "early termination".
package cfl

import (
	"parcfl/internal/obs"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
)

// Approx is a field-matching approximation policy, the mechanism behind the
// refinement-based configuration of Sridharan-Bodik (PLDI'06), which the
// paper cites as the alternate configuration of its sequential baseline.
// A field that is not "precise" is matched regularly: a load x = p.f is
// assumed to see every store q.f = y in the program, skipping the alias
// check entirely (an over-approximation that is much cheaper to compute).
// Refinement re-runs a query with more fields made precise until the client
// is satisfied; see package refine.
type Approx struct {
	// Precise lists the fields that must be matched exactly (with the
	// full alias check). All other fields are approximated.
	Precise map[pag.FieldID]bool
}

// precise reports whether field f requires exact matching under the policy
// (nil policy = everything precise).
func (a *Approx) precise(f pag.FieldID) bool {
	return a == nil || a.Precise[f]
}

// Config configures a Solver.
type Config struct {
	// Budget is the per-query step budget B; 0 disables budgeting.
	Budget int
	// Share, when non-nil, enables the data-sharing scheme of
	// Algorithm 2 backed by this store. The store may be shared by many
	// Solvers (one per worker goroutine) concurrently.
	Share *share.Store
	// Approx, when non-nil, relaxes field matching (refinement support).
	// Incompatible with Share: jmp entries recorded under different
	// approximation policies would be unsound to exchange.
	Approx *Approx
	// Cache, when non-nil, shares entire memoised traversal results
	// across queries (the "ad-hoc caching" of the sequential
	// implementations the paper builds on). Like Share, it may be used
	// by many solvers concurrently, and is incompatible with Approx.
	Cache *ptcache.Cache
	// ContextK, when positive, k-limits call strings: context pushes keep
	// only the newest K call sites (a sound over-approximation). Besides
	// trading precision for speed, a finite K guarantees termination even
	// on graphs whose recursive call cycles were not collapsed. 0 means
	// unlimited (the paper's configuration — it relies on recursion
	// collapsing instead).
	ContextK int
	// Obs, when non-nil with span tracing enabled, receives a span per
	// memoised traversal scan (direction, node, context depth, steps
	// consumed) and instant events for jmp shortcuts taken and early
	// terminations. A nil sink costs one pointer check per hook.
	Obs *obs.Sink
	// Profile enables per-query budget attribution: every Result carries a
	// Prof breakdown whose summed steps equal Result.Steps exactly. Off,
	// the hooks cost one nil check each and allocate nothing.
	Profile bool
	// Worker attributes this solver's spans to an engine worker track;
	// use obs.NoWorker for solvers running outside a worker pool.
	Worker int32
}

// Solver answers points-to and flows-to queries on one frozen PAG. A Solver
// is stateless between queries apart from its configuration; it is cheap and
// any number of Solvers over the same graph may run concurrently. A single
// Solver must not be used from two goroutines at once.
type Solver struct {
	g   *pag.Graph
	cfg Config
}

// New creates a solver over a frozen graph.
func New(g *pag.Graph, cfg Config) *Solver {
	if !g.Frozen() {
		panic("cfl: solver over unfrozen graph")
	}
	if cfg.Share != nil && cfg.Approx != nil {
		panic("cfl: data sharing cannot be combined with field approximation")
	}
	if cfg.Cache != nil && cfg.Approx != nil {
		panic("cfl: result caching cannot be combined with field approximation")
	}
	return &Solver{g: g, cfg: cfg}
}

// Graph returns the solver's PAG.
func (s *Solver) Graph() *pag.Graph { return s.g }

// Result is the outcome of one query.
type Result struct {
	// Node and Ctx echo the query.
	Node pag.NodeID
	Ctx  pag.Context
	// PointsTo holds, for a PointsTo query, the (object, context) pairs
	// found; for a FlowsTo query, the (variable, context) pairs reached.
	// If Aborted, the set is the partial result at abort time.
	PointsTo []pag.NodeCtx
	// Aborted reports the query ran out of budget.
	Aborted bool
	// EarlyTerminated reports the abort was triggered by an unfinished
	// jmp edge (a paper "ET") rather than plain budget exhaustion.
	EarlyTerminated bool
	// Steps is the number of budget steps consumed (including steps
	// charged for jmp shortcuts taken).
	Steps int
	// JumpsTaken counts finished jmp shortcuts taken.
	JumpsTaken int
	// StepsSaved is the total step cost of those shortcuts — graph
	// traversal work this query did not have to redo.
	StepsSaved int
	// ApproxFields lists the fields whose regular (approximate) matching
	// contributed to this result, in first-use order. Non-empty only
	// under an Approx policy; refinement clients use it to decide what
	// to make precise next.
	ApproxFields []pag.FieldID
	// Prof is the per-step budget attribution (nil unless Config.Profile).
	// Prof.Sum() == int64(Steps) — the conservation invariant.
	Prof *Attribution
}

// Objects projects the result set onto allocation sites, dropping contexts
// and duplicates, in first-seen order.
func (r Result) Objects() []pag.NodeID {
	seen := make(map[pag.NodeID]struct{}, len(r.PointsTo))
	out := make([]pag.NodeID, 0, len(r.PointsTo))
	for _, oc := range r.PointsTo {
		if _, ok := seen[oc.Node]; ok {
			continue
		}
		seen[oc.Node] = struct{}{}
		out = append(out, oc.Node)
	}
	return out
}

// PointsTo computes the points-to set of variable l under context c
// (POINTSTO of Algorithm 1; Algorithm 2 when sharing is configured).
func (s *Solver) PointsTo(l pag.NodeID, c pag.Context) Result {
	return s.query(compKey{kind: kindPts, node: l, ctx: c})
}

// FlowsTo computes the variables that object o (under context c) flows to —
// the inverse relation, FLOWSTO of Algorithm 1.
func (s *Solver) FlowsTo(o pag.NodeID, c pag.Context) Result {
	return s.query(compKey{kind: kindFls, node: o, ctx: c})
}

// Alias reports whether variables a and b may alias: whether their points-to
// sets share an allocation site. Both sub-queries run under the solver's
// budget; if either aborts, ok is false and the boolean is a may-alias
// over-approximation based on the partial sets.
func (s *Solver) Alias(a, b pag.NodeID, c pag.Context) (alias, ok bool) {
	ra := s.PointsTo(a, c)
	rb := s.PointsTo(b, c)
	ok = !ra.Aborted && !rb.Aborted
	objs := make(map[pag.NodeID]struct{}, len(ra.PointsTo))
	for _, oc := range ra.PointsTo {
		objs[oc.Node] = struct{}{}
	}
	for _, oc := range rb.PointsTo {
		if _, hit := objs[oc.Node]; hit {
			return true, ok
		}
	}
	return false, ok
}

// query runs the full demand computation for one root key.
func (s *Solver) query(root compKey) (res Result) {
	q := newQuery(s)
	res.Node = root.node
	res.Ctx = root.ctx

	defer func() {
		if r := recover(); r != nil {
			ab, isAbort := r.(budgetAbort)
			if !isAbort {
				panic(r)
			}
			res.Aborted = true
			res.EarlyTerminated = ab.earlyTermination
			s.fill(&res, q, root)
		}
	}()

	q.run(root)
	q.drainDirty()
	s.fill(&res, q, root)
	// Publish the fixpointed computations to the cross-query result
	// cache (exact answers only; aborted queries never reach here).
	q.publishCache()
	// Record finished jmp edges now that all consulted computations are at
	// their fixpoint, so recorded targets are exact (Section III-B2,
	// Fig. 3(a)). Aborted queries never reach this point; they record
	// unfinished markers in outOfBudget instead (Fig. 3(b)). Recording
	// happens after the result snapshot so its bookkeeping does not
	// pollute the reported step count.
	q.recordCandidates()
	return res
}

func (s *Solver) fill(res *Result, q *query, root compKey) {
	if c, ok := q.comps[root]; ok {
		res.PointsTo = append([]pag.NodeCtx(nil), c.order...)
	}
	res.Steps = q.steps
	res.JumpsTaken = q.jumpsTaken
	res.StepsSaved = q.stepsSaved
	res.ApproxFields = append([]pag.FieldID(nil), q.approxOrder...)
	// Snapshot the attribution here — before recordCandidates runs — so
	// recording-mode bookkeeping never leaks into the breakdown and the
	// conservation invariant (Prof.Sum() == Steps) holds exactly.
	if q.prof != nil {
		res.Prof = q.prof.snapshot(q)
	}
}
