package cfl

import (
	"parcfl/internal/obs"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
)

// compKind distinguishes the two traversal directions.
type compKind uint8

const (
	// kindPts is the backward (flowsTo-bar / points-to) direction.
	kindPts compKind = iota
	// kindFls is the forward (flowsTo) direction.
	kindFls
)

// compKey identifies one memoised traversal: direction plus start
// (node, context).
type compKey struct {
	kind compKind
	node pag.NodeID
	ctx  pag.Context
}

type compState uint8

const (
	compRunning compState = iota
	compDone
)

// comp is one memoised computation with a monotonically growing result set.
type comp struct {
	key   compKey
	state compState
	dirty bool
	// cached marks a computation materialised from the cross-query
	// result cache: its set is final and it is never evaluated.
	cached bool

	// set/order hold the result: (object, ctx) pairs for kindPts,
	// (variable, ctx) pairs for kindFls. order preserves insertion order
	// for deterministic traversal (and hence deterministic step counts).
	set   map[pag.NodeCtx]struct{}
	order []pag.NodeCtx

	// dependents are computations that consulted this one and must be
	// re-evaluated when the set grows (allocated on first dependency).
	dependents map[*comp]struct{}

	// visited/vlist are the traversal frontier: every (node, ctx) pair
	// ever enqueued. Re-evaluations rescan vlist instead of restarting,
	// and only first visits cost budget steps.
	visited map[pag.NodeCtx]struct{}
	vlist   []pag.NodeCtx
	// stepped marks items whose first scan (budget step + direct-edge
	// expansion) already happened.
	stepped map[pag.NodeCtx]struct{}
	// charged marks jmp shortcuts whose step cost was already added, so
	// rescans do not charge twice (allocated on first charge).
	charged map[share.Key]struct{}

	// parent and objSrc are witness-recording tables (allocated only when
	// the query runs with witnesses enabled): parent maps each traversal
	// item to its first discovered predecessor and the edge label taken;
	// objSrc maps each result fact to the item whose expansion produced
	// it.
	parent map[pag.NodeCtx]parentInfo
	objSrc map[pag.NodeCtx]pag.NodeCtx
}

// add adds nc to c's result set, reporting whether it was new.
func (c *comp) add(nc pag.NodeCtx) bool {
	if _, ok := c.set[nc]; ok {
		return false
	}
	c.set[nc] = struct{}{}
	c.order = append(c.order, nc)
	return true
}

// push enqueues nc on c's frontier unless already visited.
func (c *comp) push(nc pag.NodeCtx) {
	if _, ok := c.visited[nc]; ok {
		return
	}
	c.visited[nc] = struct{}{}
	c.vlist = append(c.vlist, nc)
}

// frame is an in-progress alias expansion, the query-local S of
// Algorithm 2: if the query runs out of budget, an unfinished jmp edge is
// recorded for every open frame.
type frame struct {
	key share.Key
	s0  int // steps when the expansion started
}

// budgetAbort is the panic value used to unwind a query that ran out of
// budget (the paper's OutOfBudget/exit()).
type budgetAbort struct {
	earlyTermination bool
}

// query is the per-query state: the memo table, dirty queue, step counter
// and sharing bookkeeping. It lives for a single Solver.PointsTo/FlowsTo
// call.
type query struct {
	s *Solver
	g *pag.Graph

	comps  map[compKey]*comp
	dirtyQ []*comp

	steps      int
	jumpsTaken int
	stepsSaved int

	frames []frame

	// candidates maps expansion keys performed by this query to their
	// (maximum observed) step cost; successful queries convert them to
	// finished jmp edges at the end.
	candidates map[share.Key]int
	// approxUsed records fields matched approximately (refinement
	// feedback), in first-use order.
	approxUsed  map[pag.FieldID]struct{}
	approxOrder []pag.FieldID
	// recording disables budget checks while candidates are being
	// re-expanded for recording (bookkeeping, not analysis work).
	recording bool
	// wit enables witness recording (see Explain).
	wit bool
	// prof accumulates budget attribution (nil unless Config.Profile);
	// every hook site guards on the pointer so the off path costs one
	// comparison.
	prof *queryProf
}

func newQuery(s *Solver) *query {
	q := &query{
		s:          s,
		g:          s.g,
		comps:      make(map[compKey]*comp),
		candidates: make(map[share.Key]int),
		approxUsed: make(map[pag.FieldID]struct{}),
	}
	if s.cfg.Profile {
		q.prof = newQueryProf()
	}
	return q
}

// resolve returns the computation for k, creating it if needed; created
// computations start evaluating immediately (state running while on the
// evaluation stack).
func (q *query) run(k compKey) *comp {
	if c, ok := q.comps[k]; ok {
		return c
	}
	// Consult the cross-query result cache: a hit materialises a final
	// computation without any traversal. Witness queries skip the cache
	// (cached results carry no provenance).
	if pc := q.s.cfg.Cache; pc != nil && !q.wit {
		ck := ptcache.Key{Dir: ptcache.Backward, Node: k.node, Ctx: k.ctx}
		if k.kind == kindFls {
			ck.Dir = ptcache.Forward
		}
		if set, ok := pc.Get(ck); ok {
			c := &comp{
				key:    k,
				state:  compDone,
				cached: true,
				order:  set,
			}
			q.comps[k] = c
			// A cache hit costs one traversal step. Attribute before
			// charging so the step is booked even if it trips the budget.
			if p := q.prof; p != nil && !q.recording {
				p.cache++
			}
			q.step()
			return c
		}
	}
	c := &comp{
		key:     k,
		state:   compRunning,
		set:     make(map[pag.NodeCtx]struct{}),
		visited: make(map[pag.NodeCtx]struct{}),
		stepped: make(map[pag.NodeCtx]struct{}),
	}
	if q.wit {
		c.parent = make(map[pag.NodeCtx]parentInfo)
		c.objSrc = make(map[pag.NodeCtx]pag.NodeCtx)
	}
	q.comps[k] = c
	c.push(pag.NodeCtx{Node: k.node, Ctx: k.ctx})
	q.eval(c)
	c.state = compDone
	return c
}

// publishCache shares every fixpointed computation of a successfully
// completed query with the cross-query result cache. Result slices are no
// longer mutated once the query ends, so they are shared without copying.
func (q *query) publishCache() {
	pc := q.s.cfg.Cache
	if pc == nil || q.wit {
		return
	}
	for k, c := range q.comps {
		if c.cached || c.state != compDone {
			continue
		}
		ck := ptcache.Key{Dir: ptcache.Backward, Node: k.node, Ctx: k.ctx}
		if k.kind == kindFls {
			ck.Dir = ptcache.Forward
		}
		pc.Put(ck, c.order)
	}
}

// depend records that consumer consulted dep and must be re-evaluated when
// dep's result grows. Self-dependencies are real and must be kept: a
// computation like pts(p) for `p = p.next` consults its own partial result,
// and growing it later must trigger a rescan of the consulting expansion.
func (q *query) depend(dep, consumer *comp) {
	if dep.dependents == nil {
		dep.dependents = make(map[*comp]struct{})
	}
	dep.dependents[consumer] = struct{}{}
}

// grow adds nc to c's result set, dirtying dependents on growth.
func (q *query) grow(c *comp, nc pag.NodeCtx) {
	if !c.add(nc) {
		return
	}
	for d := range c.dependents {
		q.markDirty(d)
	}
}

// pushEdge enqueues a traversal item reached from `from` over the edge
// described by label, recording provenance when witnesses are enabled.
func (q *query) pushEdge(c *comp, nc, from pag.NodeCtx, label string) {
	if q.wit {
		if _, seen := c.visited[nc]; !seen {
			c.parent[nc] = parentInfo{from: from, label: label}
		}
	}
	c.push(nc)
}

// pushEdgeHE is pushEdge for a PAG half-edge: the label string is rendered
// only on the witness path — formatting it eagerly for every edge push was
// a double-digit share of solver CPU on witness-less batch runs.
func (q *query) pushEdgeHE(c *comp, nc, from pag.NodeCtx, he pag.HalfEdge) {
	if q.wit {
		if _, seen := c.visited[nc]; !seen {
			c.parent[nc] = parentInfo{from: from, label: edgeLabel(he.Kind, he.Label)}
		}
	}
	c.push(nc)
}

// markDirty queues c for re-evaluation. A computation that is still running
// is queued too: its in-progress scan may already have passed the items
// affected by the growth, so a post-completion rescan is required.
func (q *query) markDirty(c *comp) {
	if !c.dirty {
		c.dirty = true
		q.dirtyQ = append(q.dirtyQ, c)
	}
}

// drainDirty re-evaluates computations until the query-local fixpoint.
func (q *query) drainDirty() {
	for len(q.dirtyQ) > 0 {
		c := q.dirtyQ[0]
		q.dirtyQ = q.dirtyQ[1:]
		if !c.dirty {
			continue
		}
		c.dirty = false
		q.eval(c)
	}
}

// step charges one budget step for a node traversal. Every scan of a
// (node, context) item counts — including rescans during fixpoint
// iteration — matching the paper's "each node traversal being counted as
// one step" and ensuring the budget bounds total traversal work.
func (q *query) step() {
	q.steps++
	if q.recording {
		return
	}
	if b := q.s.cfg.Budget; b > 0 && q.steps > b {
		q.outOfBudget(0, false)
	}
}

// outOfBudget implements OUTOFBUDGET(BDG) of Algorithm 2: record an
// unfinished jmp edge for every open expansion frame, then abort the query.
// bdg is 0 for plain budget exhaustion, or the unfinished-jmp cost s when an
// early termination fires (Algorithm 2 line 3).
func (q *query) outOfBudget(bdg int, earlyTermination bool) {
	// Snapshot the partial frontier — every expansion still open — for the
	// autopsy before unwinding; fill reads it from the prof in the abort
	// recovery path.
	if p := q.prof; p != nil {
		p.frontier = make([]FrameRecord, len(q.frames))
		for i, f := range q.frames {
			p.frontier[i] = FrameRecord{Key: f.key, Steps: q.steps - f.s0}
		}
	}
	if st := q.s.cfg.Share; st != nil {
		b := q.s.cfg.Budget
		for _, f := range q.frames {
			s := bdg + q.steps - f.s0
			if b > 0 && s > b {
				s = b
			}
			st.PutUnfinished(f.key, s)
		}
	}
	panic(budgetAbort{earlyTermination: earlyTermination})
}

// eval (re)scans computation c's frontier. Items are processed in discovery
// order; first scans charge a budget step and expand the direct (non-heap)
// edges, and every scan re-runs the heap expansion (reachable) so results
// that grew since the last scan are picked up.
//
// With span tracing on, every scan becomes one span (SpCompPts/SpCompFls:
// node, context depth, steps consumed) on the solver's worker track. The
// close is deferred so a budget abort unwinding through the scan still
// records the span with the steps consumed up to the abort.
func (q *query) eval(c *comp) {
	if sink := q.s.cfg.Obs; sink.SpanTracing() && !q.recording {
		t0 := sink.SpanStart()
		s0 := q.steps
		kind := obs.SpCompPts
		if c.key.kind == kindFls {
			kind = obs.SpCompFls
		}
		defer func() {
			sink.Span(kind, q.s.cfg.Worker, t0, int64(c.key.node), int64(q.steps-s0), int64(c.key.ctx.Depth()))
		}()
	}
	for i := 0; i < len(c.vlist); i++ {
		it := c.vlist[i]
		if p := q.prof; p != nil && !q.recording {
			p.nodes[it.Node]++
		}
		q.step()
		if _, done := c.stepped[it]; !done {
			c.stepped[it] = struct{}{}
			q.expandDirect(c, it)
		}
		for _, r := range q.reachable(c, it) {
			q.pushEdge(c, r, it, "heap")
		}
	}
}

// expandDirect traverses the new/assign/param/ret edges at item it,
// implementing lines 7–15 of Algorithm 1 (backward) and their mirror image
// (forward).
func (q *query) expandDirect(c *comp, it pag.NodeCtx) {
	switch c.key.kind {
	case kindPts:
		for _, he := range q.g.In(it.Node) {
			switch he.Kind {
			case pag.EdgeNew:
				// x <-new- o: o (under the current context) is in
				// the points-to set.
				fact := pag.NodeCtx{Node: he.Other, Ctx: it.Ctx}
				if q.wit {
					if _, dup := c.objSrc[fact]; !dup {
						c.objSrc[fact] = it
					}
				}
				q.grow(c, fact)
			case pag.EdgeAssignLocal:
				q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: it.Ctx}, it, he)
			case pag.EdgeAssignGlobal:
				// Globals are context-insensitive: clear the context.
				q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: pag.EmptyContext}, it, he)
			case pag.EdgeParam:
				// Moving formal -> actual exits the callee at site i:
				// pop a matching site, or continue unbalanced on an
				// empty context.
				i := pag.CallSiteID(he.Label)
				if it.Ctx.Empty() {
					q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: pag.EmptyContext}, it, he)
				} else if it.Ctx.Top() == i {
					q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: it.Ctx.Pop()}, it, he)
				}
			case pag.EdgeRet:
				// Moving receiver -> callee return enters the callee
				// at site i: push (k-limited when configured).
				q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: it.Ctx.PushK(pag.CallSiteID(he.Label), q.s.cfg.ContextK)}, it, he)
			}
		}
	case kindFls:
		if q.g.Node(it.Node).Kind.IsVariable() {
			// Every variable reached forward is an element of the
			// flowsTo set.
			q.grow(c, it)
		}
		// All forward pushes go through pushEdge so parent provenance is
		// recorded for witness queries, exactly as in the backward branch
		// (Explain/ExplainFlows reconstruct paths from it).
		for _, he := range q.g.Out(it.Node) {
			switch he.Kind {
			case pag.EdgeNew:
				// o -new-> l: the object starts flowing at l.
				q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: it.Ctx}, it, he)
			case pag.EdgeAssignLocal:
				q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: it.Ctx}, it, he)
			case pag.EdgeAssignGlobal:
				q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: pag.EmptyContext}, it, he)
			case pag.EdgeParam:
				// Moving actual -> formal enters the callee: push
				// (k-limited when configured).
				q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: it.Ctx.PushK(pag.CallSiteID(he.Label), q.s.cfg.ContextK)}, it, he)
			case pag.EdgeRet:
				// Moving callee return -> receiver exits the callee:
				// pop a matching site, or continue on empty.
				i := pag.CallSiteID(he.Label)
				if it.Ctx.Empty() {
					q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: pag.EmptyContext}, it, he)
				} else if it.Ctx.Top() == i {
					q.pushEdgeHE(c, pag.NodeCtx{Node: he.Other, Ctx: it.Ctx.Pop()}, it, he)
				}
			}
		}
	}
}
