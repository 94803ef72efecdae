package cfl

import (
	"parcfl/internal/obs"
	"parcfl/internal/pag"
	"parcfl/internal/share"
)

// reachable implements REACHABLENODES(x, c) — Algorithm 1 lines 17–25
// without sharing, Algorithm 2 with sharing. For the backward (points-to)
// direction it matches each load x = p.f against every store q.f = y whose
// base q aliases p, returning the (y, c”) pairs the traversal must continue
// from; the forward direction mirrors it (stores matched against loads).
//
// With sharing enabled, the store is consulted first: an unfinished entry
// whose cost exceeds the remaining budget aborts the query early; a finished
// entry is taken as a shortcut, charging its recorded step cost once. A full
// expansion is otherwise performed and remembered as a candidate for
// recording when the query completes.
func (q *query) reachable(owner *comp, it pag.NodeCtx) []pag.NodeCtx {
	kind := owner.key.kind
	if !q.hasHeapEdges(kind, it.Node) {
		return nil
	}
	dir := share.Backward
	if kind == kindFls {
		dir = share.Forward
	}
	key := share.Key{Dir: dir, Node: it.Node, Ctx: it.Ctx}

	st := q.s.cfg.Share
	if st != nil {
		if e, ok := st.Lookup(key); ok {
			if e.Unfinished {
				// Fig. 3(b): a previous traversal ran out of budget s
				// steps past this point; if we cannot afford s either,
				// terminate early instead of burning the budget.
				if b := q.s.cfg.Budget; !q.recording && b > 0 && b-q.steps < e.S {
					if p := q.prof; p != nil {
						p.et = &ETRecord{Key: key, S: e.S, Remaining: b - q.steps}
					}
					q.s.cfg.Obs.SpanInstant(obs.SpEarlyTerm, q.s.cfg.Worker, int64(it.Node), int64(e.S))
					q.outOfBudget(e.S, true)
				}
				// Enough budget remains: fall through to a full
				// expansion, as in Algorithm 2.
			} else {
				// Fig. 3(a): take the shortcut. The recorded step cost
				// is charged (once per computation) so budget
				// accounting stays aligned with an unshared run; the
				// budget itself is only checked at the next node visit,
				// exactly as in the paper.
				if !q.recording {
					if _, done := owner.charged[key]; !done {
						if owner.charged == nil {
							owner.charged = make(map[share.Key]struct{})
						}
						owner.charged[key] = struct{}{}
						if p := q.prof; p != nil {
							p.jumps = append(p.jumps, JmpCharge{Key: key, S: e.S})
						}
						q.steps += e.S
						q.jumpsTaken++
						q.stepsSaved += e.S
						q.s.cfg.Obs.SpanInstant(obs.SpJmpTake, q.s.cfg.Worker, int64(it.Node), int64(e.S))
					}
				}
				return e.Targets
			}
		}
	}

	if q.recording {
		return q.expandHeap(kind, owner, it)
	}

	s0 := q.steps
	q.frames = append(q.frames, frame{key: key, s0: s0})
	rch := q.expandHeap(kind, owner, it)
	q.frames = q.frames[:len(q.frames)-1]
	if st != nil {
		if cost := q.steps - s0; cost > q.candidates[key] {
			q.candidates[key] = cost
		}
	}
	return rch
}

// hasHeapEdges reports whether node n participates in any heap access
// relevant to the given direction (an incoming load backward, an outgoing
// store forward), so reachable can skip the sharing machinery on the vast
// majority of nodes.
func (q *query) hasHeapEdges(kind compKind, n pag.NodeID) bool {
	if kind == kindPts {
		for _, he := range q.g.In(n) {
			if he.Kind == pag.EdgeLoad {
				return true
			}
		}
		return false
	}
	for _, he := range q.g.Out(n) {
		if he.Kind == pag.EdgeStore {
			return true
		}
	}
	return false
}

// expandHeap performs the alias expansion itself (the loops of Algorithm 1
// lines 18–24 and their forward mirror). owner may be nil during candidate
// recording, in which case no dependency edges are recorded.
func (q *query) expandHeap(kind compKind, owner *comp, it pag.NodeCtx) []pag.NodeCtx {
	var rch []pag.NodeCtx
	switch kind {
	case kindPts:
		// it.Node is x with loads x = p.f: anything stored into field f
		// of an object p points to is reachable.
		for _, he := range q.g.In(it.Node) {
			if he.Kind != pag.EdgeLoad {
				continue
			}
			f := pag.FieldID(he.Label)
			if !q.s.cfg.Approx.precise(f) {
				rch = q.approxMatchLoad(rch, it.Node, f)
				continue
			}
			p := he.Other
			ptsC := q.run(compKey{kind: kindPts, node: p, ctx: it.Ctx})
			if owner != nil {
				q.depend(ptsC, owner)
			}
			for i := 0; i < len(ptsC.order); i++ {
				oc := ptsC.order[i]
				// Each alias-set element examined costs one step: in
				// Algorithm 1 these elements are produced by recursive
				// PointsTo/FlowsTo traversals that each charge steps, so
				// the budget must bound this matching work too.
				if pr := q.prof; pr != nil && !q.recording {
					pr.site(it.Node, f)
				}
				q.step()
				flsC := q.run(compKey{kind: kindFls, node: oc.Node, ctx: oc.Ctx})
				if owner != nil {
					q.depend(flsC, owner)
				}
				for j := 0; j < len(flsC.order); j++ {
					vc := flsC.order[j]
					if pr := q.prof; pr != nil && !q.recording {
						pr.site(it.Node, f)
					}
					q.step()
					// vc.Node aliases p; match stores vc.Node.f = y.
					for _, she := range q.g.In(vc.Node) {
						if she.Kind == pag.EdgeStore && pag.FieldID(she.Label) == f {
							rch = append(rch, pag.NodeCtx{Node: she.Other, Ctx: vc.Ctx})
						}
					}
				}
			}
		}
	case kindFls:
		// it.Node is y with stores q'.f = y: the value flows into field
		// f of every object q' points to, and out of every load on an
		// alias of q'.
		for _, he := range q.g.Out(it.Node) {
			if he.Kind != pag.EdgeStore {
				continue
			}
			f := pag.FieldID(he.Label)
			if !q.s.cfg.Approx.precise(f) {
				rch = q.approxMatchStore(rch, it.Node, f)
				continue
			}
			base := he.Other
			ptsC := q.run(compKey{kind: kindPts, node: base, ctx: it.Ctx})
			if owner != nil {
				q.depend(ptsC, owner)
			}
			for i := 0; i < len(ptsC.order); i++ {
				oc := ptsC.order[i]
				if pr := q.prof; pr != nil && !q.recording {
					pr.site(it.Node, f)
				}
				q.step()
				flsC := q.run(compKey{kind: kindFls, node: oc.Node, ctx: oc.Ctx})
				if owner != nil {
					q.depend(flsC, owner)
				}
				for j := 0; j < len(flsC.order); j++ {
					vc := flsC.order[j]
					if pr := q.prof; pr != nil && !q.recording {
						pr.site(it.Node, f)
					}
					q.step()
					// vc.Node aliases base; match loads x = vc.Node.f.
					for _, lhe := range q.g.Out(vc.Node) {
						if lhe.Kind == pag.EdgeLoad && pag.FieldID(lhe.Label) == f {
							rch = append(rch, pag.NodeCtx{Node: lhe.Other, Ctx: vc.Ctx})
						}
					}
				}
			}
		}
	}
	return rch
}

// noteApprox records that field f was matched approximately.
func (q *query) noteApprox(f pag.FieldID) {
	if _, seen := q.approxUsed[f]; seen {
		return
	}
	q.approxUsed[f] = struct{}{}
	q.approxOrder = append(q.approxOrder, f)
}

// approxMatchLoad is the regularly-approximated backward match for a load
// of field f at node n: every store q'.f = y in the program is assumed to
// reach it. Targets continue with the empty context (the over-approximating
// choice: an empty context permits any subsequent matching). Each examined
// store costs one step so approximation still consumes budget in proportion
// to fan-in.
func (q *query) approxMatchLoad(rch []pag.NodeCtx, n pag.NodeID, f pag.FieldID) []pag.NodeCtx {
	q.noteApprox(f)
	for _, st := range q.g.StoresOf(f) {
		if p := q.prof; p != nil && !q.recording {
			p.approxSite(n, f)
		}
		q.step()
		rch = append(rch, pag.NodeCtx{Node: st.Val, Ctx: pag.EmptyContext})
	}
	return rch
}

// approxMatchStore is the forward mirror: a store of field f at node n is
// assumed to flow into every load of f.
func (q *query) approxMatchStore(rch []pag.NodeCtx, n pag.NodeID, f pag.FieldID) []pag.NodeCtx {
	q.noteApprox(f)
	for _, ld := range q.g.LoadsOf(f) {
		if p := q.prof; p != nil && !q.recording {
			p.approxSite(n, f)
		}
		q.step()
		rch = append(rch, pag.NodeCtx{Node: ld.Dst, Ctx: pag.EmptyContext})
	}
	return rch
}

// recordCandidates converts the expansions performed by a successfully
// completed query into finished jmp edges. It runs after the query-local
// fixpoint, re-expanding each candidate from the memoised computations so
// the recorded targets are the exact CFL answer (never a partial snapshot
// from mid-fixpoint). Budget checks are disabled during recording: this is
// bookkeeping, not analysis work.
func (q *query) recordCandidates() {
	st := q.s.cfg.Share
	if st == nil || len(q.candidates) == 0 {
		return
	}
	q.recording = true
	defer func() { q.recording = false }()
	tauF := st.Config().TauF
	for key, cost := range q.candidates {
		if cost < tauF {
			continue
		}
		if _, exists := st.Lookup(key); exists {
			continue
		}
		kind := kindPts
		if key.Dir == share.Forward {
			kind = kindFls
		}
		rch := q.expandHeap(kind, nil, pag.NodeCtx{Node: key.Node, Ctx: key.Ctx})
		seen := make(map[pag.NodeCtx]struct{}, len(rch))
		targets := make([]pag.NodeCtx, 0, len(rch))
		for _, nc := range rch {
			if _, dup := seen[nc]; dup {
				continue
			}
			seen[nc] = struct{}{}
			targets = append(targets, nc)
		}
		st.PutFinished(key, cost, targets)
	}
}
