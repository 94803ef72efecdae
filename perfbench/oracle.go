package main

import (
	"fmt"
	"math/rand"
	"sort"

	"parcfl/internal/andersen"
	"parcfl/internal/cfl"
	"parcfl/internal/pag"
)

// answer is one answer the program under test gave: the allocation sites a
// variable points to (empty context), possibly partial when aborted.
type answer struct {
	v       pag.NodeID
	objects []pag.NodeID
	aborted bool
}

// oracle checks answers against two independent references over the same
// graph: Andersen's whole-program analysis (every answer, aborted or not,
// must be a subset of its set) and a fresh CFL solver with no jmp store and
// no result cache (a sampled answer that both complete must equal it).
type oracle struct {
	g    *pag.Graph
	and  *andersen.Result
	sets map[pag.NodeID]map[pag.NodeID]bool
}

func newOracle(g *pag.Graph) *oracle {
	return &oracle{g: g, and: andersen.Analyze(g), sets: map[pag.NodeID]map[pag.NodeID]bool{}}
}

// subset checks a against Andersen's points-to set of its variable.
func (o *oracle) subset(a answer) error {
	set, ok := o.sets[a.v]
	if !ok {
		set = o.and.PointsToSet(a.v)
		o.sets[a.v] = set
	}
	for _, obj := range a.objects {
		if !set[obj] {
			return fmt.Errorf("%s: object %s is not in Andersen's points-to set", o.name(a.v), o.name(obj))
		}
	}
	return nil
}

// exact re-solves a's variable on a fresh solver. checked is false when the
// fresh solve exhausts the budget (then there is no exact answer to compare).
func (o *oracle) exact(a answer) (checked bool, err error) {
	r := cfl.New(o.g, cfl.Config{Budget: budget}).PointsTo(a.v, pag.EmptyContext)
	if r.Aborted {
		return false, nil
	}
	if want := r.Objects(); !sameSet(want, a.objects) {
		return true, fmt.Errorf("%s: answer %v differs from a fresh solver's %v", o.name(a.v), o.names(a.objects), o.names(want))
	}
	return true, nil
}

// sameSet reports whether a and b hold the same nodes, ignoring order.
func sameSet(a, b []pag.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[pag.NodeID]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}

func (o *oracle) name(v pag.NodeID) string {
	if int(v) < o.g.NumNodes() {
		return o.g.Node(v).Name
	}
	return fmt.Sprintf("#%d", v)
}

func (o *oracle) names(vs []pag.NodeID) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = o.name(v)
	}
	return out
}

// verdict tallies one oracle pass.
type verdict struct {
	checked int // answers checked against Andersen
	exact   int // sampled answers compared with a fresh solver
	failed  int
	errs    []error
}

func (v *verdict) fail(err error) {
	v.failed++
	if len(v.errs) < 5 {
		v.errs = append(v.errs, err)
	}
}

// verify checks every answer for inclusion in Andersen's set, then compares
// up to `sample` distinct completed variables, drawn with rng, with a fresh
// solver.
func (o *oracle) verify(answers []answer, sample int, rng *rand.Rand) verdict {
	var v verdict
	firstCompleted := map[pag.NodeID]int{}
	for i, a := range answers {
		v.checked++
		if err := o.subset(a); err != nil {
			v.fail(err)
			continue
		}
		if a.aborted {
			continue
		}
		// Completed answers of one variable must all agree, so checking
		// the first against the fresh solver covers the rest.
		if j, seen := firstCompleted[a.v]; !seen {
			firstCompleted[a.v] = i
		} else if !sameSet(answers[j].objects, a.objects) {
			v.fail(fmt.Errorf("%s: two completed answers disagree: %v vs %v", o.name(a.v),
				o.names(answers[j].objects), o.names(a.objects)))
		}
	}
	vars := make([]pag.NodeID, 0, len(firstCompleted))
	for x := range firstCompleted {
		vars = append(vars, x)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	for _, x := range vars {
		if v.exact >= sample {
			break
		}
		checked, err := o.exact(answers[firstCompleted[x]])
		if err != nil {
			v.fail(err)
		}
		if checked {
			v.exact++
		}
	}
	return v
}
