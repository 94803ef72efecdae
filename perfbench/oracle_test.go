package main

import (
	"math/rand"
	"net/http"
	"testing"

	"parcfl/internal/cfl"
	"parcfl/internal/frontend"
	"parcfl/internal/pag"
	"parcfl/internal/server"
)

// smallGraph lowers a small generated program, so the oracle's references
// are cheap to compute.
func smallGraph(t *testing.T) *frontend.Lowered {
	t.Helper()
	w := workload{preset: "_209_db", scale: 0.005}
	prog, _, err := generate(w, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := frontend.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

// trueAnswers solves every application local on a fresh solver and keeps
// the completed ones that point somewhere.
func trueAnswers(lo *frontend.Lowered) []answer {
	var out []answer
	for _, v := range lo.AppQueryVars {
		r := cfl.New(lo.Graph, cfl.Config{Budget: budget}).PointsTo(v, pag.EmptyContext)
		if !r.Aborted && len(r.PointsTo) > 0 {
			out = append(out, answer{v: v, objects: r.Objects()})
		}
	}
	return out
}

func TestOracleAcceptsTrueAnswers(t *testing.T) {
	lo := smallGraph(t)
	answers := trueAnswers(lo)
	if len(answers) < 20 {
		t.Fatalf("only %d non-empty completed answers", len(answers))
	}
	v := newOracle(lo.Graph).verify(answers, len(answers), rand.New(rand.NewSource(1)))
	if v.failed != 0 || v.exact != len(answers) {
		t.Fatalf("true answers: %d failed, %d of %d compared exactly: %v", v.failed, v.exact, len(answers), v.errs)
	}
}

// TestOraclePlantedObjectInReply plants one wrong object into a served
// reply and expects the oracle to fail exactly that answer, both when the
// object is outside Andersen's set and when only the exact re-solve can
// tell it is wrong.
func TestOraclePlantedObjectInReply(t *testing.T) {
	lo := smallGraph(t)
	g := lo.Graph
	byName := names(g)
	o := newOracle(g)
	answers := trueAnswers(lo)

	outside, inside := -1, -1
	var outsideObj, insideObj pag.NodeID
	for i, a := range answers {
		if byName[g.Node(a.v).Name] != a.v {
			continue
		}
		have := map[pag.NodeID]bool{}
		for _, x := range a.objects {
			have[x] = true
		}
		and := o.and.PointsToSet(a.v)
		for _, obj := range g.Objects() {
			if byName[g.Node(obj).Name] != obj || have[obj] {
				continue
			}
			if !and[obj] && outside < 0 {
				outside, outsideObj = i, obj
			}
			if and[obj] && inside < 0 {
				inside, insideObj = i, obj
			}
		}
	}
	if outside < 0 || inside < 0 {
		t.Fatalf("no plantable object (outside Andersen: %d, inside: %d)", outside, inside)
	}

	for _, c := range []struct {
		name string
		i    int
		obj  pag.NodeID
	}{{"outside Andersen", outside, outsideObj}, {"inside Andersen", inside, insideObj}} {
		t.Run(c.name, func(t *testing.T) {
			a := answers[c.i]
			reply := server.VarResult{Var: g.Node(a.v).Name, Timings: &server.Timings{}}
			for _, x := range a.objects {
				reply.Objects = append(reply.Objects, g.Node(x).Name)
			}
			reply.Objects = append(reply.Objects, g.Node(c.obj).Name)
			r := &request{id: "planted", v: a.v, status: http.StatusOK, res: reply}
			planted, err := toAnswer(r, byName)
			if err != nil {
				t.Fatal(err)
			}
			v := newOracle(g).verify([]answer{planted}, 1, rand.New(rand.NewSource(1)))
			if v.failed != 1 {
				t.Fatalf("planted object %s in %s's reply: oracle failed %d answers", g.Node(c.obj).Name, reply.Var, v.failed)
			}
			t.Logf("oracle: %v", v.errs[0])
		})
	}
}

// TestOracleCatchesDisagreeingRepeats: two completed answers of one
// variable must agree even when neither is sampled for the exact check.
func TestOracleCatchesDisagreeingRepeats(t *testing.T) {
	lo := smallGraph(t)
	answers := trueAnswers(lo)
	var a answer
	for _, x := range answers {
		if len(x.objects) > 1 {
			a = x
			break
		}
	}
	if len(a.objects) < 2 {
		t.Fatal("no answer with two objects")
	}
	fewer := answer{v: a.v, objects: a.objects[:1]}
	v := newOracle(lo.Graph).verify([]answer{a, fewer}, 0, rand.New(rand.NewSource(1)))
	if v.failed != 1 {
		t.Fatalf("disagreeing repeats: oracle failed %d answers", v.failed)
	}
}
