package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"parcfl/internal/frontend"
	"parcfl/internal/javagen"
	"parcfl/internal/pag"
)

// chainGraph builds: a -> b -> c (assign chain), d isolated, e <-ld- f
// (heap only, so e and f are NOT direct-connected).
func chainGraph(t *testing.T) (*pag.Graph, map[string]pag.NodeID) {
	t.Helper()
	g := pag.NewGraph()
	ids := map[string]pag.NodeID{}
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		ids[n] = g.AddLocal(n, 0, 0)
	}
	g.AddEdge(pag.Edge{Dst: ids["b"], Src: ids["a"], Kind: pag.EdgeAssignLocal})
	g.AddEdge(pag.Edge{Dst: ids["c"], Src: ids["b"], Kind: pag.EdgeAssignLocal})
	g.AddEdge(pag.Edge{Dst: ids["e"], Src: ids["f"], Kind: pag.EdgeLoad, Label: 1})
	g.Freeze()
	return g, ids
}

func TestGroupingByDirectRelation(t *testing.T) {
	g, ids := chainGraph(t)
	plan := Schedule(g, []pag.NodeID{ids["a"], ids["b"], ids["c"], ids["d"], ids["e"], ids["f"]}, nil)
	// Components: {a,b,c}, {d}, {e}, {f} — loads don't connect.
	if plan.NumComponents != 4 {
		t.Fatalf("NumComponents = %d, want 4", plan.NumComponents)
	}
	// All queries survive, as a permutation.
	got := plan.Queries()
	if len(got) != 6 {
		t.Fatalf("scheduled %d queries, want 6", len(got))
	}
	seen := map[pag.NodeID]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d in schedule", v)
		}
		seen[v] = true
	}
}

func TestScheduleDedups(t *testing.T) {
	g, ids := chainGraph(t)
	plan := Schedule(g, []pag.NodeID{ids["a"], ids["a"], ids["b"]}, nil)
	if got := len(plan.Queries()); got != 2 {
		t.Fatalf("deduped schedule has %d queries, want 2", got)
	}
}

func TestConnectionDistanceOrdering(t *testing.T) {
	// Chain a->b->c->d->e plus a short branch x->b: the longest path
	// through each of a..e is the whole 5-chain, but x's longest path is
	// x->b->c->d->e (5 nodes too)... use a clean case instead:
	// long chain a-b-c-d-e and separate pair p-q in one group via p->c?
	// Keep it simple: isolated node vs chain member.
	g := pag.NewGraph()
	var ids []pag.NodeID
	for i := 0; i < 5; i++ {
		ids = append(ids, g.AddLocal("n", 0, 0))
	}
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(pag.Edge{Dst: ids[i+1], Src: ids[i], Kind: pag.EdgeAssignLocal})
	}
	g.Freeze()
	cd := connectionDistances(g)
	for _, v := range ids {
		if cd[v] != 5 {
			t.Fatalf("cd[%d] = %d, want 5 (whole chain)", v, cd[v])
		}
	}
}

func TestConnectionDistanceModuloRecursion(t *testing.T) {
	// A 3-cycle a->b->c->a feeding into d: the cycle collapses to one
	// weight-3 component, so every node sees CD 4.
	g := pag.NewGraph()
	a := g.AddLocal("a", 0, 0)
	b := g.AddLocal("b", 0, 0)
	c := g.AddLocal("c", 0, 0)
	d := g.AddLocal("d", 0, 0)
	g.AddEdge(pag.Edge{Dst: b, Src: a, Kind: pag.EdgeAssignLocal})
	g.AddEdge(pag.Edge{Dst: c, Src: b, Kind: pag.EdgeAssignLocal})
	g.AddEdge(pag.Edge{Dst: a, Src: c, Kind: pag.EdgeAssignLocal})
	g.AddEdge(pag.Edge{Dst: d, Src: c, Kind: pag.EdgeAssignLocal})
	g.Freeze()
	cd := connectionDistances(g)
	for _, v := range []pag.NodeID{a, b, c, d} {
		if cd[v] != 4 {
			t.Fatalf("cd[%d] = %d, want 4", v, cd[v])
		}
	}
}

func TestDependenceDepthOrdersGroups(t *testing.T) {
	// Two disconnected pairs: group X has a variable of deep type (level
	// 3), group Y only shallow (level 1). X must be scheduled first.
	g := pag.NewGraph()
	x1 := g.AddLocal("x1", 3, 0) // type 3: level 3
	x2 := g.AddLocal("x2", 0, 0) // type 0: level 1
	y1 := g.AddLocal("y1", 0, 0)
	y2 := g.AddLocal("y2", 0, 0)
	g.AddEdge(pag.Edge{Dst: x2, Src: x1, Kind: pag.EdgeAssignLocal})
	g.AddEdge(pag.Edge{Dst: y2, Src: y1, Kind: pag.EdgeAssignLocal})
	g.Freeze()
	levels := []int{1, 1, 2, 3}
	plan := Schedule(g, []pag.NodeID{y1, y2, x1, x2}, levels)
	flat := plan.Queries()
	posX := -1
	posY := -1
	for i, v := range flat {
		if v == x1 && posX == -1 {
			posX = i
		}
		if (v == y1 || v == y2) && posY == -1 {
			posY = i
		}
	}
	if posX == -1 || posY == -1 || posX > posY {
		t.Fatalf("deep-type group not scheduled first: order %v", flat)
	}
}

func TestSplitMergeBalancesGroups(t *testing.T) {
	// One giant group (10 chained vars) and five singletons: M = ceil(15/6)
	// = 3, so groups should come out at ~3 each.
	g := pag.NewGraph()
	var chain []pag.NodeID
	for i := 0; i < 10; i++ {
		chain = append(chain, g.AddLocal("c", 0, 0))
		if i > 0 {
			g.AddEdge(pag.Edge{Dst: chain[i], Src: chain[i-1], Kind: pag.EdgeAssignLocal})
		}
	}
	var singles []pag.NodeID
	for i := 0; i < 5; i++ {
		singles = append(singles, g.AddLocal("s", 0, 0))
	}
	g.Freeze()
	plan := Schedule(g, append(append([]pag.NodeID{}, chain...), singles...), nil)
	if plan.NumComponents != 6 {
		t.Fatalf("NumComponents = %d, want 6", plan.NumComponents)
	}
	for i, gr := range plan.Groups {
		if len(gr) > 3 {
			t.Fatalf("group %d has %d members, want <= 3 after splitting", i, len(gr))
		}
	}
	if got := len(plan.Queries()); got != 15 {
		t.Fatalf("total scheduled = %d, want 15", got)
	}
	// The mean group size stat reflects the pre-balance grouping.
	if plan.AvgGroupSize != 15.0/6.0 {
		t.Fatalf("AvgGroupSize = %v", plan.AvgGroupSize)
	}
}

func TestEmptyBatch(t *testing.T) {
	g, _ := chainGraph(t)
	plan := Schedule(g, nil, nil)
	if len(plan.Groups) != 0 || plan.NumComponents != 0 {
		t.Fatalf("empty batch plan = %+v", plan)
	}
}

// TestFig2Schedule sanity-checks the full pipeline on the paper's example:
// Vector-typed receivers (deep type, level 3) must be issued before the
// plain Object locals of main when the groups are disjoint.
func TestFig2Schedule(t *testing.T) {
	f, err := frontend.BuildFig2()
	if err != nil {
		t.Fatal(err)
	}
	plan := Schedule(f.Lowered.Graph, f.Lowered.AppQueryVars, f.Lowered.TypeLevels)
	if got := len(plan.Queries()); got != len(f.Lowered.AppQueryVars) {
		t.Fatalf("scheduled %d of %d queries", got, len(f.Lowered.AppQueryVars))
	}
}

// TestGeneratedSchedulePermutation: on a generated benchmark the schedule is
// a permutation of the deduplicated batch.
func TestGeneratedSchedulePermutation(t *testing.T) {
	prg, err := javagen.Generate(javagen.Params{
		Name: "schedtest", Seed: 7, Containers: 3, CallDepth: 2,
		PayloadClasses: 3, PayloadFieldDepth: 3, AppMethods: 10, OpsPerApp: 10,
		Globals: 2, AppCallFanout: 1, HubFields: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		t.Fatal(err)
	}
	plan := Schedule(lo.Graph, lo.AppQueryVars, lo.TypeLevels)
	want := append([]pag.NodeID{}, lo.AppQueryVars...)
	got := plan.Queries()
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	gotS := append([]pag.NodeID{}, got...)
	sort.Slice(gotS, func(i, j int) bool { return gotS[i] < gotS[j] })
	if len(gotS) != len(want) {
		t.Fatalf("schedule size %d, want %d", len(gotS), len(want))
	}
	for i := range want {
		if gotS[i] != want[i] {
			t.Fatalf("schedule is not a permutation at %d", i)
		}
	}
	if plan.AvgGroupSize <= 0 {
		t.Fatal("AvgGroupSize not computed")
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(10)
	uf.union(1, 2)
	uf.union(2, 3)
	uf.union(7, 8)
	if uf.find(1) != uf.find(3) {
		t.Fatal("1 and 3 should be joined")
	}
	if uf.find(1) == uf.find(7) {
		t.Fatal("1 and 7 should be separate")
	}
	uf.union(3, 7)
	if uf.find(1) != uf.find(8) {
		t.Fatal("transitive union broken")
	}
	// Self-union is a no-op.
	uf.union(5, 5)
	if uf.find(5) != 5 {
		t.Fatal("self union broke singleton")
	}
}

func TestComponentMap(t *testing.T) {
	g, ids := chainGraph(t)
	cm := ComponentMap(g)
	if len(cm) != g.NumNodes() {
		t.Fatalf("ComponentMap length %d, want %d", len(cm), g.NumNodes())
	}
	// a, b, c share a component; d, e, f are singletons (loads don't
	// connect), so the partition matches Schedule's grouping.
	if cm[ids["a"]] != cm[ids["b"]] || cm[ids["b"]] != cm[ids["c"]] {
		t.Fatalf("a/b/c split across components: %d %d %d", cm[ids["a"]], cm[ids["b"]], cm[ids["c"]])
	}
	distinct := map[int32]bool{cm[ids["a"]]: true, cm[ids["d"]]: true, cm[ids["e"]]: true, cm[ids["f"]]: true}
	if len(distinct) != 4 {
		t.Fatalf("expected 4 distinct components, got %d", len(distinct))
	}
}

// TestComponentMapDeterministic: the partition must be identical across
// repeated runs on the same graph — heat rollups keyed by it in different
// runs have to agree byte for byte.
func TestComponentMapDeterministic(t *testing.T) {
	prg, err := javagen.Generate(javagen.Params{
		Name: "comptest", Seed: 11, Containers: 3, CallDepth: 2,
		PayloadClasses: 3, PayloadFieldDepth: 3, AppMethods: 10, OpsPerApp: 10,
		Globals: 2, AppCallFanout: 1, HubFields: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		t.Fatal(err)
	}
	want := ComponentMap(lo.Graph)
	for i := 0; i < 5; i++ {
		if got := ComponentMap(lo.Graph); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d produced a different partition", i)
		}
	}
}

// randDirectGraph builds a pseudo-random graph of n nodes with direct
// (assign) edges between permuted node ids: order[i] is the node that plays
// logical role i. Edges are drawn from rng in logical-role space, so two
// graphs built with the same rng seed but different orders are isomorphic.
func randDirectGraph(t *testing.T, n int, seed int64, order []int) (*pag.Graph, []pag.NodeID) {
	t.Helper()
	g := pag.NewGraph()
	ids := make([]pag.NodeID, n) // ids[role] = node id of logical role
	for _, role := range order {
		ids[role] = g.AddLocal("", 0, 0)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2*n; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		g.AddEdge(pag.Edge{Dst: ids[a], Src: ids[b], Kind: pag.EdgeAssignLocal})
	}
	g.Freeze()
	return g, ids
}

// TestComponentMapPermutationStability: relabelling the nodes of the same
// logical PAG must not change the partition — roles grouped together in one
// ordering are grouped together in every ordering.
func TestComponentMapPermutationStability(t *testing.T) {
	const n = 150
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	perm := rand.New(rand.NewSource(99)).Perm(n)

	g1, ids1 := randDirectGraph(t, n, 5, ident)
	g2, ids2 := randDirectGraph(t, n, 5, perm)
	cm1 := ComponentMap(g1)
	cm2 := ComponentMap(g2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			same1 := cm1[ids1[a]] == cm1[ids1[b]]
			same2 := cm2[ids2[a]] == cm2[ids2[b]]
			if same1 != same2 {
				t.Fatalf("roles %d,%d: together=%v under identity, %v under permutation", a, b, same1, same2)
			}
		}
	}
}

// BenchmarkComponentMap measures the partition pass on a generated
// benchmark graph — the cost an autopsy heat rollup pays per invocation.
func BenchmarkComponentMap(b *testing.B) {
	prg, err := javagen.Generate(javagen.Params{
		Name: "compbench", Seed: 13, Containers: 4, CallDepth: 3,
		PayloadClasses: 4, PayloadFieldDepth: 3, AppMethods: 16, OpsPerApp: 12,
		Globals: 3, AppCallFanout: 1, HubFields: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cm := ComponentMap(lo.Graph); len(cm) != lo.Graph.NumNodes() {
			b.Fatal("bad partition size")
		}
	}
}
