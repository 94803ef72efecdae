package scc

import (
	"math/rand"
	"testing"
)

func TestSingleNode(t *testing.T) {
	comp, n := Compute(1, func(int) []int { return nil })
	if n != 1 || comp[0] != 0 {
		t.Fatalf("comp=%v n=%d", comp, n)
	}
}

func TestEmpty(t *testing.T) {
	comp, n := Compute(0, func(int) []int { return nil })
	if n != 0 || len(comp) != 0 {
		t.Fatalf("comp=%v n=%d", comp, n)
	}
}

func TestSelfLoop(t *testing.T) {
	comp, n := Compute(2, func(v int) []int {
		if v == 0 {
			return []int{0, 1}
		}
		return nil
	})
	if n != 2 || comp[0] == comp[1] {
		t.Fatalf("comp=%v n=%d", comp, n)
	}
}

func TestReverseTopologicalNumbering(t *testing.T) {
	// 0 -> 1 -> 2: sink gets the smallest component number.
	comp, n := Compute(3, func(v int) []int {
		if v < 2 {
			return []int{v + 1}
		}
		return nil
	})
	if n != 3 {
		t.Fatalf("n=%d", n)
	}
	if !(comp[2] < comp[1] && comp[1] < comp[0]) {
		t.Fatalf("not reverse-topological: %v", comp)
	}
}

func TestBigCycle(t *testing.T) {
	const n = 5000
	comp, nc := Compute(n, func(v int) []int { return []int{(v + 1) % n} })
	if nc != 1 {
		t.Fatalf("cycle split into %d components", nc)
	}
	for _, c := range comp {
		if c != 0 {
			t.Fatal("cycle members differ")
		}
	}
}

// TestRandomGraphInvariants: components partition nodes; mutual
// reachability within a component (checked by a reference DFS on small
// graphs).
func TestRandomGraphInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		adj := make([][]int, n)
		for v := 0; v < n; v++ {
			for e := 0; e < rng.Intn(4); e++ {
				adj[v] = append(adj[v], rng.Intn(n))
			}
		}
		comp, nc := Compute(n, func(v int) []int { return adj[v] })

		// Partition sanity.
		for _, c := range comp {
			if c < 0 || c >= nc {
				t.Fatalf("seed %d: component out of range", seed)
			}
		}

		// Reference reachability.
		reach := make([][]bool, n)
		for v := 0; v < n; v++ {
			reach[v] = make([]bool, n)
			stack := []int{v}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if reach[v][u] {
					continue
				}
				reach[v][u] = true
				stack = append(stack, adj[u]...)
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				same := comp[a] == comp[b]
				mutual := reach[a][b] && reach[b][a]
				if same != mutual {
					t.Fatalf("seed %d: nodes %d,%d: same-comp=%v mutual=%v", seed, a, b, same, mutual)
				}
			}
		}
	}
}

// TestRandomReverseTopoProperty: on larger random graphs, check the two
// properties sched relies on against a naive O(V*E) reference —
// same-component iff mutually reachable, and every cross-component edge
// u -> v lands in a smaller-numbered component (reverse topological
// numbering, so descending component order is a valid evaluation order).
func TestRandomReverseTopoProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 50 + rng.Intn(150)
		adj := make([][]int, n)
		for v := 0; v < n; v++ {
			for e := 0; e < rng.Intn(5); e++ {
				adj[v] = append(adj[v], rng.Intn(n))
			}
		}
		comp, nc := Compute(n, func(v int) []int { return adj[v] })

		// Every component index must actually be used.
		used := make([]bool, nc)
		for _, c := range comp {
			used[c] = true
		}
		for c, ok := range used {
			if !ok {
				t.Fatalf("seed %d: component %d unused", seed, c)
			}
		}

		// Cross-component edges point at strictly smaller components.
		for u := range adj {
			for _, v := range adj[u] {
				if comp[u] != comp[v] && comp[v] >= comp[u] {
					t.Fatalf("seed %d: edge %d->%d crosses from comp %d to %d (not reverse-topo)",
						seed, u, v, comp[u], comp[v])
				}
			}
		}

		// Naive mutual-reachability reference.
		reach := make([][]bool, n)
		for v := 0; v < n; v++ {
			reach[v] = make([]bool, n)
			stack := []int{v}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if reach[v][u] {
					continue
				}
				reach[v][u] = true
				stack = append(stack, adj[u]...)
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if same, mutual := comp[a] == comp[b], reach[a][b] && reach[b][a]; same != mutual {
					t.Fatalf("seed %d: nodes %d,%d: same-comp=%v mutual=%v", seed, a, b, same, mutual)
				}
			}
		}
	}
}

// TestSuccCalledOncePerNode: the walk must fetch each node's successor slice
// exactly once (the frame caches it). Calling succ per edge visit makes the
// walk quadratic for succ functions that materialise their slice, which is
// exactly how sched uses this package.
func TestSuccCalledOncePerNode(t *testing.T) {
	const n = 500
	calls := make([]int, n)
	adj := make([][]int, n)
	rng := rand.New(rand.NewSource(7))
	for v := 0; v < n; v++ {
		for e := 0; e < 4; e++ {
			adj[v] = append(adj[v], rng.Intn(n))
		}
	}
	Compute(n, func(v int) []int {
		calls[v]++
		return adj[v]
	})
	for v, c := range calls {
		if c != 1 {
			t.Fatalf("succ(%d) called %d times, want 1", v, c)
		}
	}
}

// TestDeepGraph: a 200k-node path and a 200k-node cycle — the explicit-stack
// DFS must handle recursion depths that would overflow a call stack.
func TestDeepGraph(t *testing.T) {
	const n = 200_000
	path := func(v int) []int {
		if v+1 < n {
			return []int{v + 1}
		}
		return nil
	}
	comp, nc := Compute(n, path)
	if nc != n {
		t.Fatalf("path of %d nodes gave %d components", n, nc)
	}
	for v := 0; v+1 < n; v++ {
		if comp[v+1] >= comp[v] {
			t.Fatalf("path numbering not reverse-topo at %d", v)
		}
	}

	cycle := func(v int) []int { return []int{(v + 1) % n} }
	comp, nc = Compute(n, cycle)
	if nc != 1 {
		t.Fatalf("cycle of %d nodes split into %d components", n, nc)
	}
	for v, c := range comp {
		if c != 0 {
			t.Fatalf("cycle member %d in component %d", v, c)
		}
	}
}
