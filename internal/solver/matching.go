package solver

import (
	"fmt"

	"congesthard/internal/graph"
)

// MaxMatching computes a maximum cardinality matching of g exactly, via
// branch and bound on the lowest-indexed vertex with available neighbors.
// Practical to roughly 40 vertices; for the Section 5 protocols' witnesses.
func MaxMatching(g *graph.Graph) (int, []graph.Edge, error) {
	n := g.N()
	if n > 64 {
		return 0, nil, fmt.Errorf("exact matching limited to 64 vertices, got %d", n)
	}
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		adj[v] = g.NeighborIDs(v)
	}
	best := 0
	var bestEdges []graph.Edge
	current := make([]graph.Edge, 0, n/2)
	matched := newBitset(n)

	var recurse func(v int)
	recurse = func(v int) {
		// Skip matched or exhausted vertices.
		for v < n && matched.get(v) {
			v++
		}
		remaining := 0
		for u := v; u < n; u++ {
			if !matched.get(u) {
				remaining++
			}
		}
		if len(current)+remaining/2 <= best {
			return
		}
		if v >= n {
			if len(current) > best {
				best = len(current)
				bestEdges = append([]graph.Edge(nil), current...)
			}
			return
		}
		// Branch: match v with each available neighbor.
		for _, u := range adj[v] {
			if matched.get(u) {
				continue
			}
			matched.set(v)
			matched.set(u)
			e := graph.Edge{U: v, V: u}
			if u < v {
				e = graph.Edge{U: u, V: v}
			}
			current = append(current, e)
			recurse(v + 1)
			current = current[:len(current)-1]
			matched.clear(v)
			matched.clear(u)
		}
		// Branch: leave v unmatched.
		matched.set(v)
		recurse(v + 1)
		matched.clear(v)
	}
	recurse(0)
	return best, bestEdges, nil
}

// IsMatching reports whether the edge set is a matching in g (edges exist
// and are pairwise disjoint).
func IsMatching(g *graph.Graph, edges []graph.Edge) bool {
	used := make(map[int]bool, 2*len(edges))
	for _, e := range edges {
		if !g.HasEdge(e.U, e.V) {
			return false
		}
		if used[e.U] || used[e.V] {
			return false
		}
		used[e.U] = true
		used[e.V] = true
	}
	return true
}

// TutteBergeDeficiency computes odd(G - U) - |U| for a vertex set U, where
// odd counts odd-cardinality components. The Tutte-Berge formula says
// max matching = (n - max_U deficiency)/2, so any U with
// (n - deficiency)/2 < k certifies "matching < k" — the witness the
// Section 5.2 matching protocols use.
func TutteBergeDeficiency(g *graph.Graph, u []int) int {
	inU := make([]bool, g.N())
	for _, v := range u {
		if v >= 0 && v < g.N() {
			inU[v] = true
		}
	}
	sub, _ := g.InducedSubgraph(func(v int) bool { return !inU[v] })
	comp, count := sub.Components()
	size := make([]int, count)
	for _, c := range comp {
		size[c]++
	}
	odd := 0
	for _, s := range size {
		if s%2 == 1 {
			odd++
		}
	}
	return odd - len(u)
}

// VerifyMatchingUpperBoundWitness checks a Tutte-Berge certificate: it
// returns true when the set U proves that every matching has size at most
// bound, i.e. (n - (odd(G-U) - |U|))/2 <= bound.
func VerifyMatchingUpperBoundWitness(g *graph.Graph, u []int, bound int) bool {
	deficiency := TutteBergeDeficiency(g, u)
	return (g.N()-deficiency)/2 <= bound
}
