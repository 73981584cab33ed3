package solver

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"congesthard/internal/graph"
)

// This file holds brute-force reference implementations used to
// cross-validate the optimized solvers in tests. They enumerate all 2^n
// vertex subsets and are limited to 20 vertices.

const bruteLimit = 20

func bruteCheckSize(n int) error {
	if n > bruteLimit {
		return fmt.Errorf("brute force limited to %d vertices, got %d", bruteLimit, n)
	}
	return nil
}

func maskToSet(mask int, n int) []int {
	var set []int
	for v := 0; v < n; v++ {
		if mask>>uint(v)&1 == 1 {
			set = append(set, v)
		}
	}
	return set
}

// BruteMinDominatingSetWeight returns the minimum weight of a dominating
// set by full enumeration. It tests domination on its own bit masks, not
// with the oracles' certificate checker.
func BruteMinDominatingSetWeight(g *graph.Graph) (int64, error) {
	n := g.N()
	if err := bruteCheckSize(n); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	closed := neighborMasks(g, true)
	best := int64(-1)
	for mask := 0; mask < 1<<uint(n); mask++ {
		dominated, weight := 0, int64(0)
		for m := mask; m != 0; m &= m - 1 {
			v := bits.TrailingZeros(uint(m))
			dominated |= closed[v]
			weight += g.VertexWeight(v)
		}
		if dominated == 1<<uint(n)-1 && (best < 0 || weight < best) {
			best = weight
		}
	}
	return best, nil
}

// BruteMaxWeightIndependentSet returns the maximum weight of an
// independent set by full enumeration. It tests independence on its own
// bit masks, not with the oracles' certificate checker.
func BruteMaxWeightIndependentSet(g *graph.Graph) (int64, error) {
	n := g.N()
	if err := bruteCheckSize(n); err != nil {
		return 0, err
	}
	open := neighborMasks(g, false)
	var best int64
	for mask := 0; mask < 1<<uint(n); mask++ {
		independent, weight := true, int64(0)
		for m := mask; m != 0 && independent; m &= m - 1 {
			v := bits.TrailingZeros(uint(m))
			independent = open[v]&mask == 0
			weight += g.VertexWeight(v)
		}
		if independent && weight > best {
			best = weight
		}
	}
	return best, nil
}

// neighborMasks returns each vertex's neighbourhood as a bit mask, closed
// (the vertex itself included) or open.
func neighborMasks(g *graph.Graph, closed bool) []int {
	masks := make([]int, g.N())
	for v := range masks {
		if closed {
			masks[v] = 1 << uint(v)
		}
		for _, h := range g.Neighbors(v) {
			masks[v] |= 1 << uint(h.To)
		}
	}
	return masks
}

// BruteMaxCut returns the maximum cut weight by full enumeration.
func BruteMaxCut(g *graph.Graph) (int64, error) {
	n := g.N()
	if err := bruteCheckSize(n); err != nil {
		return 0, err
	}
	var best int64
	side := make([]bool, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for v := 0; v < n; v++ {
			side[v] = mask>>uint(v)&1 == 1
		}
		if w := g.CutWeight(side); w > best {
			best = w
		}
	}
	return best, nil
}

// BruteMaxMatching returns the maximum matching size by enumerating edge
// subsets (limited to 20 edges).
func BruteMaxMatching(g *graph.Graph) (int, error) {
	edges := g.Edges()
	if len(edges) > bruteLimit {
		return 0, fmt.Errorf("brute matching limited to %d edges, got %d", bruteLimit, len(edges))
	}
	best := 0
	for mask := 0; mask < 1<<uint(len(edges)); mask++ {
		var chosen []graph.Edge
		for i, e := range edges {
			if mask>>uint(i)&1 == 1 {
				chosen = append(chosen, e)
			}
		}
		if len(chosen) > best && IsMatching(g, chosen) {
			best = len(chosen)
		}
	}
	return best, nil
}

// BruteHamiltonianPath reports whether g has a Hamiltonian path, by
// permutation-free DFS over all simple paths (limited to 12 vertices).
func BruteHamiltonianPath(g *graph.Graph) (bool, error) {
	n := g.N()
	if n > 12 {
		return false, fmt.Errorf("brute hamiltonian limited to 12 vertices, got %d", n)
	}
	if n == 0 {
		return false, nil
	}
	if n == 1 {
		return true, nil
	}
	visited := make([]bool, n)
	var dfs func(v, count int) bool
	dfs = func(v, count int) bool {
		if count == n {
			return true
		}
		for _, h := range g.Neighbors(v) {
			if !visited[h.To] {
				visited[h.To] = true
				if dfs(h.To, count+1) {
					return true
				}
				visited[h.To] = false
			}
		}
		return false
	}
	for start := 0; start < n; start++ {
		visited[start] = true
		if dfs(start, 1) {
			return true, nil
		}
		visited[start] = false
	}
	return false, nil
}

// BruteSteinerTree returns the minimum Steiner tree weight by enumerating
// subsets of non-terminals as Steiner points and taking a minimum spanning
// tree over each candidate vertex set (limited to 16 non-terminals). Exact
// because some optimal Steiner tree is a spanning tree of its vertex set,
// specifically an MST of the induced subgraph on terminals plus the chosen
// Steiner points, when the induced subgraph is connected.
//
// Each candidate set is a bitmask over the vertices: a flood over
// adjacency masks tests that it is connected, and only a connected set
// runs Kruskal over the weight-sorted edge list.
func BruteSteinerTree(g *graph.Graph, terminals []int) (int64, error) {
	n := g.N()
	words := (n + 63) / 64
	base := make([]uint64, words) // the terminal set
	for _, v := range terminals {
		base[v/64] |= 1 << (v % 64)
	}
	var others []int
	for v := 0; v < n; v++ {
		if base[v/64]>>(v%64)&1 == 0 {
			others = append(others, v)
		}
	}
	if len(others) > 16 {
		return 0, fmt.Errorf("brute steiner limited to 16 non-terminals, got %d", len(others))
	}
	adj := make([]uint64, n*words) // row v: v's neighbor set
	for v := 0; v < n; v++ {
		for _, h := range g.Neighbors(v) {
			adj[v*words+h.To/64] |= 1 << (h.To % 64)
		}
	}
	edges := g.Edges()
	slices.SortStableFunc(edges, func(a, b graph.Edge) int { return cmp.Compare(a.Weight, b.Weight) })
	set := make([]uint64, words)
	reach := make([]uint64, words)
	todo := make([]uint64, words)
	parent := make([]int, n)
	best := int64(-1)
	for mask := 0; mask < 1<<uint(len(others)); mask++ {
		copy(set, base)
		for i, v := range others {
			if mask>>uint(i)&1 == 1 {
				set[v/64] |= 1 << (v % 64)
			}
		}
		if !floodsAll(set, reach, todo, adj, words) {
			continue
		}
		for v := range parent {
			parent[v] = v
		}
		var w int64
		for _, e := range edges {
			if (set[e.U/64]>>(e.U%64))&(set[e.V/64]>>(e.V%64))&1 == 0 {
				continue
			}
			ru, rv := rootOf(parent, e.U), rootOf(parent, e.V)
			if ru != rv {
				parent[ru] = rv
				w += e.Weight
			}
		}
		if best < 0 || w < best {
			best = w
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("terminals not connected")
	}
	return best, nil
}

// floodsAll reports whether the vertex set is non-empty and connected in
// the graph whose neighbor sets are the rows of adj: it floods reach from
// the set's lowest vertex within the set, expanding each reached vertex
// once (todo holds the reached vertices not yet expanded).
func floodsAll(set, reach, todo, adj []uint64, words int) bool {
	clear(reach)
	for i, w := range set {
		if w != 0 {
			reach[i] = w & -w
			break
		}
	}
	copy(todo, reach)
	for i := 0; i < words; {
		if todo[i] == 0 {
			i++
			continue
		}
		v := i*64 + bits.TrailingZeros64(todo[i])
		todo[i] &= todo[i] - 1
		row := adj[v*words : (v+1)*words]
		for j, nbrs := range row {
			add := nbrs & set[j] &^ reach[j]
			reach[j] |= add
			todo[j] |= add
			if add != 0 && j < i {
				i = j
			}
		}
	}
	return slices.Equal(reach, set) && slices.ContainsFunc(set, func(w uint64) bool { return w != 0 })
}

// rootOf returns v's union-find representative, halving the path.
func rootOf(parent []int, v int) int {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// BruteDirectedHamiltonianPath reports whether d has a directed
// Hamiltonian path starting at start and, if end >= 0, ending at end, by
// the Held–Karp subset DP: reach[mask] is the set of vertices at which a
// path from start covering exactly mask can end (limited to 16 vertices).
func BruteDirectedHamiltonianPath(d *graph.Digraph, start, end int) (bool, error) {
	n := d.N()
	if n > 16 {
		return false, fmt.Errorf("brute directed hamiltonian limited to 16 vertices, got %d", n)
	}
	if start < 0 || start >= n || end >= n {
		return false, fmt.Errorf("endpoints out of range: start=%d end=%d n=%d", start, end, n)
	}
	full := 1<<uint(n) - 1
	reach := make([]uint16, full+1)
	reach[1<<uint(start)] = 1 << uint(start)
	for mask := range reach {
		for heads := reach[mask]; heads != 0; heads &= heads - 1 {
			v := bits.TrailingZeros16(heads)
			for _, h := range d.OutNeighbors(v) {
				if mask>>uint(h.To)&1 == 0 {
					reach[mask|1<<uint(h.To)] |= 1 << uint(h.To)
				}
			}
		}
	}
	ends := uint16(full)
	if end >= 0 {
		ends = 1 << uint(end)
	}
	return reach[full]&ends != 0, nil
}
