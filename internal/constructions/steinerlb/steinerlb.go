// Package steinerlb implements the Section 2.3 family of lower bound
// graphs for the minimum Steiner tree problem (Theorem 2.7), derived from
// the MDS family of Section 2.1 via the reduction mechanism of Theorem 2.6.
//
// Every vertex v of the MDS graph G_{x,y} gains a copy ṽ; edges are
// (1) identity edges {ṽ, v}, (2) original edges {ũ, v} for every
// {u, v} ∈ E_{x,y}, (3) clique edges inside Ṽ_A and inside Ṽ_B, and
// (4) two crossing edges {f̃⁰_{A1}, f̃⁰_{B1}} and {t̃⁰_{A1}, t̃⁰_{B1}}.
// The terminals are all original vertices. Claim 2.8: a Steiner tree with
// 4k + 16·log(k) + 1 edges exists iff G_{x,y} has a dominating set of size
// 4·log(k) + 2, i.e. iff DISJ(x, y) = FALSE.
package steinerlb

import (
	"fmt"
	"sort"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// Family is the Steiner-tree family of Theorem 2.7.
type Family struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	MDS *mdslb.Family
}

var _ lbfamily.Family = (*Family)(nil)

// New returns the family for row size k (a power of two, >= 2).
func New(k int) (*Family, error) {
	inner, err := mdslb.New(k)
	if err != nil {
		return nil, err
	}
	f := &Family{MDS: inner}
	f.Delta = lbfamily.NewDelta(f)
	return f, nil
}

// Name returns "steiner".
func (f *Family) Name() string { return "steiner" }

// K returns k².
func (f *Family) K() int { return f.MDS.K() }

// Func returns ¬DISJ.
func (f *Family) Func() comm.Function { return f.MDS.Func() }

// N returns the vertex count 2*(4k + 12 log k).
func (f *Family) N() int { return 2 * f.MDS.N() }

// Tilde returns the copy vertex ṽ for an original vertex v.
func (f *Family) Tilde(v int) int { return f.MDS.N() + v }

// Terminals returns the terminal set: all original vertices.
func (f *Family) Terminals() []int {
	terms := make([]int, f.MDS.N())
	for v := range terms {
		terms[v] = v
	}
	return terms
}

// TargetEdges returns the Steiner tree size of the predicate,
// 4k + 16 log k + 1.
func (f *Family) TargetEdges() int {
	return 4*f.MDS.RowSize() + 16*f.MDS.LogK() + 1
}

// AliceSide marks V_A ∪ Ṽ_A.
func (f *Family) AliceSide() []bool {
	inner := f.MDS.AliceSide()
	side := make([]bool, f.N())
	for v, a := range inner {
		side[v] = a
		side[f.Tilde(v)] = a
	}
	return side
}

// Build applies the Theorem 2.6 transformation to the MDS graph.
func (f *Family) Build(x, y comm.Bits) (*graph.Graph, error) {
	inner, err := f.MDS.Build(x, y)
	if err != nil {
		return nil, err
	}
	n := inner.N()
	g := graph.New(2 * n)
	// (1) identity edges.
	for v := 0; v < n; v++ {
		g.MustAddEdge(f.Tilde(v), v)
	}
	// (2) original edges, both orientations of each undirected edge.
	for _, e := range inner.Edges() {
		g.MustAddEdge(f.Tilde(e.U), e.V)
		g.MustAddEdge(f.Tilde(e.V), e.U)
	}
	// (3) clique edges inside each side's copies.
	aliceSide := f.MDS.AliceSide()
	var aCopies, bCopies []int
	for v := 0; v < n; v++ {
		if aliceSide[v] {
			aCopies = append(aCopies, f.Tilde(v))
		} else {
			bCopies = append(bCopies, f.Tilde(v))
		}
	}
	for i, u := range aCopies {
		for _, v := range aCopies[i+1:] {
			g.MustAddEdge(u, v)
		}
	}
	for i, u := range bCopies {
		for _, v := range bCopies[i+1:] {
			g.MustAddEdge(u, v)
		}
	}
	// (4) the two crossing edges.
	g.MustAddEdge(f.Tilde(f.MDS.FVertex(mdslb.SetA1, 0)), f.Tilde(f.MDS.FVertex(mdslb.SetB1, 0)))
	g.MustAddEdge(f.Tilde(f.MDS.TVertex(mdslb.SetA1, 0)), f.Tilde(f.MDS.TVertex(mdslb.SetB1, 0)))
	return g, nil
}

// Predicate decides exactly whether the graph has a Steiner tree spanning
// the terminals with at most TargetEdges edges.
func (f *Family) Predicate(g *graph.Graph) (bool, error) {
	return solver.HasSteinerTreeWithEdges(g, f.Terminals(), f.TargetEdges())
}

// WitnessSteinerTree builds the Steiner tree that the proof of Claim 2.8
// exhibits from the Lemma 2.1 dominating set when x and y intersect: a
// star over C̃_A, a star over C̃_B, the crossing edge matching the shared
// index's bit 0, and one edge from C̃ to each terminal. The returned edge
// list has exactly TargetEdges entries.
func (f *Family) WitnessSteinerTree(x, y comm.Bits) ([]graph.Edge, error) {
	domSet, err := f.MDS.WitnessDominatingSet(x, y)
	if err != nil {
		return nil, err
	}
	innerG, err := f.MDS.Build(x, y)
	if err != nil {
		return nil, err
	}
	aliceSide := f.MDS.AliceSide()
	inC := make([]bool, innerG.N())
	var cA, cB []int
	for _, v := range domSet {
		inC[v] = true
		if aliceSide[v] {
			cA = append(cA, v)
		} else {
			cB = append(cB, v)
		}
	}
	var edges []graph.Edge
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		edges = append(edges, graph.Edge{U: u, V: v, Weight: 1})
	}
	// Stars over the copies.
	for _, part := range [][]int{cA, cB} {
		for _, v := range part[1:] {
			addEdge(f.Tilde(part[0]), f.Tilde(v))
		}
	}
	// Crossing edge: the witness set contains f⁰ on both sides when the
	// shared index has bit 0 set, else t⁰ on both sides.
	fA0 := f.MDS.FVertex(mdslb.SetA1, 0)
	if inC[fA0] {
		addEdge(f.Tilde(fA0), f.Tilde(f.MDS.FVertex(mdslb.SetB1, 0)))
	} else {
		addEdge(f.Tilde(f.MDS.TVertex(mdslb.SetA1, 0)), f.Tilde(f.MDS.TVertex(mdslb.SetB1, 0)))
	}
	// One edge from the copy of a dominator to each terminal.
	for v := 0; v < innerG.N(); v++ {
		dominator := -1
		if inC[v] {
			dominator = v
		} else {
			for _, h := range innerG.Neighbors(v) {
				if inC[h.To] {
					dominator = h.To
					break
				}
			}
		}
		if dominator < 0 {
			return nil, fmt.Errorf("internal: witness set does not dominate %d", v)
		}
		addEdge(f.Tilde(dominator), v)
	}
	return edges, nil
}

// DominatingSetFromSteinerTree implements the converse direction of
// Claim 2.8 constructively: given any Steiner tree (edge list) of the
// derived graph with at most TargetEdges edges, it extracts a dominating
// set of size at most 4 log k + 2 for the inner MDS graph — the tree's
// non-terminal vertices, un-tilded.
func (f *Family) DominatingSetFromSteinerTree(edges []graph.Edge) []int {
	n := f.MDS.N()
	used := map[int]bool{}
	for _, e := range edges {
		for _, v := range []int{e.U, e.V} {
			if v >= n {
				used[v-n] = true
			}
		}
	}
	set := make([]int, 0, len(used))
	for v := range used {
		set = append(set, v)
	}
	// Collected from a map: sort so the extracted dominating set is
	// deterministic for replay-exact verification.
	sort.Ints(set)
	return set
}
