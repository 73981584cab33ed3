// Package kmdslb implements the Section 4.2-4.5 hardness-of-approximation
// constructions built on r-covering set collections (package cover):
//
//   - TwoMDSFamily (Theorem 4.4, Figure 5): weighted 2-MDS has weight 2
//     iff DISJ(x,y) = FALSE, and otherwise weight > r — a gap that rules
//     out O(log n)-approximations in o(n^{1-ε}) rounds.
//   - KMDSFamily (Theorem 4.5): the k >= 2 generalization with set-element
//     edges subdivided into paths of length k-1.
//   - NodeSteinerFamily (Theorem 4.6): the node-weighted Steiner variant.
//   - DirSteinerFamily (Theorem 4.7, Figure 6): the directed, edge-
//     weighted Steiner variant rooted at R.
//   - RestrictedFamily (Theorem 4.8, Figure 7): the single-element-row MDS
//     variant whose shared element vertices the local-aggregate simulation
//     of package aggregate charges for.
//
// In every family the input bits set the weights of the set vertices: S_i
// costs 1 if x_i = 1 and the prohibitive α = r+1 otherwise; S̄_i likewise
// from y. A weight-2 solution therefore needs an index i with
// x_i = y_i = 1, and the r-covering property blocks any light solution
// otherwise.
package kmdslb

import (
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// Params configures the constructions.
type Params struct {
	// Collection is a verified r-covering collection (see cover.Find).
	Collection cover.Collection
	// R is the covering parameter; any light cover needs more than R sets.
	R int
}

// Alpha returns the prohibitive weight α = R + 1.
func (p Params) Alpha() int64 { return int64(p.R + 1) }

// TwoMDSFamily is the Figure 5 construction.
type TwoMDSFamily struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	p Params
}

var _ lbfamily.Family = (*TwoMDSFamily)(nil)

// NewTwoMDS returns the 2-MDS family over the given collection.
func NewTwoMDS(p Params) (*TwoMDSFamily, error) {
	if p.Collection.T() < 1 || p.Collection.L < 1 {
		return nil, fmt.Errorf("empty collection")
	}
	if p.R < 2 {
		// With r = 1 two light sets could cover the universe, collapsing
		// the weight-2 gap; the lemma needs r >= 2.
		return nil, fmt.Errorf("r must be >= 2, got %d", p.R)
	}
	f := &TwoMDSFamily{p: p}
	f.Delta = lbfamily.NewDelta(f)
	return f, nil
}

// Name returns "2-mds".
func (f *TwoMDSFamily) Name() string { return "2-mds" }

// K returns T, the input length.
func (f *TwoMDSFamily) K() int { return f.p.Collection.T() }

// Func returns ¬DISJ.
func (f *TwoMDSFamily) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

// Vertex layout: a_0..a_{L-1} | b_0..b_{L-1} | S_0..S_{T-1} | S̄_0.. |
// a | b | R.

// AVertex returns a_j.
func (f *TwoMDSFamily) AVertex(j int) int { return j }

// BVertex returns b_j.
func (f *TwoMDSFamily) BVertex(j int) int { return f.p.Collection.L + j }

// SVertex returns S_i.
func (f *TwoMDSFamily) SVertex(i int) int { return 2*f.p.Collection.L + i }

// SBarVertex returns S̄_i.
func (f *TwoMDSFamily) SBarVertex(i int) int {
	return 2*f.p.Collection.L + f.p.Collection.T() + i
}

// HubA returns the hub vertex a.
func (f *TwoMDSFamily) HubA() int { return 2*f.p.Collection.L + 2*f.p.Collection.T() }

// HubB returns the hub vertex b.
func (f *TwoMDSFamily) HubB() int { return f.HubA() + 1 }

// Root returns the weight-0 vertex R.
func (f *TwoMDSFamily) Root() int { return f.HubA() + 2 }

// N returns 2L + 2T + 3.
func (f *TwoMDSFamily) N() int { return f.Root() + 1 }

// AliceSide marks {a_j}, {S_i} and a.
func (f *TwoMDSFamily) AliceSide() []bool {
	side := make([]bool, f.N())
	for j := 0; j < f.p.Collection.L; j++ {
		side[f.AVertex(j)] = true
	}
	for i := 0; i < f.p.Collection.T(); i++ {
		side[f.SVertex(i)] = true
	}
	side[f.HubA()] = true
	return side
}

// Build constructs the instance: edges are fixed, only vertex weights
// depend on the inputs.
func (f *TwoMDSFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	t := f.p.Collection.T()
	if x.Len() != t || y.Len() != t {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", t, x.Len(), y.Len())
	}
	g := graph.New(f.N())
	alpha := f.p.Alpha()
	l := f.p.Collection.L
	for j := 0; j < l; j++ {
		g.MustAddEdge(f.AVertex(j), f.BVertex(j))
		if err := g.SetVertexWeight(f.AVertex(j), alpha); err != nil {
			return nil, err
		}
		if err := g.SetVertexWeight(f.BVertex(j), alpha); err != nil {
			return nil, err
		}
	}
	for i := 0; i < t; i++ {
		for j := 0; j < l; j++ {
			if f.p.Collection.Contains(i, j) {
				g.MustAddEdge(f.SVertex(i), f.AVertex(j))
			} else {
				g.MustAddEdge(f.SBarVertex(i), f.BVertex(j))
			}
		}
		g.MustAddEdge(f.HubA(), f.SVertex(i))
		g.MustAddEdge(f.HubB(), f.SBarVertex(i))
		sw, sbw := alpha, alpha
		if x.Get(i) {
			sw = 1
		}
		if y.Get(i) {
			sbw = 1
		}
		if err := g.SetVertexWeight(f.SVertex(i), sw); err != nil {
			return nil, err
		}
		if err := g.SetVertexWeight(f.SBarVertex(i), sbw); err != nil {
			return nil, err
		}
	}
	g.MustAddEdge(f.Root(), f.HubA())
	g.MustAddEdge(f.Root(), f.HubB())
	if err := g.SetVertexWeight(f.HubA(), alpha); err != nil {
		return nil, err
	}
	if err := g.SetVertexWeight(f.HubB(), alpha); err != nil {
		return nil, err
	}
	if err := g.SetVertexWeight(f.Root(), 0); err != nil {
		return nil, err
	}
	return g, nil
}

// Predicate decides whether a 2-dominating set of weight at most 2 exists
// (Lemma 4.3's YES side; by the r-covering property the NO side exceeds
// r).
func (f *TwoMDSFamily) Predicate(g *graph.Graph) (bool, error) {
	_, _, found, err := solver.MinDominatingSetWithin(g.Power(2), 2)
	return found, err
}

// GapWeights returns, for an instance, the exact minimum 2-MDS weight —
// used by tests to confirm the 2 vs > r gap.
func (f *TwoMDSFamily) GapWeights(g *graph.Graph) (int64, error) {
	w, _, err := solver.MinDominatingSet(g.Power(2))
	return w, err
}

// KMDSFamily generalizes TwoMDSFamily to distance k >= 2 (Theorem 4.5):
// every set-element edge becomes a path with k-2 interior vertices of
// weight α.
type KMDSFamily struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	Inner *TwoMDSFamily
	Dist  int

	// interiorBase indexes the subdivision vertices: edge index e gets
	// vertices interiorBase + e*(Dist-2) + (0..Dist-3).
	edgeList [][2]int // (set vertex, element vertex) in fixed order
}

var _ lbfamily.Family = (*KMDSFamily)(nil)

// NewKMDS returns the k-MDS family (k >= 2; k = 2 is TwoMDSFamily's graph
// unchanged).
func NewKMDS(p Params, k int) (*KMDSFamily, error) {
	inner, err := NewTwoMDS(p)
	if err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("k must be >= 2, got %d", k)
	}
	f := &KMDSFamily{Inner: inner, Dist: k}
	f.Delta = lbfamily.NewDelta(f)
	// Fixed edge order for subdivision ids.
	cl := p.Collection
	for i := 0; i < cl.T(); i++ {
		for j := 0; j < cl.L; j++ {
			if cl.Contains(i, j) {
				f.edgeList = append(f.edgeList, [2]int{inner.SVertex(i), inner.AVertex(j)})
			} else {
				f.edgeList = append(f.edgeList, [2]int{inner.SBarVertex(i), inner.BVertex(j)})
			}
		}
	}
	return f, nil
}

// Name returns "k-mds".
func (f *KMDSFamily) Name() string { return "k-mds" }

// K returns T.
func (f *KMDSFamily) K() int { return f.Inner.K() }

// Func returns ¬DISJ.
func (f *KMDSFamily) Func() comm.Function { return f.Inner.Func() }

// N returns the vertex count including subdivision vertices.
func (f *KMDSFamily) N() int {
	return f.Inner.N() + len(f.edgeList)*(f.Dist-2)
}

// AliceSide marks the inner Alice side plus the subdivision vertices of
// Alice-side edges (paths S_i - a_j stay on Alice's side, S̄_i - b_j on
// Bob's).
func (f *KMDSFamily) AliceSide() []bool {
	side := make([]bool, f.N())
	inner := f.Inner.AliceSide()
	copy(side, inner)
	for e, pair := range f.edgeList {
		onAlice := inner[pair[0]]
		for s := 0; s < f.Dist-2; s++ {
			side[f.Inner.N()+e*(f.Dist-2)+s] = onAlice
		}
	}
	return side
}

// Build subdivides the set-element edges of the inner construction.
func (f *KMDSFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	inner, err := f.Inner.Build(x, y)
	if err != nil {
		return nil, err
	}
	if f.Dist == 2 {
		return inner, nil
	}
	g := graph.New(f.N())
	for v := 0; v < inner.N(); v++ {
		if err := g.SetVertexWeight(v, inner.VertexWeight(v)); err != nil {
			return nil, err
		}
	}
	alpha := f.Inner.p.Alpha()
	subdivided := make(map[[2]int]bool, len(f.edgeList))
	for e, pair := range f.edgeList {
		subdivided[pair] = true
		prev := pair[0]
		for s := 0; s < f.Dist-2; s++ {
			mid := f.Inner.N() + e*(f.Dist-2) + s
			if err := g.SetVertexWeight(mid, alpha); err != nil {
				return nil, err
			}
			g.MustAddEdge(prev, mid)
			prev = mid
		}
		g.MustAddEdge(prev, pair[1])
	}
	for _, edge := range inner.Edges() {
		if !subdivided[[2]int{edge.U, edge.V}] && !subdivided[[2]int{edge.V, edge.U}] {
			g.MustAddWeightedEdge(edge.U, edge.V, edge.Weight)
		}
	}
	return g, nil
}

// Predicate decides whether a k-dominating set of weight at most 2 exists.
func (f *KMDSFamily) Predicate(g *graph.Graph) (bool, error) {
	_, _, found, err := solver.MinDominatingSetWithin(g.Power(f.Dist), 2)
	return found, err
}
