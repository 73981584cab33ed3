package kmdslb

import (
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// NodeSteinerFamily is the Theorem 4.6 node-weighted Steiner tree variant:
// the Figure 5 graph with weights 0 on {a, b, R} and the element vertices,
// terminals A ∪ B, and Lemma 4.5's gap — a Steiner tree of weight 2 iff
// the inputs intersect, weight > r otherwise.
type NodeSteinerFamily struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	Inner *TwoMDSFamily
}

var _ lbfamily.Family = (*NodeSteinerFamily)(nil)

// NewNodeSteiner returns the node-weighted Steiner family.
func NewNodeSteiner(p Params) (*NodeSteinerFamily, error) {
	inner, err := NewTwoMDS(p)
	if err != nil {
		return nil, err
	}
	f := &NodeSteinerFamily{Inner: inner}
	f.Delta = lbfamily.NewDelta(f)
	return f, nil
}

// Name returns "node-steiner".
func (f *NodeSteinerFamily) Name() string { return "node-steiner" }

// K returns T.
func (f *NodeSteinerFamily) K() int { return f.Inner.K() }

// Func returns ¬DISJ.
func (f *NodeSteinerFamily) Func() comm.Function { return f.Inner.Func() }

// AliceSide matches the inner family.
func (f *NodeSteinerFamily) AliceSide() []bool { return f.Inner.AliceSide() }

// Terminals returns A ∪ B.
func (f *NodeSteinerFamily) Terminals() []int {
	l := f.Inner.p.Collection.L
	terms := make([]int, 0, 2*l)
	for j := 0; j < l; j++ {
		terms = append(terms, f.Inner.AVertex(j), f.Inner.BVertex(j))
	}
	return terms
}

// Build reuses the Figure 5 graph with the Steiner weight profile.
func (f *NodeSteinerFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	g, err := f.Inner.Build(x, y)
	if err != nil {
		return nil, err
	}
	// Zero out hubs, root and elements; set weights stay input-driven.
	for j := 0; j < f.Inner.p.Collection.L; j++ {
		if err := g.SetVertexWeight(f.Inner.AVertex(j), 0); err != nil {
			return nil, err
		}
		if err := g.SetVertexWeight(f.Inner.BVertex(j), 0); err != nil {
			return nil, err
		}
	}
	for _, v := range []int{f.Inner.HubA(), f.Inner.HubB(), f.Inner.Root()} {
		if err := g.SetVertexWeight(v, 0); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Predicate decides whether a connected subgraph of node weight at most 2
// spans all terminals (Lemma 4.5's YES side).
func (f *NodeSteinerFamily) Predicate(g *graph.Graph) (bool, error) {
	return solver.HasNodeSteinerWithin(g, f.Terminals(), 2)
}

// DirSteinerFamily is the Theorem 4.7 directed Steiner tree variant
// (Figure 6): arcs R->a, R->b, a->S_i (weight 1), b->S̄_i (weight 1),
// element pair arcs a_j <-> b_j (weight 0), input-dependent arcs
// S_i -> a_j for j in S_i present iff x_i = 1 (resp. S̄_i, y), and
// feasibility arcs a -> a_j, b -> b_j of weight α.
type DirSteinerFamily struct {
	*lbfamily.Delta[*graph.Digraph] // BuildBase and ApplyBit, derived from Build

	Inner *TwoMDSFamily
}

var _ lbfamily.DigraphFamily = (*DirSteinerFamily)(nil)

// NewDirSteiner returns the directed Steiner family.
func NewDirSteiner(p Params) (*DirSteinerFamily, error) {
	inner, err := NewTwoMDS(p)
	if err != nil {
		return nil, err
	}
	f := &DirSteinerFamily{Inner: inner}
	f.Delta = lbfamily.NewDigraphDelta(f)
	return f, nil
}

// Name returns "dir-steiner".
func (f *DirSteinerFamily) Name() string { return "dir-steiner" }

// K returns T.
func (f *DirSteinerFamily) K() int { return f.Inner.K() }

// Func returns ¬DISJ.
func (f *DirSteinerFamily) Func() comm.Function { return f.Inner.Func() }

// AliceSide matches the inner layout.
func (f *DirSteinerFamily) AliceSide() []bool { return f.Inner.AliceSide() }

// Terminals returns A ∪ B.
func (f *DirSteinerFamily) Terminals() []int {
	l := f.Inner.p.Collection.L
	terms := make([]int, 0, 2*l)
	for j := 0; j < l; j++ {
		terms = append(terms, f.Inner.AVertex(j), f.Inner.BVertex(j))
	}
	return terms
}

// Build constructs the directed instance.
func (f *DirSteinerFamily) Build(x, y comm.Bits) (*graph.Digraph, error) {
	t := f.Inner.p.Collection.T()
	if x.Len() != t || y.Len() != t {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", t, x.Len(), y.Len())
	}
	cl := f.Inner.p.Collection
	alpha := f.Inner.p.Alpha()
	d := graph.NewDigraph(f.Inner.N())
	d.MustAddWeightedArc(f.Inner.Root(), f.Inner.HubA(), 0)
	d.MustAddWeightedArc(f.Inner.Root(), f.Inner.HubB(), 0)
	for j := 0; j < cl.L; j++ {
		d.MustAddWeightedArc(f.Inner.AVertex(j), f.Inner.BVertex(j), 0)
		d.MustAddWeightedArc(f.Inner.BVertex(j), f.Inner.AVertex(j), 0)
		d.MustAddWeightedArc(f.Inner.HubA(), f.Inner.AVertex(j), alpha)
		d.MustAddWeightedArc(f.Inner.HubB(), f.Inner.BVertex(j), alpha)
	}
	for i := 0; i < t; i++ {
		d.MustAddWeightedArc(f.Inner.HubA(), f.Inner.SVertex(i), 1)
		d.MustAddWeightedArc(f.Inner.HubB(), f.Inner.SBarVertex(i), 1)
		for j := 0; j < cl.L; j++ {
			if cl.Contains(i, j) {
				if x.Get(i) {
					d.MustAddWeightedArc(f.Inner.SVertex(i), f.Inner.AVertex(j), 0)
				}
			} else if y.Get(i) {
				d.MustAddWeightedArc(f.Inner.SBarVertex(i), f.Inner.BVertex(j), 0)
			}
		}
	}
	return d, nil
}

// Predicate decides whether a directed Steiner tree of weight at most 2
// rooted at R spans all terminals (Lemma 4.6's YES side).
func (f *DirSteinerFamily) Predicate(d *graph.Digraph) (bool, error) {
	return solver.HasDirectedSteinerWithin(d, f.Inner.Root(), f.Terminals(), 2)
}

// RestrictedFamily is the Figure 7 construction for Theorem 4.8: the
// element rows {a_j}, {b_j} collapse to single shared vertices {j}. The
// gap (MDS of weight 2 vs > r) survives, but the cut through the shared
// vertices is Θ(ℓ·T), so Theorem 1.1 gives nothing — the hardness applies
// only to local aggregate algorithms, simulated by package aggregate with
// the shared elements metered at O(ℓ log n) bits per round.
type RestrictedFamily struct {
	Inner *TwoMDSFamily
}

// NewRestricted returns the Figure 7 family.
func NewRestricted(p Params) (*RestrictedFamily, error) {
	inner, err := NewTwoMDS(p)
	if err != nil {
		return nil, err
	}
	return &RestrictedFamily{Inner: inner}, nil
}

// K returns T.
func (f *RestrictedFamily) K() int { return f.Inner.K() }

// Element returns the shared element vertex j.
func (f *RestrictedFamily) Element(j int) int { return j }

// SVertex returns S_i.
func (f *RestrictedFamily) SVertex(i int) int { return f.Inner.p.Collection.L + i }

// SBarVertex returns S̄_i.
func (f *RestrictedFamily) SBarVertex(i int) int {
	return f.Inner.p.Collection.L + f.Inner.p.Collection.T() + i
}

// HubA returns hub a.
func (f *RestrictedFamily) HubA() int { return f.Inner.p.Collection.L + 2*f.Inner.p.Collection.T() }

// HubB returns hub b.
func (f *RestrictedFamily) HubB() int { return f.HubA() + 1 }

// Root returns R.
func (f *RestrictedFamily) Root() int { return f.HubA() + 2 }

// N returns ℓ + 2T + 3.
func (f *RestrictedFamily) N() int { return f.Root() + 1 }

// SharedElements returns the ids of the vertices simulated jointly by
// Alice and Bob.
func (f *RestrictedFamily) SharedElements() []int {
	shared := make([]int, f.Inner.p.Collection.L)
	for j := range shared {
		shared[j] = j
	}
	return shared
}

// Sides returns Alice's exclusive vertices, Bob's exclusive vertices,
// and the shared elements. (This family does not fit Definition 1.1's
// fixed-partition shape — that is its point.)
func (f *RestrictedFamily) Sides() (alice, bob []int) {
	for i := 0; i < f.Inner.p.Collection.T(); i++ {
		alice = append(alice, f.SVertex(i))
		bob = append(bob, f.SBarVertex(i))
	}
	alice = append(alice, f.HubA())
	bob = append(bob, f.HubB(), f.Root())
	return alice, bob
}

// Build constructs the Figure 7 graph.
func (f *RestrictedFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	t := f.Inner.p.Collection.T()
	if x.Len() != t || y.Len() != t {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", t, x.Len(), y.Len())
	}
	cl := f.Inner.p.Collection
	alpha := f.Inner.p.Alpha()
	g := graph.New(f.N())
	for j := 0; j < cl.L; j++ {
		if err := g.SetVertexWeight(f.Element(j), alpha); err != nil {
			return nil, err
		}
	}
	for i := 0; i < t; i++ {
		for j := 0; j < cl.L; j++ {
			if cl.Contains(i, j) {
				g.MustAddEdge(f.SVertex(i), f.Element(j))
			} else {
				g.MustAddEdge(f.SBarVertex(i), f.Element(j))
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
	for _, v := range []int{f.HubA(), f.HubB()} {
		if err := g.SetVertexWeight(v, 0); err != nil {
			return nil, err
		}
	}
	if err := g.SetVertexWeight(f.Root(), 0); err != nil {
		return nil, err
	}
	return g, nil
}

// Predicate decides whether an MDS of weight at most 2 exists (Lemma 4.7's
// YES side).
func (f *RestrictedFamily) Predicate(g *graph.Graph) (bool, error) {
	_, _, found, err := solver.MinDominatingSetWithin(g, 2)
	return found, err
}
