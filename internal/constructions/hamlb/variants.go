package hamlb

import (
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// CycleFamily is the directed Hamiltonian cycle family of Theorem 2.3
// (Claim 2.6): the path family plus a middle vertex with arcs end -> middle
// and middle -> start, so a Hamiltonian cycle exists iff a Hamiltonian path
// did. The middle vertex joins Alice's side, growing the cut by one.
type CycleFamily struct {
	*lbfamily.Delta[*graph.Digraph] // BuildBase and ApplyBit, derived from Build

	Path *Family
}

var _ lbfamily.DeltaDigraphFamily = (*CycleFamily)(nil)

// NewCycle returns the cycle family for row size k.
func NewCycle(k int) (*CycleFamily, error) {
	inner, err := New(k)
	if err != nil {
		return nil, err
	}
	c := &CycleFamily{Path: inner}
	c.Delta = lbfamily.NewDigraphDelta(c)
	return c, nil
}

// Name returns "hamcycle".
func (c *CycleFamily) Name() string { return "hamcycle" }

// K returns k².
func (c *CycleFamily) K() int { return c.Path.K() }

// Func returns ¬DISJ.
func (c *CycleFamily) Func() comm.Function { return c.Path.Func() }

// Middle returns the id of the added vertex.
func (c *CycleFamily) Middle() int { return c.Path.N() }

// Build adds middle and the closing arcs to the path construction.
func (c *CycleFamily) Build(x, y comm.Bits) (*graph.Digraph, error) {
	inner, err := c.Path.Build(x, y)
	if err != nil {
		return nil, err
	}
	d := graph.NewDigraph(inner.N() + 1)
	for _, a := range inner.Arcs() {
		d.MustAddWeightedArc(a.From, a.To, a.Weight)
	}
	d.MustAddArc(c.Path.End(), c.Middle())
	d.MustAddArc(c.Middle(), c.Path.Start())
	return d, nil
}

// AliceSide extends the path family's side with middle on Alice's side.
func (c *CycleFamily) AliceSide() []bool {
	side := append([]bool(nil), c.Path.AliceSide()...)
	return append(side, true)
}

// Predicate decides directed Hamiltonian cycle existence exactly.
func (c *CycleFamily) Predicate(d *graph.Digraph) (bool, error) {
	_, found, err := solver.DirectedHamiltonianCycle(d)
	return found, err
}

// PathFromCycleGraph applies the Lemma 2.3 reduction to one instance:
// given an undirected graph and a chosen vertex v, it returns a graph that
// has a Hamiltonian path iff g has a Hamiltonian cycle. v is duplicated
// into v1 (old id v) and v2, with pendant vertices s attached to v1 and t
// to v2; ids: v2 = n, s = n+1, t = n+2.
func PathFromCycleGraph(g *graph.Graph, v int) (*graph.Graph, error) {
	n := g.N()
	if v < 0 || v >= n {
		return nil, fmt.Errorf("vertex %d out of range", v)
	}
	out := graph.New(n + 3)
	v2, s, t := n, n+1, n+2
	for _, e := range g.Edges() {
		out.MustAddWeightedEdge(e.U, e.V, e.Weight)
		if e.U == v {
			out.MustAddWeightedEdge(v2, e.V, e.Weight)
		}
		if e.V == v {
			out.MustAddWeightedEdge(e.U, v2, e.Weight)
		}
	}
	out.MustAddEdge(s, v)
	out.MustAddEdge(v2, t)
	return out, nil
}
