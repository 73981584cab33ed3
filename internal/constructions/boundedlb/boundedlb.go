// Package boundedlb implements the Section 3 bounded-degree lower bound
// machinery (Theorems 3.1-3.4): the full reduction pipeline
//
//	G_{x,y}  ->  φ  ->  φ'  ->  G'_{x,y}
//
// applied to the MVC/MaxIS base family (package mvclb), yielding graphs of
// maximum degree 5 and logarithmic diameter in which computing a MaxIS
// exactly still requires Ω̃(n) rounds.
//
// Unlike the Section 2 families, the derived graphs' vertex count varies
// with the inputs (the base construction's edge count does), so the result
// is proved by the direct two-party simulation of Claim 3.6 rather than by
// Theorem 1.1 verbatim; correspondingly this package exposes the pipeline,
// its invariants (degree, diameter, cut size, and the α bookkeeping
// α(G') = α(G) + m_G + m_exp) rather than an lbfamily.Family.
//
// Section 3.3's reductions are also provided: MVC is the complement of
// MaxIS on the same graphs, and MDSReduction converts a bounded-degree MVC
// instance into a bounded-degree MDS instance by subdividing edges.
package boundedlb

import (
	"fmt"

	"congesthard/internal/cnf"
	"congesthard/internal/comm"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/expander"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// Pipeline carries the parameters of the Section 3 reduction chain.
type Pipeline struct {
	// Seed drives the verified-expander sampling, fixed so Alice and Bob
	// build identical gadgets without communication.
	Seed int64
}

// Result is a bounded-degree instance produced by the pipeline.
type Result struct {
	// Graph is G', the bounded-degree MaxIS instance.
	Graph *graph.Graph
	// AlphaShift is m_G + m_exp: α(G') = α(G) + AlphaShift
	// (Claims 3.1, 3.4 and Corollary 3.1).
	AlphaShift int
	// NumExpanderClauses is m_exp alone.
	NumExpanderClauses int
	// VertexSide, when the input graph came with a bipartition, marks
	// Alice's vertices of G' (a literal-occurrence vertex belongs to the
	// player owning its variable's original vertex).
	VertexSide []bool
	// CutSize is the number of G' edges crossing VertexSide; it equals the
	// number of cut edges of the base graph (each becomes exactly one
	// 2-clause, hence one edge).
	CutSize int
}

// Apply runs the chain on any graph. If aliceSide is non-nil it must mark
// a bipartition of g's vertices; the derived side marking and cut size are
// then reported.
func (p Pipeline) Apply(g *graph.Graph, aliceSide []bool) (*Result, error) {
	phi := cnf.GraphToFormula(g)
	expanded, err := cnf.ExpandFormula(phi, func(d int) (*graph.Graph, []int, error) {
		return expander.Gadget(d, p.Seed)
	})
	if err != nil {
		return nil, err
	}
	gPrime, owners, err := cnf.FormulaToGraph(expanded.Formula)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Graph:              gPrime,
		AlphaShift:         g.M() + expanded.NumExpanderClauses,
		NumExpanderClauses: expanded.NumExpanderClauses,
	}
	if aliceSide != nil {
		if len(aliceSide) != g.N() {
			return nil, fmt.Errorf("aliceSide length %d != n %d", len(aliceSide), g.N())
		}
		res.VertexSide = make([]bool, gPrime.N())
		for vid, owner := range owners {
			clause := expanded.Formula.Clauses[owner[0]]
			origVar := expanded.VarOrigin[clause[owner[1]].Var]
			res.VertexSide[vid] = aliceSide[origVar]
		}
		res.CutSize = len(gPrime.CutEdges(res.VertexSide))
	}
	return res, nil
}

// Instance bundles a bounded-degree MaxIS instance derived from the base
// family with the bookkeeping needed to read α(G') off the base answer.
type Instance struct {
	Result *Result
	// AlphaTargetPrime is the α(G') value achieved iff DISJ(x,y) = FALSE:
	// the base family's Z plus AlphaShift.
	AlphaTargetPrime int
}

// Family derives bounded-degree instances from the mvclb base family.
type Family struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	Base     *mvclb.Family
	Pipeline Pipeline
}

// NewFamily returns the Section 3.2 bounded-degree MaxIS family for row
// size k.
func NewFamily(k int, seed int64) (*Family, error) {
	base, err := mvclb.New(k)
	if err != nil {
		return nil, err
	}
	f := &Family{Base: base, Pipeline: Pipeline{Seed: seed}}
	f.Delta = lbfamily.NewDelta(f)
	return f, nil
}

// BuildInstance constructs G'_{x,y} with its derived partition.
func (f *Family) BuildInstance(x, y comm.Bits) (*Instance, error) {
	g, err := f.Base.Build(x, y)
	if err != nil {
		return nil, err
	}
	res, err := f.Pipeline.Apply(g, f.Base.AliceSide())
	if err != nil {
		return nil, err
	}
	return &Instance{
		Result:           res,
		AlphaTargetPrime: f.Base.AlphaTarget() + res.AlphaShift,
	}, nil
}

// MDSReduction implements the Section 3.3 reduction from bounded-degree
// MVC to bounded-degree MDS: every edge e = {u, v} gains a subdivision
// companion vertex v_e adjacent to both endpoints (the original edge
// stays). For inputs without isolated vertices, the MDS size of the result
// equals the MVC size of the input; the new vertices have degree 2 and
// original degrees double. Edge-vertex ids start at g.N() in g.Edges()
// order.
func MDSReduction(g *graph.Graph) *graph.Graph {
	edges := g.Edges()
	out := graph.New(g.N() + len(edges))
	for _, e := range edges {
		out.MustAddEdge(e.U, e.V)
	}
	for i, e := range edges {
		ve := g.N() + i
		out.MustAddEdge(ve, e.U)
		out.MustAddEdge(ve, e.V)
	}
	return out
}

// SpannerReduction implements a weighted-2-spanner instance in the spirit
// of the Section 3.3 reduction from MVC (Theorem 3.4, via [9]): every
// original edge {u, v} is kept with weight 3 and doubled by a two-hop
// detour through a fresh vertex w_e with weight-1 halves. Every 2-spanner
// must span each detour's halves or compensate through the heavy direct
// edge, tying the minimum spanner weight to the cover structure of the
// input; the tests validate bounded degree and the exact minimum on small
// instances against the solver. Detour-vertex ids start at g.N() in
// g.Edges() order.
func SpannerReduction(g *graph.Graph) *graph.Graph {
	edges := g.Edges()
	out := graph.New(g.N() + len(edges))
	for _, e := range edges {
		out.MustAddWeightedEdge(e.U, e.V, 3)
	}
	for i, e := range edges {
		w := g.N() + i
		out.MustAddWeightedEdge(w, e.U, 1)
		out.MustAddWeightedEdge(w, e.V, 1)
	}
	return out
}
