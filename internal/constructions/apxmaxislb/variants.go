package apxmaxislb

import (
	"fmt"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// BatchExpand converts a weighted instance into the unweighted batch
// instance of Theorem 4.1: every vertex of weight w is replaced by an
// independent batch of w unit-weight copies that inherit all its edges.
// It returns the expanded graph, and for each original vertex the range
// [start, start+w) of its copies.
func BatchExpand(g *graph.Graph) (*graph.Graph, [][2]int, error) {
	n := g.N()
	ranges := make([][2]int, n)
	total := 0
	for v := 0; v < n; v++ {
		w := g.VertexWeight(v)
		if w < 1 {
			return nil, nil, fmt.Errorf("vertex %d has weight %d < 1", v, w)
		}
		ranges[v] = [2]int{total, total + int(w)}
		total += int(w)
	}
	out := graph.New(total)
	for _, e := range g.Edges() {
		for u := ranges[e.U][0]; u < ranges[e.U][1]; u++ {
			for v := ranges[e.V][0]; v < ranges[e.V][1]; v++ {
				out.MustAddEdge(u, v)
			}
		}
	}
	return out, ranges, nil
}

// UnweightedFamily is the Theorem 4.1 batch construction: the weighted
// family with every row vertex expanded into a batch of ℓ unit vertices.
// α is now a cardinality; the gap 8ℓ+4t vs 7ℓ+4t carries over because all
// members of a batch share their neighborhood (any maximum independent set
// takes a batch entirely or not at all).
type UnweightedFamily struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	W *Family
}

var _ lbfamily.DeltaFamily = (*UnweightedFamily)(nil)

// NewUnweighted returns the batch family for the given parameters.
func NewUnweighted(p Params) (*UnweightedFamily, error) {
	inner, err := New(p)
	if err != nil {
		return nil, err
	}
	u := &UnweightedFamily{W: inner}
	u.Delta = lbfamily.NewDelta(u)
	return u, nil
}

// Name returns "apx-maxis-unweighted".
func (u *UnweightedFamily) Name() string { return "apx-maxis-unweighted" }

// K returns k².
func (u *UnweightedFamily) K() int { return u.W.K() }

// Func returns ¬DISJ.
func (u *UnweightedFamily) Func() comm.Function { return u.W.Func() }

// Build expands the weighted instance into batches.
func (u *UnweightedFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	g, err := u.W.Build(x, y)
	if err != nil {
		return nil, err
	}
	out, _, err := BatchExpand(g)
	return out, err
}

// AliceSide expands the weighted side marking through the batches.
func (u *UnweightedFamily) AliceSide() []bool {
	zero := comm.NewBits(u.K())
	g, err := u.W.Build(zero, zero)
	if err != nil {
		return nil
	}
	_, ranges, err := BatchExpand(g)
	if err != nil {
		return nil
	}
	inner := u.W.AliceSide()
	side := make([]bool, ranges[len(ranges)-1][1])
	for v, r := range ranges {
		for i := r[0]; i < r[1]; i++ {
			side[i] = inner[v]
		}
	}
	return side
}

// Predicate decides whether α(G) reaches 8ℓ+4t.
func (u *UnweightedFamily) Predicate(g *graph.Graph) (bool, error) {
	return new(solver.MaxISOracle).HasWeightAtLeast(g, u.W.YesWeight(), true)
}

// LinearFamily is the Theorem 4.2 construction: input length K = k, a
// near-linear lower bound for (5/6+ε)-approximate MaxIS. The A1/B1 rows
// and gadgets are removed; two batches batch(vA), batch(vB) take their
// place, adjacent to batch(a₂^i) iff x_i = 0 (resp. b and y). The gap is
// 6ℓ+2t vs 5ℓ+2t.
type LinearFamily struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	p    Params
	w    *Family // reused for codeword bookkeeping (same k, l, t, q)
	cols int
}

var _ lbfamily.DeltaFamily = (*LinearFamily)(nil)

// NewLinear returns the linear-variant family.
func NewLinear(p Params) (*LinearFamily, error) {
	inner, err := New(p)
	if err != nil {
		return nil, err
	}
	lf := &LinearFamily{p: p, w: inner, cols: p.L + p.T}
	lf.Delta = lbfamily.NewDelta(lf)
	return lf, nil
}

// Name returns "apx-maxis-linear".
func (lf *LinearFamily) Name() string { return "apx-maxis-linear" }

// K returns k (linear input length).
func (lf *LinearFamily) K() int { return lf.p.K }

// Func returns ¬DISJ.
func (lf *LinearFamily) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

// YesSize returns 6ℓ+2t.
func (lf *LinearFamily) YesSize() int { return 6*lf.p.L + 2*lf.p.T }

// NoSize returns 5ℓ+2t.
func (lf *LinearFamily) NoSize() int { return 5*lf.p.L + 2*lf.p.T }

// Vertex layout: batch(vA) | batch(vB) | batches a₂^0..a₂^{k-1} | batches
// b₂^0.. | A2 gadget | B2 gadget.

// VABatch returns the i-th copy of vA.
func (lf *LinearFamily) VABatch(i int) int { return i }

// VBBatch returns the i-th copy of vB.
func (lf *LinearFamily) VBBatch(i int) int { return lf.p.L + i }

// A2Batch returns the c-th copy of a₂^i.
func (lf *LinearFamily) A2Batch(i, c int) int { return 2*lf.p.L + i*lf.p.L + c }

// B2Batch returns the c-th copy of b₂^i.
func (lf *LinearFamily) B2Batch(i, c int) int {
	return 2*lf.p.L + lf.p.K*lf.p.L + i*lf.p.L + c
}

func (lf *LinearFamily) gadgetBase(b bool) int {
	base := 2*lf.p.L + 2*lf.p.K*lf.p.L
	if b {
		base += lf.w.q * lf.cols
	}
	return base
}

// A2Gadget returns α^{A2}_j.
func (lf *LinearFamily) A2Gadget(alpha, j int) int {
	return lf.gadgetBase(false) + alpha*lf.cols + j
}

// B2Gadget returns α^{B2}_j.
func (lf *LinearFamily) B2Gadget(alpha, j int) int {
	return lf.gadgetBase(true) + alpha*lf.cols + j
}

// N returns the vertex count.
func (lf *LinearFamily) N() int { return lf.gadgetBase(true) + lf.w.q*lf.cols }

// AliceSide marks batch(vA), the a₂ batches and the A2 gadget.
func (lf *LinearFamily) AliceSide() []bool {
	side := make([]bool, lf.N())
	for i := 0; i < lf.p.L; i++ {
		side[lf.VABatch(i)] = true
	}
	for i := 0; i < lf.p.K; i++ {
		for c := 0; c < lf.p.L; c++ {
			side[lf.A2Batch(i, c)] = true
		}
	}
	for alpha := 0; alpha < lf.w.q; alpha++ {
		for j := 0; j < lf.cols; j++ {
			side[lf.A2Gadget(alpha, j)] = true
		}
	}
	return side
}

// Build constructs the linear-variant instance.
func (lf *LinearFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	if x.Len() != lf.p.K || y.Len() != lf.p.K {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", lf.p.K, x.Len(), y.Len())
	}
	g := graph.New(lf.N())
	q := lf.w.q
	// Row batch cliques (between different indices of the same set).
	for i := 0; i < lf.p.K; i++ {
		for i2 := i + 1; i2 < lf.p.K; i2++ {
			for c := 0; c < lf.p.L; c++ {
				for c2 := 0; c2 < lf.p.L; c2++ {
					g.MustAddEdge(lf.A2Batch(i, c), lf.A2Batch(i2, c2))
					g.MustAddEdge(lf.B2Batch(i, c), lf.B2Batch(i2, c2))
				}
			}
		}
	}
	// Gadget row cliques and cross bipartite-minus-matching.
	for j := 0; j < lf.cols; j++ {
		for a1 := 0; a1 < q; a1++ {
			for a2 := a1 + 1; a2 < q; a2++ {
				g.MustAddEdge(lf.A2Gadget(a1, j), lf.A2Gadget(a2, j))
				g.MustAddEdge(lf.B2Gadget(a1, j), lf.B2Gadget(a2, j))
			}
		}
		for a1 := 0; a1 < q; a1++ {
			for a2 := 0; a2 < q; a2++ {
				if a1 != a2 {
					g.MustAddEdge(lf.A2Gadget(a1, j), lf.B2Gadget(a2, j))
				}
			}
		}
	}
	// Row-to-gadget complement-of-codeword edges.
	for i := 0; i < lf.p.K; i++ {
		cw, err := lf.w.Codeword(i)
		if err != nil {
			return nil, err
		}
		for alpha := 0; alpha < q; alpha++ {
			for j := 0; j < lf.cols; j++ {
				if cw[j] != int64(alpha) {
					for c := 0; c < lf.p.L; c++ {
						g.MustAddEdge(lf.A2Batch(i, c), lf.A2Gadget(alpha, j))
						g.MustAddEdge(lf.B2Batch(i, c), lf.B2Gadget(alpha, j))
					}
				}
			}
		}
	}
	// Input edges: batch(vA) x batch(a₂^i) iff x_i = 0.
	for i := 0; i < lf.p.K; i++ {
		for c := 0; c < lf.p.L; c++ {
			for c2 := 0; c2 < lf.p.L; c2++ {
				if !x.Get(i) {
					g.MustAddEdge(lf.VABatch(c), lf.A2Batch(i, c2))
				}
				if !y.Get(i) {
					g.MustAddEdge(lf.VBBatch(c), lf.B2Batch(i, c2))
				}
			}
		}
	}
	return g, nil
}

// Predicate decides whether α(G) reaches 6ℓ+2t.
func (lf *LinearFamily) Predicate(g *graph.Graph) (bool, error) {
	return new(solver.MaxISOracle).HasWeightAtLeast(g, int64(lf.YesSize()), true)
}
