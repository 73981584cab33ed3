// Package maxcutlb implements the Section 2.4 family of lower bound graphs
// for weighted max-cut (Figure 3), proving Theorem 2.8: deciding whether a
// graph has a cut of weight M = k⁴(8·log k + 4) + k³(12·log k − 4) + 4k² +
// 4k requires Ω(n²/log²n) rounds.
//
// The key idea (vs. the MDS construction): heavy k⁴ edges force the shape
// of any maximum cut (Claim 2.9); each row vertex s^j carries 2k²-weight
// edges to Bin(s^j) and a balancing edge to C_A/C_B (Claim 2.10); the
// normalizing vertices N_A, N_B carry input-dependent weights so that the
// total weight from each selected row vertex into its row's "other side" is
// exactly k, and all 4k of those units are cut iff the selected indices
// (i*, j*) satisfy x_{i*,j*} = y_{i*,j*} = 1 (Lemma 2.4).
package maxcutlb

import (
	"fmt"
	"math/bits"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// Set identifies one of the four vertex rows.
type Set int

// The four rows.
const (
	SetA1 Set = iota
	SetA2
	SetB1
	SetB2
)

// Family is the weighted max-cut family of Theorem 2.8.
type Family struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	k    int
	logK int
}

var _ lbfamily.Family = (*Family)(nil)

// New returns the family for row size k (a power of two, >= 2).
func New(k int) (*Family, error) {
	if k < 2 || bits.OnesCount(uint(k)) != 1 {
		return nil, fmt.Errorf("k must be a power of two >= 2, got %d", k)
	}
	f := &Family{k: k, logK: bits.TrailingZeros(uint(k))}
	f.Delta = lbfamily.NewDelta(f)
	return f, nil
}

// Name returns "maxcut".
func (f *Family) Name() string { return "maxcut" }

// K returns k².
func (f *Family) K() int { return f.k * f.k }

// N returns 4k + 8·log k + 5.
func (f *Family) N() int { return 4*f.k + 8*f.logK + 5 }

// Row returns the vertex id of s^j for the given set.
func (f *Family) Row(s Set, j int) int { return int(s)*f.k + j }

// TVertex returns t^h_S.
func (f *Family) TVertex(s Set, h int) int { return 4*f.k + int(s)*2*f.logK + h }

// FVertex returns f^h_S.
func (f *Family) FVertex(s Set, h int) int { return 4*f.k + int(s)*2*f.logK + f.logK + h }

// The five special vertices follow the bit gadgets.
func (f *Family) special(i int) int { return 4*f.k + 8*f.logK + i }

// CA returns the vertex C_A.
func (f *Family) CA() int { return f.special(0) }

// CABar returns the vertex C̄_A.
func (f *Family) CABar() int { return f.special(1) }

// CB returns the vertex C_B.
func (f *Family) CB() int { return f.special(2) }

// NA returns the normalizing vertex N_A.
func (f *Family) NA() int { return f.special(3) }

// NB returns the normalizing vertex N_B.
func (f *Family) NB() int { return f.special(4) }

// Heavy returns the forcing weight k⁴.
func (f *Family) Heavy() int64 {
	k := int64(f.k)
	return k * k * k * k
}

// Target returns the cut weight M of the predicate.
func (f *Family) Target() int64 {
	k, lg := int64(f.k), int64(f.logK)
	return k*k*k*k*(8*lg+4) + k*k*k*(12*lg-4) + 4*k*k + 4*k
}

// Func returns ¬DISJ.
func (f *Family) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

// AliceSide marks A1, A2, their bit gadgets, and {C_A, C̄_A, N_A}.
func (f *Family) AliceSide() []bool {
	side := make([]bool, f.N())
	for j := 0; j < f.k; j++ {
		side[f.Row(SetA1, j)] = true
		side[f.Row(SetA2, j)] = true
	}
	for h := 0; h < f.logK; h++ {
		for _, s := range []Set{SetA1, SetA2} {
			side[f.TVertex(s, h)] = true
			side[f.FVertex(s, h)] = true
		}
	}
	side[f.CA()] = true
	side[f.CABar()] = true
	side[f.NA()] = true
	return side
}

// Build constructs G_{x,y}.
func (f *Family) Build(x, y comm.Bits) (*graph.Graph, error) {
	if x.Len() != f.K() || y.Len() != f.K() {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", f.K(), x.Len(), y.Len())
	}
	k := f.k
	heavy := f.Heavy()
	g := graph.New(f.N())

	// Heavy spine.
	g.MustAddWeightedEdge(f.CA(), f.NA(), heavy)
	g.MustAddWeightedEdge(f.CB(), f.NB(), heavy)
	g.MustAddWeightedEdge(f.CA(), f.CABar(), heavy)
	g.MustAddWeightedEdge(f.CABar(), f.CB(), heavy)
	// Heavy 4-cycles (t_A, f_A, t_B, f_B) per pair index and bit.
	pairs := [][2]Set{{SetA1, SetB1}, {SetA2, SetB2}}
	for _, p := range pairs {
		sa, sb := p[0], p[1]
		for h := 0; h < f.logK; h++ {
			cyc := []int{f.TVertex(sa, h), f.FVertex(sa, h), f.TVertex(sb, h), f.FVertex(sb, h)}
			for i := range cyc {
				g.MustAddWeightedEdge(cyc[i], cyc[(i+1)%len(cyc)], heavy)
			}
		}
	}
	// Bin edges (weight 2k²) and the balancing edges to C_A / C_B
	// (weight 2k²·log k − k²).
	binW := 2 * int64(k) * int64(k)
	balW := binW*int64(f.logK) - int64(k)*int64(k)
	for _, s := range []Set{SetA1, SetA2, SetB1, SetB2} {
		center := f.CA()
		if s == SetB1 || s == SetB2 {
			center = f.CB()
		}
		for j := 0; j < k; j++ {
			for h := 0; h < f.logK; h++ {
				if j>>uint(h)&1 == 1 {
					g.MustAddWeightedEdge(f.Row(s, j), f.TVertex(s, h), binW)
				} else {
					g.MustAddWeightedEdge(f.Row(s, j), f.FVertex(s, h), binW)
				}
			}
			g.MustAddWeightedEdge(f.Row(s, j), center, balW)
		}
	}
	// Input-dependent part: complement edges of weight 1 and normalizing
	// weights (possibly zero) to N_A / N_B.
	for i := 0; i < k; i++ {
		var xRow, xCol, yRow, yCol int64
		for j := 0; j < k; j++ {
			if x.Get(comm.PairIndex(i, j, k)) {
				xRow++
			} else {
				g.MustAddWeightedEdge(f.Row(SetA1, i), f.Row(SetA2, j), 1)
			}
			if x.Get(comm.PairIndex(j, i, k)) {
				xCol++
			}
			if y.Get(comm.PairIndex(i, j, k)) {
				yRow++
			} else {
				g.MustAddWeightedEdge(f.Row(SetB1, i), f.Row(SetB2, j), 1)
			}
			if y.Get(comm.PairIndex(j, i, k)) {
				yCol++
			}
		}
		g.MustAddWeightedEdge(f.Row(SetA1, i), f.NA(), xRow)
		g.MustAddWeightedEdge(f.Row(SetA2, i), f.NA(), xCol)
		g.MustAddWeightedEdge(f.Row(SetB1, i), f.NB(), yRow)
		g.MustAddWeightedEdge(f.Row(SetB2, i), f.NB(), yCol)
	}
	return g, nil
}

// Predicate decides exactly whether the graph has a cut of weight at least
// the target M.
func (f *Family) Predicate(g *graph.Graph) (bool, error) {
	return solver.HasCutOfWeight(g, f.Target())
}

// WitnessCut constructs the cut side the proof of Lemma 2.4 exhibits when
// x and y intersect at (i, j): S contains a₁^i, b₁^i, a₂^j, b₂^j, C_A, C_B
// and, per row, the bit-gadget vertices complementary to the selected
// index's representation.
func (f *Family) WitnessCut(x, y comm.Bits) ([]bool, error) {
	idx := x.FirstCommonOne(y)
	if idx < 0 {
		return nil, fmt.Errorf("inputs are disjoint; no witness exists")
	}
	i, j := idx/f.k, idx%f.k
	side := make([]bool, f.N())
	side[f.Row(SetA1, i)] = true
	side[f.Row(SetB1, i)] = true
	side[f.Row(SetA2, j)] = true
	side[f.Row(SetB2, j)] = true
	side[f.CA()] = true
	side[f.CB()] = true
	// Fixed iteration order (not a map): witness construction must be
	// deterministic for replay-exact verification.
	sel := [4]struct {
		s   Set
		val int
	}{{SetA1, i}, {SetB1, i}, {SetA2, j}, {SetB2, j}}
	for _, sv := range sel {
		s, val := sv.s, sv.val
		for h := 0; h < f.logK; h++ {
			// Complement of Bin(s^val): t^h when the bit is 0, f^h when 1.
			if val>>uint(h)&1 == 1 {
				side[f.FVertex(s, h)] = true
			} else {
				side[f.TVertex(s, h)] = true
			}
		}
	}
	return side, nil
}
