// Package mdslb implements the family of lower bound graphs for minimum
// dominating set from Section 2.1 of the paper (Figure 1), which proves
// Theorem 2.1: deciding whether a graph has a dominating set of size
// 4*log(k) + 2 requires Ω(n²/log²n) rounds in CONGEST.
//
// The construction: four rows A1, A2, B1, B2 of k vertices each; for every
// row a bit gadget of 3*log(k) vertices (F_S, T_S, U_S); per bit position h
// and pair index ℓ the 6-cycle (f^h_{Aℓ}, t^h_{Aℓ}, u^h_{Aℓ}, f^h_{Bℓ},
// t^h_{Bℓ}, u^h_{Bℓ}); every row vertex s^i connects to bin(s^i) — the
// gadget vertices matching i's binary representation. Input bit x_{(i,j)}
// adds edge {a₁^i, a₂^j}; y_{(i,j)} adds {b₁^i, b₂^j}. Lemma 2.1: the graph
// has a dominating set of size 4*log(k)+2 iff DISJ(x, y) = FALSE.
package mdslb

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

// The four rows of the construction.
const (
	SetA1 Set = iota
	SetA2
	SetB1
	SetB2
)

// Family is the Section 2.1 MDS family for a given k (a power of two).
type Family struct {
	*lbfamily.Delta[*graph.Graph] // BuildBase and ApplyBit, derived from Build

	k    int
	logK int
}

var _ lbfamily.Family = (*Family)(nil)

// New returns the family with row size k, which must be a power of two and
// at least 2. The input length is K = k².
func New(k int) (*Family, error) {
	if k < 2 || bits.OnesCount(uint(k)) != 1 {
		return nil, fmt.Errorf("k must be a power of two >= 2, got %d", k)
	}
	f := &Family{k: k, logK: bits.TrailingZeros(uint(k))}
	f.Delta = lbfamily.NewDelta(f)
	return f, nil
}

// Name returns "mds".
func (f *Family) Name() string { return "mds" }

// K returns k², the per-player input length.
func (f *Family) K() int { return f.k * f.k }

// RowSize returns k.
func (f *Family) RowSize() int { return f.k }

// LogK returns log2(k).
func (f *Family) LogK() int { return f.logK }

// TargetSize returns the dominating set size 4*log(k)+2 of the predicate.
func (f *Family) TargetSize() int { return 4*f.logK + 2 }

// N returns the number of vertices, 4k + 12*log(k).
func (f *Family) N() int { return 4*f.k + 12*f.logK }

// Row returns the vertex id of row vertex i of the given set.
func (f *Family) Row(s Set, i int) int { return int(s)*f.k + i }

// FVertex returns the vertex id of f^h_S.
func (f *Family) FVertex(s Set, h int) int { return 4*f.k + int(s)*3*f.logK + h }

// TVertex returns the vertex id of t^h_S.
func (f *Family) TVertex(s Set, h int) int { return 4*f.k + int(s)*3*f.logK + f.logK + h }

// UVertex returns the vertex id of u^h_S.
func (f *Family) UVertex(s Set, h int) int { return 4*f.k + int(s)*3*f.logK + 2*f.logK + h }

// Func returns ¬DISJ: the graph satisfies P iff the inputs intersect.
func (f *Family) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

// AliceSide marks A1, A2 and their bit gadgets.
func (f *Family) AliceSide() []bool {
	side := make([]bool, f.N())
	for i := 0; i < f.k; i++ {
		side[f.Row(SetA1, i)] = true
		side[f.Row(SetA2, i)] = true
	}
	for h := 0; h < f.logK; h++ {
		for _, s := range []Set{SetA1, SetA2} {
			side[f.FVertex(s, h)] = true
			side[f.TVertex(s, h)] = true
			side[f.UVertex(s, h)] = true
		}
	}
	return side
}

// BuildFixed constructs the input-independent part of G_{x,y}.
func (f *Family) BuildFixed() *graph.Graph {
	g := graph.New(f.N())
	// 6-cycles per bit position and pair index.
	pairs := [][2]Set{{SetA1, SetB1}, {SetA2, SetB2}}
	for _, pair := range pairs {
		sa, sb := pair[0], pair[1]
		for h := 0; h < f.logK; h++ {
			cycle := []int{
				f.FVertex(sa, h), f.TVertex(sa, h), f.UVertex(sa, h),
				f.FVertex(sb, h), f.TVertex(sb, h), f.UVertex(sb, h),
			}
			for i := range cycle {
				g.MustAddEdge(cycle[i], cycle[(i+1)%len(cycle)])
			}
		}
	}
	// Binary-representation edges: s^i connects to bin(s^i).
	for _, s := range []Set{SetA1, SetA2, SetB1, SetB2} {
		for i := 0; i < f.k; i++ {
			for h := 0; h < f.logK; h++ {
				if i>>uint(h)&1 == 1 {
					g.MustAddEdge(f.Row(s, i), f.TVertex(s, h))
				} else {
					g.MustAddEdge(f.Row(s, i), f.FVertex(s, h))
				}
			}
		}
	}
	return g
}

// Build constructs G_{x,y}: the fixed graph plus the input edges.
func (f *Family) Build(x, y comm.Bits) (*graph.Graph, error) {
	if x.Len() != f.K() || y.Len() != f.K() {
		return nil, fmt.Errorf("inputs must have length %d, got %d and %d", f.K(), x.Len(), y.Len())
	}
	g := f.BuildFixed()
	for i := 0; i < f.k; i++ {
		for j := 0; j < f.k; j++ {
			idx := comm.PairIndex(i, j, f.k)
			if x.Get(idx) {
				g.MustAddEdge(f.Row(SetA1, i), f.Row(SetA2, j))
			}
			if y.Get(idx) {
				g.MustAddEdge(f.Row(SetB1, i), f.Row(SetB2, j))
			}
		}
	}
	return g, nil
}

// Predicate decides exactly whether g has a dominating set of size
// 4*log(k)+2 (the P of Theorem 2.1).
func (f *Family) Predicate(g *graph.Graph) (bool, error) {
	return solver.HasDominatingSetOfSize(g, f.TargetSize())
}

// WitnessDominatingSet constructs the size-(4logk+2) dominating set that
// the proof of Lemma 2.1 exhibits when x and y intersect at (i, j):
// {a₁^i, b₁^i} plus bin-bar of the four selected row vertices — the gadget
// vertices complementary to their binary representations (f^h where the bit
// is 1, t^h where it is 0). It returns an error if the inputs are disjoint.
func (f *Family) WitnessDominatingSet(x, y comm.Bits) ([]int, error) {
	idx := x.FirstCommonOne(y)
	if idx < 0 {
		return nil, fmt.Errorf("inputs are disjoint; no witness exists")
	}
	i, j := idx/f.k, idx%f.k
	set := []int{f.Row(SetA1, i), f.Row(SetB1, i)}
	appendBinBar := func(s Set, val int) {
		for h := 0; h < f.logK; h++ {
			if val>>uint(h)&1 == 1 {
				set = append(set, f.FVertex(s, h))
			} else {
				set = append(set, f.TVertex(s, h))
			}
		}
	}
	appendBinBar(SetA1, i)
	appendBinBar(SetB1, i)
	appendBinBar(SetA2, j)
	appendBinBar(SetB2, j)
	return set, nil
}
