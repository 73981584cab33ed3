// Package solver provides exact solvers for the optimization problems that
// the paper's lower-bound constructions are about: minimum dominating set
// (weighted, and k-domination), maximum weight independent set / minimum
// vertex cover, maximum cut, Hamiltonian paths and cycles (directed and
// undirected), Steiner trees (the edge-count decision, node-weighted
// and directed variants), maximum flow, maximum matching, 2-edge-connected
// spanning subgraphs and 2-spanners.
//
// These solvers are the ground-truth oracles for the family-of-lower-bound-
// graphs verification (Definition 1.1, condition 4): each construction's
// predicate is decided exactly and compared against f(x, y). They use
// branch-and-bound or dynamic programming and are intended for the small
// instances that exhaustive verification requires; each entry point
// documents its practical size limit. Brute-force reference implementations
// (Brute*) are provided for cross-checking the optimized solvers in tests.
package solver

import "math/bits"

// bitset is a fixed-capacity set of small integers used by the
// backtracking solvers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i/64]>>(uint(i)%64)&1 == 1 }

func (b bitset) set(i int) { b[i/64] |= uint64(1) << (uint(i) % 64) }

func (b bitset) clear(i int) { b[i/64] &^= uint64(1) << (uint(i) % 64) }

func (b bitset) count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

// orInto sets b |= other.
func (b bitset) orInto(other bitset) {
	for i := range b {
		b[i] |= other[i]
	}
}

// firstClear returns the smallest index < n not in the set, or -1.
func (b bitset) firstClear(n int) int {
	for i, w := range b {
		if inv := ^w; inv != 0 {
			idx := i*64 + bits.TrailingZeros64(inv)
			if idx < n {
				return idx
			}
			return -1
		}
	}
	return -1
}

// vertexSet lists the vertex-set widths that the Hamiltonian and Steiner
// searches are compiled for; each oracle runs a graph on the narrowest
// width that holds it. Every loop over the words of a set is written
//
//	for i := 0; ; i++ { ...; if i == len(set)-1 { break } }
//
// because the compiler then drops the loop at one word; it keeps the
// one-trip loop of the usual i < len(set) form, which made the one-word
// Hamiltonian search ~1.5x slower.
type vertexSet interface {
	[1]uint64 | [2]uint64 | [4]uint64 | [8]uint64 | [16]uint64 | [32]uint64 | [64]uint64
}

// maxSetVertices is the capacity of the widest vertexSet.
const maxSetVertices = 64 * 64

// vertexRows is a width's per-vertex array of sets, 64 entries per word.
// Fixed arrays rather than slices keep the hot loops free of slice header
// loads; slices made the one-word Hamiltonian search ~10% slower.
type vertexRows[W vertexSet] interface {
	[64]W | [128]W | [256]W | [512]W | [1024]W | [2048]W | [4096]W
}

// lazy returns *p, allocating it on first use: an oracle keeps the search
// of each width it has run.
func lazy[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}
