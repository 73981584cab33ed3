// Package solver provides exact solvers for the optimization problems that
// the paper's lower-bound constructions are about: minimum dominating set
// (weighted, and k-domination), maximum weight independent set / minimum
// vertex cover, maximum cut, Hamiltonian paths and cycles (directed and
// undirected), Steiner trees (edge-weighted Dreyfus-Wagner, node-weighted
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
