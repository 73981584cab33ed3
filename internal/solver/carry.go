package solver

import (
	"fmt"
	"math/bits"
	"slices"

	"congesthard/internal/graph"
)

// Every decision oracle that Verify reaches carries its last answer of
// each kind across calls (MaxCutOracle only its YES answers), through one
// wrapper, decide:
//
//  1. The last YES certificate (see certificate.go) is checked against
//     the instance; when it holds, the answer is YES.
//  2. The last instance a search answered NO is compared with the
//     instance; when it dominates it, the answer is NO.
//  3. Otherwise the oracle searches.
//  4. A YES the search finds is confirmed by its certificate's checker
//     and carried; a NO instance is stored as the new NO snapshot.
//
// Step 2 rests on monotonicity. Each predicate is a threshold question
// that only gets harder in one direction: fewer edges or arcs, heavier
// vertices or arcs, a smaller cap or budget, a larger target (for MaxIS
// more edges and lighter vertices). An instance that is at most as easy
// as a NO instance, with the same vertex count and the same terminals,
// start, end or root, is NO as well. Each oracle's noCarried states its
// direction. The comparison reads the instance
// itself, row by row against the snapshot's bitset rows and weights, in
// O(n·words + m); it never trusts the graph pointer or a change list, so
// an oracle reused across graphs stays exact.

// decision is one call of a decision oracle as decide drives it: the
// oracle holds the call's instance and parameters.
type decision interface {
	// certHolds runs the checker of the oracle's certificate kind on its
	// carried certificate: the last one its search found.
	certHolds() bool
	// noCarried reports whether the NO snapshot dominates the instance.
	// It runs before every search, so it may load what the search reads.
	noCarried() bool
	// searched searches; a YES leaves its certificate as the carried one.
	searched() bool
	// keepNo stores the instance as the NO snapshot.
	keepNo()
	// counts returns the oracle's effort counters.
	counts() *effort
}

// decide answers one call of oracle on an n-vertex instance: from the
// carried certificate, then from the NO snapshot, and otherwise by a
// search whose answer it checks and carries. carry false (a test's forced
// search width) ignores both carries, so that the search runs.
func decide[D decision](d D, carry bool, oracle string, n int) (bool, error) {
	e := d.counts()
	if carry && d.certHolds() {
		e.yesCarries++
		return true, nil
	}
	if d.noCarried() && carry {
		e.noCarries++
		return false, nil
	}
	if !d.searched() {
		e.noSearches++
		d.keepNo()
		return false, nil
	}
	if !d.certHolds() {
		return false, certError(oracle, n)
	}
	return true, nil
}

// certError reports a search whose YES failed its certificate check.
func certError(oracle string, n int) error {
	return fmt.Errorf("solver: %s oracle: the search's certificate fails its check on a %d-vertex graph", oracle, n)
}

// effort counts the searches an oracle ran, the nodes they expanded, the
// searches that answered NO and the calls each carry answered; a call
// answered by a carry runs no search. Tests pin them.
type effort struct {
	searches, nodes                   int64
	noSearches, yesCarries, noCarries int64
}

func (e *effort) counts() *effort { return e }

// noKey is what a NO snapshot must share with an instance beyond its
// vertex count and terminals: the unit flag, the start and end, or the
// root.
type noKey [2]int

// boolInt is 1 for true and 0 for false.
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// noSnapshot is the last instance an oracle's search answered NO: its
// adjacency (or closed-neighbourhood) rows as bitsets of words words,
// its vertex weights or its arc weights, and the call's parameters. Its
// buffers only grow, so a warm oracle stores a snapshot without
// allocating.
type noSnapshot struct {
	valid    bool
	n, words int
	limit    int64 // the cap, budget or target decided
	key      noKey
	ends     []int    // the terminals
	rows     []uint64 // row u is rows[u*words : (u+1)*words]
	w        []int64  // vertex weights, or arc weights in row order
}

// matches reports whether the snapshot was taken with n vertices, key and
// terminals ends.
func (s *noSnapshot) matches(n int, key noKey, ends []int) bool {
	return s.valid && s.n == n && s.key == key && slices.Equal(s.ends, ends)
}

// store starts a snapshot of an n-vertex instance with weights weights;
// the caller fills the rows and weights.
func (s *noSnapshot) store(n int, limit int64, key noKey, ends []int, weights int) {
	words := (n + 63) / 64
	if cap(s.rows) < n*words {
		s.rows = make([]uint64, n*words)
	}
	if cap(s.w) < weights {
		s.w = make([]int64, weights+weights/2)
	}
	s.valid, s.n, s.words, s.limit, s.key = true, n, words, limit, key
	s.ends = append(s.ends[:0], ends...)
	s.rows, s.w = s.rows[:n*words], s.w[:weights]
}

func (s *noSnapshot) row(u int) []uint64 { return s.rows[u*s.words : (u+1)*s.words] }

// keepRows stores rows[u]'s first words words as row u.
func (s *noSnapshot) keepRows(rows []bitset) {
	for u := 0; u < s.n; u++ {
		copy(s.row(u), rows[u])
	}
}

// keepAdj stores the adjacency lists adj(0..n-1) as rows and, when
// arcWeights, their weights in row order (the snapshot was stored with
// room for every arc).
func (s *noSnapshot) keepAdj(adj func(int) []graph.Half, arcWeights bool) {
	off := 0
	for u := 0; u < s.n; u++ {
		row, nbrs := s.row(u), adj(u)
		clear(row)
		for _, h := range nbrs {
			row[h.To>>6] |= 1 << (h.To & 63)
		}
		if !arcWeights {
			continue
		}
		for _, h := range nbrs {
			s.w[off+rank(row, h.To)] = h.Weight
		}
		off += bitset(row).count()
	}
}

// adjWithin reports whether every arc of adj(0..n-1) is in the rows.
//
//hardness:hotpath
func (s *noSnapshot) adjWithin(adj func(int) []graph.Half) bool {
	for u := 0; u < s.n; u++ {
		row := s.row(u)
		for _, h := range adj(u) {
			if row[h.To>>6]>>(h.To&63)&1 == 0 {
				return false
			}
		}
	}
	return true
}

// rank returns the number of members of row below v.
func rank(row []uint64, v int) int {
	r := bits.OnesCount64(row[v>>6] & (1<<(v&63) - 1))
	for _, w := range row[:v>>6] {
		r += bits.OnesCount64(w)
	}
	return r
}

// arcsNoLighter reports whether every stored arc's weight is at most
// the instance's weight on it: every arc of adj(0..n-1) of weight >= 0
// (a negative arc is unusable) is stored, with a weight in [0, its
// weight]. The directed Steiner direction.
//
//hardness:hotpath
func (s *noSnapshot) arcsNoLighter(adj func(int) []graph.Half) bool {
	off := 0
	for u := 0; u < s.n; u++ {
		row := s.row(u)
		for _, h := range adj(u) {
			if h.Weight < 0 {
				continue
			}
			if row[h.To>>6]>>(h.To&63)&1 == 0 {
				return false
			}
			if w := s.w[off+rank(row, h.To)]; w < 0 || w > h.Weight {
				return false
			}
		}
		off += bitset(row).count()
	}
	return true
}
