package solver

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"congesthard/internal/graph"
)

// MinDominatingSet computes a minimum-weight dominating set of g exactly
// (vertex weights; use unit weights for the cardinality version). It uses
// branch and bound on the lowest-indexed undominated vertex and is
// practical up to roughly 60 vertices on structured instances.
func MinDominatingSet(g *graph.Graph) (int64, []int, error) {
	weight, set, _, err := minDominatingSetCapped(g, math.MaxInt64/2)
	if err != nil {
		return 0, nil, err
	}
	if set == nil {
		return 0, nil, fmt.Errorf("internal: no dominating set found in %d-vertex graph", g.N())
	}
	return weight, set, nil
}

// MinDominatingSetWithin computes the minimum-weight dominating set of
// weight at most cap if one exists. found reports whether any dominating
// set within the cap was found; the search prunes aggressively above cap,
// which makes NO answers much cheaper than a full minimization.
func MinDominatingSetWithin(g *graph.Graph, cap int64) (weight int64, set []int, found bool, err error) {
	return minDominatingSetCapped(g, cap)
}

// HasDominatingSetOfSize reports whether g has a dominating set of
// cardinality at most size (the decision predicate of Theorem 2.1).
func HasDominatingSetOfSize(g *graph.Graph, size int) (bool, error) {
	return new(MDSOracle).HasDominatingSetOfSize(g, size)
}

// MinDominatingSetOfTargets computes a minimum-weight set of vertices
// (drawn from the whole graph) that dominates every vertex in targets —
// the sub-problem the Section 5.1 limitation protocols solve per side
// ("cover optimally all the vertices in V_A, possibly using cut
// vertices").
func MinDominatingSetOfTargets(g *graph.Graph, targets []int) (int64, []int, error) {
	n := g.N()
	if n > 512 {
		return 0, nil, fmt.Errorf("exact MDS limited to 512 vertices, got %d", n)
	}
	if len(targets) == 0 {
		return 0, []int{}, nil
	}
	// Reduce to plain MDS by marking non-targets as already dominated:
	// run the capped search with an initial dominated set.
	needed := newBitset(n)
	for _, v := range targets {
		if v < 0 || v >= n {
			return 0, nil, fmt.Errorf("target %d out of range", v)
		}
		needed.set(v)
	}
	dominatedInit := newBitset(n)
	for v := 0; v < n; v++ {
		if !needed.get(v) {
			dominatedInit.set(v)
		}
	}
	weight, set, found, err := minDominatingSetFrom(g, dominatedInit, math.MaxInt64/2)
	if err != nil {
		return 0, nil, err
	}
	if !found {
		return 0, nil, fmt.Errorf("internal: no covering set found")
	}
	return weight, set, nil
}

// MinKDominatingSet computes a minimum-weight set S such that every vertex
// is within hop distance k of S (the k-MDS problem of Section 4.3),
// implemented as MDS on the k-th power graph.
func MinKDominatingSet(g *graph.Graph, k int) (int64, []int, error) {
	if k < 1 {
		return 0, nil, fmt.Errorf("k must be >= 1, got %d", k)
	}
	return MinDominatingSet(g.Power(k))
}

// minDominatingSetCapped finds a minimum-weight dominating set of weight at
// most cap. It returns found = false if every dominating set exceeds cap.
func minDominatingSetCapped(g *graph.Graph, cap int64) (int64, []int, bool, error) {
	n := g.N()
	if n == 0 {
		return 0, []int{}, true, nil
	}
	if n > 512 {
		return 0, nil, false, fmt.Errorf("exact MDS limited to 512 vertices, got %d", n)
	}
	return minDominatingSetFrom(g, newBitset(n), cap)
}

// minDominatingSetFrom is minDominatingSetCapped starting from a set of
// vertices already considered dominated.
func minDominatingSetFrom(g *graph.Graph, dominatedInit bitset, cap int64) (int64, []int, bool, error) {
	o := new(MDSOracle)
	o.grow(g.N())
	o.fillClosed(g)
	weight, set, found := o.search(g, dominatedInit, cap, false)
	if !found {
		return 0, nil, false, nil
	}
	out := append([]int(nil), set...)
	return weight, out, true, nil
}

// MDSOracle is a reusable exact minimum-dominating-set evaluator: it owns
// the branch-and-bound scratch (closed-neighborhood bitsets, branch orders,
// per-depth bitsets), so a worker holding one across many same-size graphs
// pays no per-call allocation. Its decisions carry the last dominating set
// within the cap and the last NO instance (see carry.go): a graph whose
// closed neighbourhoods lie within the NO instance's, whose vertices weigh
// at least as much and whose cap is no larger has no dominating set within
// the cap either. The package-level functions delegate to a fresh oracle;
// verification workers keep one warm. The zero value is ready to use. Not
// safe for concurrent use.
type MDSOracle struct {
	n            int
	bits         []uint64 // the backing words of every bitset below
	closed       []bitset
	candidatesOf [][]int
	deg          []int // deg[v] is v's degree in the searched graph
	// The closed rows that candidatesOf and maxCover were built from.
	orderRows []uint64
	ordered   bool
	scratch   []bitset
	current   []int
	bestSet   []int
	initBuf   bitset
	cert      []int // the last YES certificate
	mark      bitset
	no        noSnapshot

	// per-search state
	g              *graph.Graph
	unit           bool
	cap            int64
	first          bool // stop at the first set within the cap
	best           int64
	found          bool
	useGreedyBound bool
	minWeight      int64
	maxCover       int

	effort
}

// HasDominatingSetOfSize reports whether g has a dominating set of
// cardinality at most size, reusing the oracle's scratch. It is the
// arena-backed equivalent of the package-level HasDominatingSetOfSize
// (which clones the graph to unit weights; the oracle instead evaluates
// weights as 1 directly).
func (o *MDSOracle) HasDominatingSetOfSize(g *graph.Graph, size int) (bool, error) {
	return o.decide(g, int64(size), true)
}

// HasDominatingSetOfWeight reports whether g has a dominating set of total
// vertex weight at most cap, reusing the oracle's scratch. It is the
// arena-backed equivalent of MinDominatingSetWithin's found bit.
func (o *MDSOracle) HasDominatingSetOfWeight(g *graph.Graph, cap int64) (bool, error) {
	return o.decide(g, cap, false)
}

// decide answers from the carries when they hold, and otherwise searches
// until the first dominating set within cap.
func (o *MDSOracle) decide(g *graph.Graph, cap int64, unit bool) (bool, error) {
	n := g.N()
	if n == 0 {
		return true, nil
	}
	if n > 512 {
		return false, fmt.Errorf("exact MDS limited to 512 vertices, got %d", n)
	}
	o.grow(n)
	o.g, o.cap, o.unit = g, cap, unit
	return decide(o, true, "MDS", n)
}

func (o *MDSOracle) certHolds() bool {
	return checkDominatingSet(o.g, o.cert, o.unit, o.cap, o.mark)
}

// noCarried builds the closed rows, which the search reads too, and
// reports whether each lies within the NO snapshot's row, every vertex
// weighs at least its stored weight (unless unit) and the cap is at most
// the stored cap.
//
//hardness:hotpath
func (o *MDSOracle) noCarried() bool {
	o.fillClosed(o.g)
	s := &o.no
	if !s.matches(o.n, noKey{boolInt(o.unit)}, nil) || o.cap > s.limit {
		return false
	}
	for v, b := range o.closed {
		row := s.row(v)
		for i, w := range row {
			if b[i]&^w != 0 {
				return false
			}
		}
		if !o.unit && o.g.VertexWeight(v) < s.w[v] {
			return false
		}
	}
	return true
}

func (o *MDSOracle) searched() bool {
	clear(o.initBuf)
	o.first = true
	_, set, found := o.search(o.g, o.initBuf, o.cap, o.unit)
	o.first = false
	if found {
		o.cert = append(o.cert[:0], set...)
	}
	return found
}

func (o *MDSOracle) keepNo() {
	s := &o.no
	s.store(o.n, o.cap, noKey{boolInt(o.unit)}, nil, o.n)
	s.keepRows(o.closed)
	for v := range s.w {
		s.w[v] = o.vw(v)
	}
}

// grow sizes the arena for n-vertex graphs, carving it from the memory of
// earlier sizes and allocating only where that is short, so an oracle
// serving graphs of varying size (a collect root's components) stops
// allocating once it has seen the largest. A size change drops the
// carried certificate and the branch orders; the NO snapshot keeps its
// own vertex count, which an instance must match.
func (o *MDSOracle) grow(n int) {
	if o.n == n {
		return
	}
	o.n = n
	words := (n + 63) / 64
	// The bitsets are consecutive words-word windows of one slab: the n
	// closed rows, the n+1 per-depth scratch sets, initBuf and mark.
	slab := resize(&o.bits, (2*n+3)*words)
	carve := func() bitset {
		b := bitset(slab[:words:words])
		slab = slab[words:]
		return b
	}
	for v := range resize(&o.closed, n) {
		o.closed[v] = carve()
	}
	for d := range resize(&o.scratch, n+1) {
		o.scratch[d] = carve()
	}
	o.initBuf, o.mark = carve(), carve()
	if cap(o.candidatesOf) < n {
		// Keep the lists of earlier sizes: order refills them in place.
		o.candidatesOf = append(o.candidatesOf[:cap(o.candidatesOf)], make([][]int, n-cap(o.candidatesOf))...)
	}
	o.candidatesOf = o.candidatesOf[:n]
	resize(&o.deg, n)
	resize(&o.orderRows, n*words)
	o.ordered = false
	o.current = resize(&o.current, n)[:0]
	o.cert = resize(&o.cert, n)[:0]
}

// resize returns *buf resized to length n, reallocating only when its
// capacity is short; the contents are unspecified.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// fillClosed sets closed[v] = N[v] as a bitset.
func (o *MDSOracle) fillClosed(g *graph.Graph) {
	for v, b := range o.closed {
		clear(b)
		b.set(v)
		for _, h := range g.Neighbors(v) {
			b.set(h.To)
		}
	}
}

func (o *MDSOracle) vw(v int) int64 {
	if o.unit {
		return 1
	}
	return o.g.VertexWeight(v)
}

// search runs the capped branch and bound on the closed rows of g, which
// the caller has filled. The returned set aliases the oracle's storage and
// is only valid until the next call.
func (o *MDSOracle) search(g *graph.Graph, dominatedInit bitset, cap int64, unit bool) (int64, []int, bool) {
	n := g.N()
	o.grow(n)
	o.g, o.unit = g, unit
	// Greedy bound ingredients: the bound is only valid when every vertex
	// weight is at least minWeight >= 1; with zero-weight vertices we fall
	// back to pruning on the accumulated weight alone.
	o.useGreedyBound = true
	o.minWeight = math.MaxInt64
	for v := 0; v < n; v++ {
		w := o.vw(v)
		if w < 1 {
			o.useGreedyBound = false
		}
		if w < o.minWeight {
			o.minWeight = w
		}
	}
	if !o.ordersCurrent() {
		o.order(g)
	}

	o.best = cap + 1
	o.found = false
	o.bestSet = o.bestSet[:0]
	o.current = o.current[:0]
	o.searches++

	init := o.scratch[n]
	copy(init, dominatedInit)
	o.recurse(init, 0, 0)
	if !o.found {
		return 0, nil, false
	}
	sort.Ints(o.bestSet)
	return o.best, o.bestSet, true
}

// ordersCurrent reports whether the branch orders and maxCover were built
// from closed rows equal to the current ones, and keeps the current rows
// for the next call when they were not. kmdslb's power graph keeps its
// edges across calls, so its orders are built once.
func (o *MDSOracle) ordersCurrent() bool {
	same := o.ordered
	for v, b := range o.closed {
		kept := o.orderRows[v*len(b) : (v+1)*len(b)]
		if same && !slices.Equal(kept, b) {
			same = false
		}
		if !same {
			copy(kept, b)
		}
	}
	o.ordered = true
	return same
}

// order builds the branch orders and maxCover of g, whose closed rows are
// current.
func (o *MDSOracle) order(g *graph.Graph) {
	n := g.N()
	deg := o.deg
	o.maxCover = 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		o.maxCover = max(o.maxCover, deg[v]+1)
	}
	// Branch order is fixed per vertex (N[v] by descending degree), so it
	// is hoisted out of the recursion; the insertion sort reuses the
	// arena's slices, allocating only while a window grows past its
	// high-water mark.
	for v := 0; v < n; v++ {
		candidates := append(o.candidatesOf[v][:0], v)
		for _, h := range g.Neighbors(v) {
			candidates = append(candidates, h.To)
		}
		for i := 1; i < len(candidates); i++ {
			c := candidates[i]
			j := i
			for j > 0 && deg[candidates[j-1]] < deg[c] {
				candidates[j] = candidates[j-1]
				j--
			}
			candidates[j] = c
		}
		o.candidatesOf[v] = candidates
	}
}

//hardness:hotpath
func (o *MDSOracle) recurse(dominated bitset, weight int64, depth int) {
	o.nodes++
	n := o.n
	undominated := n - dominated.count()
	if undominated == 0 {
		if weight < o.best {
			o.best = weight
			o.found = true
			o.bestSet = append(o.bestSet[:0], o.current...)
		}
		return
	}
	// Greedy lower bound: every added vertex dominates at most maxCover
	// new vertices and costs at least minWeight.
	if o.useGreedyBound {
		lb := int64((undominated+o.maxCover-1)/o.maxCover) * o.minWeight
		if weight+lb >= o.best {
			return
		}
	}
	if weight >= o.best {
		return
	}
	v := dominated.firstClear(n)
	// v must be dominated by some vertex in N[v]; branch over choices,
	// heaviest domination gain first.
	next := o.scratch[depth]
	for _, c := range o.candidatesOf[v] {
		copy(next, dominated)
		next.orInto(o.closed[c])
		o.current = append(o.current, c) //nolint:hardlint/hotalloc arena slice has cap n from grow(); never reallocates
		o.recurse(next, weight+o.vw(c), depth+1)
		o.current = o.current[:len(o.current)-1]
		if o.first && o.found {
			return
		}
	}
}

// IsDominatingSet reports whether set dominates every vertex of g.
func IsDominatingSet(g *graph.Graph, set []int) bool {
	return checkDominatingSet(g, set, true, math.MaxInt64, newBitset(g.N()))
}

// IsKDominatingSet reports whether every vertex of g is within hop
// distance k of the set.
func IsKDominatingSet(g *graph.Graph, set []int, k int) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	const unreached = -1
	dist := make([]int, n)
	for i := range dist {
		dist[i] = unreached
	}
	queue := make([]int, 0, n)
	for _, v := range set {
		if v < 0 || v >= n {
			return false
		}
		if dist[v] == unreached {
			dist[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= k {
			continue
		}
		for _, h := range g.Neighbors(v) {
			if dist[h.To] == unreached {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	for _, d := range dist {
		if d == unreached {
			return false
		}
	}
	return true
}
