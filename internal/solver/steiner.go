package solver

import (
	"fmt"
	"math"
	"math/bits"

	"congesthard/internal/graph"
)

// SteinerTree computes the minimum total edge weight of a tree spanning
// the given terminals, using the Dreyfus-Wagner dynamic program
// (O(3^t * n + 2^t * n^2)). Practical to about 14 terminals.
func SteinerTree(g *graph.Graph, terminals []int) (int64, error) {
	t := len(terminals)
	n := g.N()
	if t == 0 {
		return 0, nil
	}
	if t > 14 {
		return 0, fmt.Errorf("dreyfus-wagner limited to 14 terminals, got %d", t)
	}
	if err := checkTerminals(n, terminals); err != nil {
		return 0, err
	}
	const inf = int64(math.MaxInt64 / 4)
	// All-pairs shortest paths by n Dijkstra runs.
	dist := make([][]int64, n)
	for v := 0; v < n; v++ {
		dv := g.Dijkstra(v)
		dist[v] = make([]int64, n)
		for u := range dv {
			if dv[u] < 0 {
				dist[v][u] = inf
			} else {
				dist[v][u] = dv[u]
			}
		}
	}
	// dp[S][v] = min weight of a tree spanning terminal subset S plus
	// vertex v.
	size := 1 << uint(t)
	dp := make([][]int64, size)
	for s := range dp {
		dp[s] = make([]int64, n)
		for v := range dp[s] {
			dp[s][v] = inf
		}
	}
	for i, term := range terminals {
		for v := 0; v < n; v++ {
			dp[1<<uint(i)][v] = dist[term][v]
		}
	}
	for s := 1; s < size; s++ {
		if s&(s-1) == 0 {
			continue // singletons already seeded
		}
		// Merge step: split S into two non-empty parts at a common vertex.
		for v := 0; v < n; v++ {
			for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
				if sub < s-sub {
					break // each split considered once
				}
				if a, b := dp[sub][v], dp[s^sub][v]; a < inf && b < inf && a+b < dp[s][v] {
					dp[s][v] = a + b
				}
			}
		}
		// Grow step: Bellman-Ford style relaxation through shortest paths.
		for v := 0; v < n; v++ {
			for u := 0; u < n; u++ {
				if dp[s][u] < inf && dist[u][v] < inf {
					if cand := dp[s][u] + dist[u][v]; cand < dp[s][v] {
						dp[s][v] = cand
					}
				}
			}
		}
	}
	best := inf
	for v := 0; v < n; v++ {
		if dp[size-1][v] < best {
			best = dp[size-1][v]
		}
	}
	if best >= inf {
		return 0, fmt.Errorf("terminals not connected")
	}
	return best, nil
}

// HasSteinerTreeWithEdges reports whether g has a Steiner tree spanning all
// terminals with at most maxEdges edges. A tree with e edges has e+1
// vertices, so at most maxEdges+1-d non-terminals join the d distinct
// terminals; the decision searches for such a set of non-terminals that
// connects every terminal (SteinerOracle documents the search). Exact; it
// rejects parameter combinations whose unpruned search space, the subsets
// of that many non-terminals, exceeds ~10^7.
func HasSteinerTreeWithEdges(g *graph.Graph, terminals []int, maxEdges int) (bool, error) {
	return new(SteinerOracle).HasSteinerTreeWithEdges(g, terminals, maxEdges)
}

// SteinerOracle is a reusable Steiner-tree decision evaluator. The search
// grows reach, the component of terminals[0] in the subgraph induced by
// the terminals and the chosen non-terminals, one non-terminal at a time:
//
//   - It branches only on non-terminals adjacent to reach: while a
//     terminal is unreached, any tree that finishes the job adds one of
//     them next. Reach is extended by flooding from the new vertex alone.
//   - A candidate that fails is excluded from its later siblings, so each
//     vertex set is visited at most once.
//   - A terminal with no terminal neighbour needs a chosen neighbour of
//     its own, and one new vertex covers at most maxCover unreached such
//     terminals, so a branch is cut when maxCover·remaining falls short.
//
// Graphs of at most 64 vertices run on single-word masks, larger ones on
// bitsets. The oracle owns the adjacency rows and per-depth state, so a
// worker holding one across many same-size graphs does not allocate. The
// zero value is ready to use. Not safe for concurrent use.
type SteinerOracle struct {
	isTerminal []bool

	// n <= 64: adjacency rows and the terminal, isolated-terminal and
	// non-terminal masks of the current graph.
	adjMask            []uint64
	term, iso, nonTerm uint64

	// n > 64: the same on bitsets, plus per-depth reach, neighbourhood and
	// excluded sets (three bitsets per depth, flat) and a flood stack.
	adj                                  []bitset
	termSet, isoSet, nonTermSet, isoLeft bitset
	levels                               []uint64
	stack                                []int
}

// HasSteinerTreeWithEdges is the arena-backed equivalent of the package
// function, with the same limits and error messages.
func (o *SteinerOracle) HasSteinerTreeWithEdges(g *graph.Graph, terminals []int, maxEdges int) (bool, error) {
	return o.decide(g, terminals, maxEdges, g.N() > 64)
}

// decide runs the search on single-word masks, or on bitsets when wide is
// set; tests force wide on small graphs.
func (o *SteinerOracle) decide(g *graph.Graph, terminals []int, maxEdges int, wide bool) (bool, error) {
	n := g.N()
	if len(o.isTerminal) < n {
		o.isTerminal = make([]bool, n)
	}
	isTerminal := o.isTerminal[:n]
	for v := range isTerminal {
		isTerminal[v] = false
	}
	distinct := 0
	for _, v := range terminals {
		if v < 0 || v >= n {
			return false, fmt.Errorf("terminal %d out of range", v)
		}
		if !isTerminal[v] {
			isTerminal[v] = true
			distinct++
		}
	}
	budget := maxEdges + 1 - distinct
	if budget < 0 {
		return false, nil
	}
	others := n - distinct
	if budget > others {
		budget = others
	}
	if c := binomialSum(others, budget); c > 1e7 {
		return false, fmt.Errorf("steiner decision too large: ~%.0f subsets", c)
	}
	if len(terminals) == 0 {
		return true, nil
	}
	if wide {
		return o.hasWide(g, terminals[0], budget), nil
	}
	return o.hasSmall(g, terminals[0], budget), nil
}

// hasSmall is the n <= 64 search: every vertex set is one machine word.
func (o *SteinerOracle) hasSmall(g *graph.Graph, start, budget int) bool {
	n := g.N()
	if len(o.adjMask) < n {
		o.adjMask = make([]uint64, n)
	}
	adj := o.adjMask[:n]
	o.term = 0
	for v := 0; v < n; v++ {
		adj[v] = 0
		for _, h := range g.Neighbors(v) {
			adj[v] |= uint64(1) << uint(h.To)
		}
		if o.isTerminal[v] {
			o.term |= uint64(1) << uint(v)
		}
	}
	o.iso = 0
	for t := o.term; t != 0; t &= t - 1 {
		if v := bits.TrailingZeros64(t); adj[v]&o.term == 0 {
			o.iso |= uint64(1) << uint(v)
		}
	}
	o.nonTerm = (^uint64(0) >> uint(64-n)) &^ o.term
	reach, nbr := o.floodSmall(uint64(1)<<uint(start), 0, start)
	return o.searchSmall(reach, nbr, 0, budget)
}

// floodSmall adds to reach every terminal reachable from v (already in
// reach) through unreached terminals, and folds the neighbourhoods of v and
// of the added terminals into nbr.
func (o *SteinerOracle) floodSmall(reach, nbr uint64, v int) (uint64, uint64) {
	for pending := uint64(1) << uint(v); pending != 0; {
		row := o.adjMask[bits.TrailingZeros64(pending)]
		pending &= pending - 1
		nbr |= row
		add := row & o.term &^ reach
		reach |= add
		pending |= add
	}
	return reach, nbr
}

// searchSmall reports whether at most remaining more non-terminals, none
// of them in excluded, complete reach to a set connecting every terminal.
// nbr is the union of the neighbourhoods of reach.
func (o *SteinerOracle) searchSmall(reach, nbr, excluded uint64, remaining int) bool {
	if o.term&^reach == 0 {
		return true
	}
	if remaining == 0 {
		return false
	}
	free := o.nonTerm &^ reach &^ excluded
	if iso := o.iso &^ reach; iso != 0 {
		maxCover := 0
		for f := free; f != 0; f &= f - 1 {
			if c := bits.OnesCount64(o.adjMask[bits.TrailingZeros64(f)] & iso); c > maxCover {
				maxCover = c
			}
		}
		if maxCover*remaining < bits.OnesCount64(iso) {
			return false
		}
	}
	for cand := nbr & free; cand != 0; cand &= cand - 1 {
		c := bits.TrailingZeros64(cand)
		bit := uint64(1) << uint(c)
		r, nb := o.floodSmall(reach|bit, nbr, c)
		if o.searchSmall(r, nb, excluded, remaining-1) {
			return true
		}
		excluded |= bit
	}
	return false
}

// hasWide is searchSmall's algorithm on bitsets, for graphs of any size.
func (o *SteinerOracle) hasWide(g *graph.Graph, start, budget int) bool {
	n := g.N()
	words := (n + 63) / 64
	if len(o.adj) < n || len(o.adj[0]) < words {
		o.adj = make([]bitset, n)
		for v := range o.adj {
			o.adj[v] = newBitset(n)
		}
		o.termSet, o.isoSet, o.nonTermSet, o.isoLeft = newBitset(n), newBitset(n), newBitset(n), newBitset(n)
		o.stack = make([]int, 0, n)
	}
	if need := (budget + 1) * 3 * words; len(o.levels) < need {
		o.levels = make([]uint64, need)
	}
	term, iso, nonTerm := o.termSet[:words], o.isoSet[:words], o.nonTermSet[:words]
	for w := range term {
		term[w], iso[w], nonTerm[w] = 0, 0, 0
	}
	for v := 0; v < n; v++ {
		row := o.adj[v][:words]
		for w := range row {
			row[w] = 0
		}
		for _, h := range g.Neighbors(v) {
			row.set(h.To)
		}
		if o.isTerminal[v] {
			term.set(v)
		} else {
			nonTerm.set(v)
		}
	}
	for v := 0; v < n; v++ {
		if o.isTerminal[v] && countAnd(o.adj[v][:words], term) == 0 {
			iso.set(v)
		}
	}
	reach, nbr, excluded := o.level(0, words)
	for w := range reach {
		reach[w], nbr[w], excluded[w] = 0, 0, 0
	}
	reach.set(start)
	o.floodWide(reach, nbr, start, words)
	return o.searchWide(0, budget, words)
}

// level returns the reach, neighbourhood and excluded bitsets of depth d.
func (o *SteinerOracle) level(d, words int) (reach, nbr, excluded bitset) {
	base := o.levels[d*3*words:]
	return base[:words], base[words : 2*words], base[2*words : 3*words]
}

// floodWide is floodSmall on bitsets, updating reach and nbr in place.
func (o *SteinerOracle) floodWide(reach, nbr bitset, v, words int) {
	term := o.termSet[:words]
	stack := append(o.stack[:0], v)
	for len(stack) > 0 {
		row := o.adj[stack[len(stack)-1]][:words]
		stack = stack[:len(stack)-1]
		for w := range row {
			nbr[w] |= row[w]
			for add := row[w] & term[w] &^ reach[w]; add != 0; add &= add - 1 {
				stack = append(stack, w*64+bits.TrailingZeros64(add))
			}
			reach[w] |= row[w] & term[w]
		}
	}
	o.stack = stack
}

// searchWide is searchSmall on the depth-d bitsets; a child's state is
// written to depth d+1.
func (o *SteinerOracle) searchWide(d, remaining, words int) bool {
	reach, nbr, excluded := o.level(d, words)
	term, nonTerm, isoLeft := o.termSet[:words], o.nonTermSet[:words], o.isoLeft[:words]
	done, need := true, 0
	for w := range reach {
		if term[w]&^reach[w] != 0 {
			done = false
		}
		isoLeft[w] = o.isoSet[w] &^ reach[w]
		need += bits.OnesCount64(isoLeft[w])
	}
	if done {
		return true
	}
	if remaining == 0 {
		return false
	}
	if need > 0 {
		maxCover := 0
		for w := range reach {
			for f := nonTerm[w] &^ reach[w] &^ excluded[w]; f != 0; f &= f - 1 {
				if c := countAnd(o.adj[w*64+bits.TrailingZeros64(f)][:words], isoLeft); c > maxCover {
					maxCover = c
				}
			}
		}
		if maxCover*remaining < need {
			return false
		}
	}
	childReach, childNbr, childExcluded := o.level(d+1, words)
	for w := range reach {
		for cand := nbr[w] & nonTerm[w] &^ reach[w] &^ excluded[w]; cand != 0; cand &= cand - 1 {
			c := w*64 + bits.TrailingZeros64(cand)
			copy(childReach, reach)
			copy(childNbr, nbr)
			copy(childExcluded, excluded)
			childReach.set(c)
			o.floodWide(childReach, childNbr, c, words)
			if o.searchWide(d+1, remaining-1, words) {
				return true
			}
			excluded.set(c)
		}
	}
	return false
}

// countAnd returns |a ∩ b|.
func countAnd(a, b bitset) int {
	c := 0
	for w := range a {
		c += bits.OnesCount64(a[w] & b[w])
	}
	return c
}

func binomialSum(n, k int) float64 {
	total := 0.0
	term := 1.0
	for i := 0; i <= k && i <= n; i++ {
		total += term
		term = term * float64(n-i) / float64(i+1)
	}
	return total
}

// IsSteinerTree validates a claimed Steiner tree given as an edge list: the
// edges must exist in g, form a tree (connected, acyclic over the touched
// vertices), and span all terminals. Returns the tree's total edge weight.
func IsSteinerTree(g *graph.Graph, terminals []int, edges []graph.Edge) (int64, bool) {
	if len(edges) == 0 {
		return 0, len(terminals) <= 1
	}
	touched := map[int]bool{}
	var weight int64
	uf := newUnionFind(g.N())
	for _, e := range edges {
		w, ok := g.EdgeWeight(e.U, e.V)
		if !ok {
			return 0, false
		}
		if !uf.union(e.U, e.V) {
			return 0, false // cycle
		}
		weight += w
		touched[e.U] = true
		touched[e.V] = true
	}
	if len(terminals) > 0 {
		root := uf.find(terminals[0])
		for _, term := range terminals {
			if !touched[term] && len(edges) > 0 {
				// A terminal not touched by any edge can only be fine if it
				// is the unique terminal; with edges present it must appear.
				return 0, false
			}
			if uf.find(term) != root {
				return 0, false
			}
		}
	}
	// Tree check: edges == touched vertices - 1 and connected over touched.
	if len(edges) != len(touched)-1 {
		return 0, false
	}
	return weight, true
}

// NodeWeightedSteinerEnum computes the minimum vertex-weight of a connected
// subgraph spanning all terminals, where the cost is the sum of weights of
// the subgraph's vertices. It enumerates subsets of the positive-weight
// vertices (zero-weight vertices are free), so it requires at most
// maxPositive positive-weight vertices (default limit 22). This covers the
// Section 4.4 node-weighted Steiner instances, whose only positively
// weighted vertices are the set vertices S_i, ~S_i.
func NodeWeightedSteinerEnum(g *graph.Graph, terminals []int) (int64, error) {
	n := g.N()
	if err := checkTerminals(n, terminals); err != nil {
		return 0, err
	}
	var positive []int
	for v := 0; v < n; v++ {
		if g.VertexWeight(v) > 0 {
			positive = append(positive, v)
		}
	}
	if len(positive) > 22 {
		return 0, fmt.Errorf("node-weighted steiner enumeration limited to 22 positive-weight vertices, got %d", len(positive))
	}
	if len(terminals) == 0 {
		return 0, nil
	}
	const inf = int64(math.MaxInt64 / 4)
	best := inf
	subsets := 1 << uint(len(positive))
	allowed := make([]bool, n)
	scratch := newBFSScratch(n)
	for mask := 0; mask < subsets; mask++ {
		var weight int64
		for v := 0; v < n; v++ {
			allowed[v] = g.VertexWeight(v) == 0
		}
		for i, v := range positive {
			if mask>>uint(i)&1 == 1 {
				allowed[v] = true
				weight += g.VertexWeight(v)
			}
		}
		// Terminals are always usable; they pay their own weight if positive
		// (in the paper's instances terminals have weight 0).
		for _, term := range terminals {
			if !allowed[term] {
				weight += g.VertexWeight(term)
				allowed[term] = true
			}
		}
		if weight >= best {
			continue
		}
		if scratch.terminalsConnected(g, terminals, allowed) {
			best = weight
		}
	}
	if best >= inf {
		return 0, fmt.Errorf("terminals not connectable")
	}
	return best, nil
}

// HasNodeSteinerWithin decides whether the terminals can be connected by a
// subgraph whose positive-weight vertices total at most budget (terminals
// and zero-weight vertices are free when their weight is zero; positive
// terminals count). It enumerates light subsets of the positive vertices
// with weight pruning, so a small budget is cheap even when the number of
// positive vertices is large.
func HasNodeSteinerWithin(g *graph.Graph, terminals []int, budget int64) (bool, error) {
	if len(terminals) == 0 {
		return true, nil
	}
	n := g.N()
	var positive []int
	var mandatory int64
	isTerminal := make([]bool, n)
	for _, v := range terminals {
		if v < 0 || v >= n {
			return false, fmt.Errorf("terminal %d out of range", v)
		}
		isTerminal[v] = true
		mandatory += g.VertexWeight(v)
	}
	if mandatory > budget {
		return false, nil
	}
	for v := 0; v < n; v++ {
		if g.VertexWeight(v) > 0 && !isTerminal[v] {
			positive = append(positive, v)
		}
	}
	allowed := make([]bool, n)
	scratch := newBFSScratch(n)
	var try func(idx int, remaining int64) bool
	try = func(idx int, remaining int64) bool {
		if scratch.terminalsConnected(g, terminals, allowed) {
			return true
		}
		for i := idx; i < len(positive); i++ {
			v := positive[i]
			w := g.VertexWeight(v)
			if w > remaining {
				continue
			}
			allowed[v] = true
			if try(i+1, remaining-w) {
				return true
			}
			allowed[v] = false
		}
		return false
	}
	for v := 0; v < n; v++ {
		allowed[v] = isTerminal[v] || g.VertexWeight(v) == 0
	}
	return try(0, budget-mandatory), nil
}

// HasDirectedSteinerWithin decides whether all terminals are reachable
// from root through a subgraph whose positive-weight arcs total at most
// budget (zero-weight arcs are free), on a fresh DirSteinerOracle.
func HasDirectedSteinerWithin(d *graph.Digraph, root int, terminals []int, budget int64) (bool, error) {
	return new(DirSteinerOracle).HasDirectedSteinerWithin(d, root, terminals, budget)
}

// DirSteinerOracle is a reusable directed-Steiner decision evaluator. It
// enumerates light subsets of the positive-weight arcs with weight
// pruning, probing reachability once per subset. It owns the positive-arc
// list, the enabled-arc stack and the generation-stamped BFS scratch, so a
// verification worker holding one across thousands of pairs pays no
// per-call allocation. DirectedSteinerEnum, which enumerates every subset,
// is its independent test reference. The zero value is ready to use. Not
// safe for concurrent use.
type DirSteinerOracle struct {
	positive []graph.Arc
	enabled  [][2]int
	seen     []int32
	gen      int32
	queue    []int
}

func (o *DirSteinerOracle) grow(n int) {
	if len(o.seen) < n {
		o.seen = make([]int32, n)
		o.gen = 0
	}
	if cap(o.queue) < n {
		o.queue = make([]int, 0, n)
	}
}

// HasDirectedSteinerWithin decides whether all terminals are reachable
// from root through a subgraph whose positive-weight arcs total at most
// budget (zero-weight arcs are free), on the oracle's arena.
func (o *DirSteinerOracle) HasDirectedSteinerWithin(d *graph.Digraph, root int, terminals []int, budget int64) (bool, error) {
	n := d.N()
	if root < 0 || root >= n {
		return false, fmt.Errorf("root %d out of range", root)
	}
	if err := checkTerminals(n, terminals); err != nil {
		return false, err
	}
	if budget < 0 {
		return false, nil // every subgraph weighs at least 0
	}
	o.grow(n)
	o.positive = o.positive[:0]
	for u := 0; u < n; u++ {
		for _, h := range d.OutNeighbors(u) {
			if h.Weight > 0 {
				o.positive = append(o.positive, graph.Arc{From: u, To: h.To, Weight: h.Weight})
			}
		}
	}
	o.enabled = o.enabled[:0]
	var try func(idx int, remaining int64) bool
	try = func(idx int, remaining int64) bool {
		if o.allReachable(d, root, terminals) {
			return true
		}
		for i := idx; i < len(o.positive); i++ {
			a := o.positive[i]
			if a.Weight > remaining {
				continue
			}
			o.enabled = append(o.enabled, [2]int{a.From, a.To})
			if try(i+1, remaining-a.Weight) {
				return true
			}
			o.enabled = o.enabled[:len(o.enabled)-1]
		}
		return false
	}
	return try(0, budget), nil
}

// allReachable reports whether every terminal is reachable from root
// along zero-weight and enabled arcs. Seen marks are generation-stamped
// (no clearing), and the small enabled stack is scanned linearly.
func (o *DirSteinerOracle) allReachable(d *graph.Digraph, root int, terminals []int) bool {
	o.gen++
	o.queue = o.queue[:0]
	o.queue = append(o.queue, root)
	o.seen[root] = o.gen
	for head := 0; head < len(o.queue); head++ {
		v := o.queue[head]
		for _, h := range d.OutNeighbors(v) {
			usable := h.Weight == 0
			if !usable {
				for _, e := range o.enabled {
					if e[0] == v && e[1] == h.To {
						usable = true
						break
					}
				}
			}
			if usable && o.seen[h.To] != o.gen {
				o.seen[h.To] = o.gen
				o.queue = append(o.queue, h.To)
			}
		}
	}
	for _, term := range terminals {
		if o.seen[term] != o.gen {
			return false
		}
	}
	return true
}

// checkTerminals returns the out-of-range error for the first terminal
// outside [0, n), or nil.
func checkTerminals(n int, terminals []int) error {
	for _, v := range terminals {
		if v < 0 || v >= n {
			return fmt.Errorf("terminal %d out of range", v)
		}
	}
	return nil
}

// bfsScratch holds reusable BFS buffers so that subset-enumeration solvers
// (which run one connectivity probe per candidate subset) do not allocate
// per probe. Seen-marks are epoch-stamped, so resets are O(1).
type bfsScratch struct {
	stamp []int32
	epoch int32
	queue []int
}

func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{stamp: make([]int32, n), queue: make([]int, 0, n)}
}

// terminalsConnected reports whether every terminal is reachable from
// terminals[0] through vertices marked allowed.
func (s *bfsScratch) terminalsConnected(g *graph.Graph, terminals []int, allowed []bool) bool {
	s.epoch++
	epoch := s.epoch
	queue := s.queue[:0]
	queue = append(queue, terminals[0])
	s.stamp[terminals[0]] = epoch
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, h := range g.Neighbors(v) {
			if allowed[h.To] && s.stamp[h.To] != epoch {
				s.stamp[h.To] = epoch
				queue = append(queue, h.To)
			}
		}
	}
	s.queue = queue
	for _, term := range terminals {
		if s.stamp[term] != epoch {
			return false
		}
	}
	return true
}

// DirectedSteinerEnum computes the minimum total arc weight of a subgraph
// in which every terminal is reachable from root, enumerating subsets of
// the positive-weight arcs (zero-weight arcs are free; limit 22 positive
// arcs). This covers the Section 4.4 directed Steiner instances.
func DirectedSteinerEnum(d *graph.Digraph, root int, terminals []int) (int64, error) {
	if root < 0 || root >= d.N() {
		return 0, fmt.Errorf("root %d out of range", root)
	}
	if err := checkTerminals(d.N(), terminals); err != nil {
		return 0, err
	}
	var positive []graph.Arc
	for _, a := range d.Arcs() {
		if a.Weight > 0 {
			positive = append(positive, a)
		}
	}
	if len(positive) > 22 {
		return 0, fmt.Errorf("directed steiner enumeration limited to 22 positive-weight arcs, got %d", len(positive))
	}
	// With every positive arc enabled the weight is an upper bound, if
	// the terminals are reachable at all. From there the Gray-code order
	// toggles one arc per subset. enabled[u*n+v] marks arc (u, v) usable.
	n := d.N()
	enabled := make([]bool, n*n)
	var best int64
	for _, a := range positive {
		enabled[a.From*n+a.To] = true
		best += a.Weight
	}
	if !allTerminalsReachable(d, root, terminals, enabled) {
		return 0, fmt.Errorf("terminals not reachable from root")
	}
	weight := best
	for i := 1; i < 1<<uint(len(positive)); i++ {
		j := bits.TrailingZeros(uint(i))
		a := positive[j]
		on := (i^i>>1)>>uint(j)&1 == 0
		enabled[a.From*n+a.To] = on
		if on {
			weight += a.Weight
		} else {
			weight -= a.Weight
		}
		if weight < best && allTerminalsReachable(d, root, terminals, enabled) {
			best = weight
		}
	}
	return best, nil
}

// allTerminalsReachable reports whether every terminal is reachable from
// root along zero-weight arcs and the positive arcs (u, v) with
// enabledPositive[u*n+v].
func allTerminalsReachable(d *graph.Digraph, root int, terminals []int, enabledPositive []bool) bool {
	n := d.N()
	seen := make([]bool, n)
	queue := []int{root}
	seen[root] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range d.OutNeighbors(v) {
			usable := h.Weight == 0 || enabledPositive[v*n+h.To]
			if usable && !seen[h.To] {
				seen[h.To] = true
				queue = append(queue, h.To)
			}
		}
	}
	for _, term := range terminals {
		if !seen[term] {
			return false
		}
	}
	return true
}

type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(v int) int {
	for uf.parent[v] != v {
		uf.parent[v] = uf.parent[uf.parent[v]]
		v = uf.parent[v]
	}
	return v
}

// union merges the sets of a and b; it returns false if they were already
// in the same set.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf.parent[ra] = rb
	return true
}
