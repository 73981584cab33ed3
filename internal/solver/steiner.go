package solver

import (
	"fmt"
	"math"
	"math/bits"

	"congesthard/internal/graph"
)

// HasSteinerTreeWithEdges reports whether g has a Steiner tree spanning all
// terminals with at most maxEdges edges. A tree with e edges has e+1
// vertices, so at most maxEdges+1-d non-terminals join the d distinct
// terminals; the decision searches for such a set of non-terminals that
// connects every terminal (SteinerOracle documents the search); with no
// terminals the empty tree answers. Exact; it rejects graphs of more than
// 4096 vertices.
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
// Vertex sets are fixed arrays of 64-bit words (see vertexSet), and a
// graph runs on the narrowest width that holds it: one word up to 64
// vertices, 64 words up to the 4096-vertex limit. The oracle allocates the
// search of each width on first use and keeps its adjacency rows, so a
// worker holding one across many graphs pays no per-call allocation. It
// carries the final reach of its last YES as a certificate and its last
// NO instance (see carry.go): a graph with the same terminals whose edges
// are all edges of that one has no Steiner tree within the same or a
// smaller budget either. The zero value is ready to use. Not safe for
// concurrent use.
type SteinerOracle struct {
	w1  *steinerSearch[[1]uint64, [64][1]uint64]
	w2  *steinerSearch[[2]uint64, [128][2]uint64]
	w4  *steinerSearch[[4]uint64, [256][4]uint64]
	w8  *steinerSearch[[8]uint64, [512][8]uint64]
	w16 *steinerSearch[[16]uint64, [1024][16]uint64]
	w32 *steinerSearch[[32]uint64, [2048][32]uint64]
	w64 *steinerSearch[[64]uint64, [4096][64]uint64]

	cert  []int // the last YES certificate, a vertex set
	mark  bitset
	queue []int
	no    noSnapshot

	// per-call state
	g                       *graph.Graph
	terminals               []int
	maxEdges, budget, words int
	effort
}

// HasSteinerTreeWithEdges is the arena-backed equivalent of the package
// function, with the same vertex limit and error messages.
func (o *SteinerOracle) HasSteinerTreeWithEdges(g *graph.Graph, terminals []int, maxEdges int) (bool, error) {
	return o.decide(g, terminals, maxEdges, 1)
}

// decide answers from the carries when they hold and otherwise searches,
// on vertex sets of at least words words. Tests force a wider search on
// small graphs; a forced width (words > 1) skips the carries, so that the
// wide search runs.
func (o *SteinerOracle) decide(g *graph.Graph, terminals []int, maxEdges, words int) (bool, error) {
	n := g.N()
	if err := checkTerminals(n, terminals); err != nil {
		return false, err
	}
	if len(terminals) == 0 {
		return maxEdges >= 0, nil // the empty tree
	}
	if n > maxSetVertices {
		return false, fmt.Errorf("steiner search limited to %d vertices, got %d", maxSetVertices, n)
	}
	// A tree with e edges has e+1 vertices, so at most maxEdges+1-distinct
	// of them are non-terminals.
	mark := markBuf(&o.mark, n)
	distinct := 0
	for _, v := range terminals {
		if !mark.get(v) {
			mark.set(v)
			distinct++
		}
	}
	budget := min(maxEdges+1-distinct, n-distinct)
	if budget < 0 {
		return false, nil
	}
	if cap(o.queue) < n {
		o.queue, o.cert = make([]int, 0, n), make([]int, 0, n)
	}
	o.g, o.terminals, o.maxEdges, o.budget, o.words = g, terminals, maxEdges, budget, words
	found, err := decide(o, words == 1, "Steiner", n)
	o.g, o.terminals = nil, nil
	return found, err
}

func (o *SteinerOracle) certHolds() bool {
	return checkSteinerSet(o.g, o.cert, o.terminals, o.maxEdges, o.mark, o.queue)
}

// noCarried reports whether the NO snapshot has the same terminals, at
// least the edge budget and every edge of the graph.
func (o *SteinerOracle) noCarried() bool {
	return o.no.matches(o.g.N(), noKey{}, o.terminals) && int64(o.maxEdges) <= o.no.limit && o.no.adjWithin(o.g.Neighbors)
}

func (o *SteinerOracle) searched() bool {
	g, terminals, budget := o.g, o.terminals, o.budget
	var found bool
	switch words := max(o.words, (g.N()+63)/64); {
	case words <= 1:
		found, o.cert = lazy(&o.w1).run(g, terminals, budget, &o.effort, o.cert)
	case words <= 2:
		found, o.cert = lazy(&o.w2).run(g, terminals, budget, &o.effort, o.cert)
	case words <= 4:
		found, o.cert = lazy(&o.w4).run(g, terminals, budget, &o.effort, o.cert)
	case words <= 8:
		found, o.cert = lazy(&o.w8).run(g, terminals, budget, &o.effort, o.cert)
	case words <= 16:
		found, o.cert = lazy(&o.w16).run(g, terminals, budget, &o.effort, o.cert)
	case words <= 32:
		found, o.cert = lazy(&o.w32).run(g, terminals, budget, &o.effort, o.cert)
	default:
		found, o.cert = lazy(&o.w64).run(g, terminals, budget, &o.effort, o.cert)
	}
	return found
}

func (o *SteinerOracle) keepNo() {
	o.no.store(o.g.N(), int64(o.maxEdges), noKey{}, o.terminals, 0)
	o.no.keepAdj(o.g.Neighbors, false)
}

// steinerSearch is SteinerOracle's search on vertex sets of type W, with
// adjacency rows R of 64·len(W) entries; rows from v = n on are stale and
// never read. A node's reach, neighbourhood and excluded sets are passed
// by value.
type steinerSearch[W vertexSet, R vertexRows[W]] struct {
	adj R
	// The terminals, the terminals with no terminal neighbour, and the
	// other vertices of the current graph.
	term, iso, nonTerm W
	// reach is the final reach of a search that answered YES.
	reach  W
	effort *effort
}

// run decides whether at most budget non-terminals connect the terminals
// (non-empty, in range) of g (at most 64·len(W) vertices). On YES it
// overwrites cert with the final reach, a vertex set that connects them.
// It counts the search and its nodes in e.
func (s *steinerSearch[W, R]) run(g *graph.Graph, terminals []int, budget int, e *effort, cert []int) (bool, []int) {
	n := g.N()
	e.searches++
	s.effort = e
	var zero W
	s.term, s.iso, s.nonTerm = zero, zero, zero
	for _, v := range terminals {
		s.term[v>>6] |= 1 << (v & 63)
	}
	for v := 0; v < n; v++ {
		row := &s.adj[v]
		*row = zero
		for _, h := range g.Neighbors(v) {
			(*row)[h.To>>6] |= 1 << (h.To & 63)
		}
		if s.term[v>>6]>>(v&63)&1 == 0 {
			s.nonTerm[v>>6] |= 1 << (v & 63)
			continue
		}
		var touch uint64
		for i := 0; ; i++ {
			touch |= (*row)[i] & s.term[i]
			if i == len(s.term)-1 {
				break
			}
		}
		if touch == 0 {
			s.iso[v>>6] |= 1 << (v & 63)
		}
	}
	if !s.search(zero, zero, zero, terminals[0], budget) {
		return false, cert
	}
	cert = cert[:0]
	for i := 0; ; i++ {
		for m := s.reach[i]; m != 0; m &= m - 1 {
			cert = append(cert, i<<6|bits.TrailingZeros64(m))
		}
		if i == len(s.reach)-1 {
			break
		}
	}
	return true, cert
}

// search adds v to reach, then every terminal reachable from v through
// terminals outside reach, one layer at a time, folding the
// neighbourhoods of v and of the added terminals into nbr, the union of
// the neighbourhoods of reach. It reports whether at most remaining more
// non-terminals, none of them in excluded, complete the new reach to a
// set connecting every terminal.
func (s *steinerSearch[W, R]) search(reach, nbr, excluded W, v, remaining int) bool {
	s.effort.nodes++
	var zero, frontier W
	frontier[v>>6] = 1 << (v & 63)
	reach[v>>6] |= frontier[v>>6]
	for frontier != zero {
		var next W
		for i := 0; ; i++ {
			for m := frontier[i]; m != 0; m &= m - 1 {
				row := &s.adj[i<<6|bits.TrailingZeros64(m)]
				for j := 0; ; j++ {
					next[j] |= (*row)[j]
					if j == len(next)-1 {
						break
					}
				}
			}
			if i == len(frontier)-1 {
				break
			}
		}
		for j := 0; ; j++ {
			nbr[j] |= next[j]
			next[j] &= s.term[j] &^ reach[j]
			reach[j] |= next[j]
			if j == len(next)-1 {
				break
			}
		}
		frontier = next
	}
	var left uint64
	for i := 0; ; i++ {
		left |= s.term[i] &^ reach[i]
		if i == len(reach)-1 {
			break
		}
	}
	if left == 0 {
		s.reach = reach
		return true
	}
	if remaining == 0 {
		return false
	}
	var free, iso W
	need := 0
	for i := 0; ; i++ {
		free[i] = s.nonTerm[i] &^ reach[i] &^ excluded[i]
		iso[i] = s.iso[i] &^ reach[i]
		need += bits.OnesCount64(iso[i])
		if i == len(free)-1 {
			break
		}
	}
	if need > 0 && !s.covers(free, iso, need, remaining) {
		return false
	}
	for i := 0; ; i++ {
		for cand := nbr[i] & free[i]; cand != 0; cand &= cand - 1 {
			c := i<<6 | bits.TrailingZeros64(cand)
			if s.search(reach, nbr, excluded, c, remaining-1) {
				return true
			}
			excluded[i] |= 1 << (c & 63)
		}
		if i == len(free)-1 {
			break
		}
	}
	return false
}

// covers reports whether remaining vertices of free may cover the need
// terminals of iso, none of which has a terminal neighbour: whether one
// vertex of free has at least need/remaining neighbours in iso.
func (s *steinerSearch[W, R]) covers(free, iso W, need, remaining int) bool {
	for i := 0; ; i++ {
		for f := free[i]; f != 0; f &= f - 1 {
			row := &s.adj[i<<6|bits.TrailingZeros64(f)]
			c := 0
			for j := 0; ; j++ {
				c += bits.OnesCount64((*row)[j] & iso[j])
				if j == len(iso)-1 {
					break
				}
			}
			if c*remaining >= need {
				return true
			}
		}
		if i == len(free)-1 {
			break
		}
	}
	return false
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
// weighted vertices are the set vertices S_i, ~S_i. It is the reference
// enumeration that HasNodeSteinerWithin is tested against.
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
// and zero-weight vertices are free when their weight is zero; a positive
// terminal counts once, however often it is listed). It enumerates light
// subsets of the positive vertices with weight pruning, so a small budget
// is cheap even when the number of positive vertices is large.
func HasNodeSteinerWithin(g *graph.Graph, terminals []int, budget int64) (bool, error) {
	if len(terminals) == 0 {
		return budget >= 0, nil // the empty subgraph weighs 0
	}
	n := g.N()
	var positive []int
	var mandatory int64
	isTerminal := make([]bool, n)
	for _, v := range terminals {
		if v < 0 || v >= n {
			return false, fmt.Errorf("terminal %d out of range", v)
		}
		if !isTerminal[v] { // a repeated terminal is paid for once
			isTerminal[v] = true
			mandatory += g.VertexWeight(v)
		}
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
// list, the enabled-arc stack with a mark per arc slot and the
// generation-stamped BFS scratch, so a verification worker holding one
// across thousands of pairs pays no per-call allocation. It carries the
// enabled arcs of its last YES as a certificate and its last NO instance
// (see carry.go): a digraph with the same root and terminals, whose every
// usable arc is an arc of that one at least as heavy, has no solution
// within the same or a smaller budget either. DirectedSteinerEnum, which
// enumerates every subset, is its independent test reference. The zero
// value is ready to use. Not safe for concurrent use.
type DirSteinerOracle struct {
	positive []positiveArc
	enabled  []int // indices into positive
	// off[u] is the slot of u's first out-arc, so the j-th out-arc of u
	// is slot off[u]+j; on marks the slots of the enabled arcs.
	off   []int
	on    []bool
	seen  []int32
	gen   int32
	queue []int

	// per-call state
	d         *graph.Digraph
	root      int
	terminals []int
	budget    int64

	cert  [][2]int // the last YES certificate, an arc set
	check arcCheck
	no    noSnapshot
	effort
}

// positiveArc is a positive-weight arc and its slot.
type positiveArc struct {
	from, to, slot int
	weight         int64
}

func (o *DirSteinerOracle) grow(d *graph.Digraph) {
	n := d.N()
	if len(o.seen) < n {
		o.seen = make([]int32, n)
		o.gen = 0
	}
	if cap(o.queue) < n {
		o.queue = make([]int, 0, n)
	}
	if len(o.off) < n+1 {
		o.off = make([]int, n+1)
	}
	for u := 0; u < n; u++ {
		o.off[u+1] = o.off[u] + len(d.OutNeighbors(u))
	}
	if m := o.off[n]; len(o.on) < m {
		o.on = make([]bool, m+m/2)
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
	o.d, o.root, o.terminals, o.budget = d, root, terminals, budget
	found, err := decide(o, true, "directed Steiner", n)
	o.d, o.terminals = nil, nil
	return found, err
}

func (o *DirSteinerOracle) certHolds() bool {
	return o.check.checkArcSet(o.d, o.cert, o.root, o.terminals, o.budget)
}

// noCarried reports whether the NO snapshot has the same root and
// terminals, at least the budget, and every usable arc of the digraph at
// no more than its weight.
func (o *DirSteinerOracle) noCarried() bool {
	return o.no.matches(o.d.N(), noKey{o.root}, o.terminals) && o.budget <= o.no.limit && o.no.arcsNoLighter(o.d.OutNeighbors)
}

func (o *DirSteinerOracle) searched() bool {
	d, n := o.d, o.d.N()
	o.grow(d)
	o.positive = o.positive[:0]
	for u := 0; u < n; u++ {
		for j, h := range d.OutNeighbors(u) {
			if h.Weight > 0 {
				o.positive = append(o.positive, positiveArc{from: u, to: h.To, slot: o.off[u] + j, weight: h.Weight})
			}
		}
	}
	o.enabled = o.enabled[:0]
	o.searches++
	if !o.try(0, o.budget) {
		return false
	}
	o.cert = o.cert[:0]
	for _, i := range o.enabled {
		a := o.positive[i]
		o.on[a.slot] = false
		o.cert = append(o.cert, [2]int{a.from, a.to})
	}
	return true
}

func (o *DirSteinerOracle) keepNo() {
	n := o.d.N()
	o.no.store(n, o.budget, noKey{o.root}, o.terminals, o.off[n])
	o.no.keepAdj(o.d.OutNeighbors, true)
}

// try reports whether enabling more arcs of o.positive from index idx on,
// of total weight at most remaining, makes every terminal reachable. On
// YES the enabled arcs stay on the stack.
func (o *DirSteinerOracle) try(idx int, remaining int64) bool {
	o.nodes++
	if o.allReachable() {
		return true
	}
	for i := idx; i < len(o.positive); i++ {
		a := o.positive[i]
		if a.weight > remaining {
			continue
		}
		o.enabled = append(o.enabled, i)
		o.on[a.slot] = true
		if o.try(i+1, remaining-a.weight) {
			return true
		}
		o.on[a.slot] = false
		o.enabled = o.enabled[:len(o.enabled)-1]
	}
	return false
}

// allReachable reports whether every terminal is reachable from the root
// along zero-weight and enabled arcs. Seen marks are generation-stamped
// (no clearing).
func (o *DirSteinerOracle) allReachable() bool {
	o.gen++
	o.queue = append(o.queue[:0], o.root)
	o.seen[o.root] = o.gen
	for head := 0; head < len(o.queue); head++ {
		v := o.queue[head]
		for j, h := range o.d.OutNeighbors(v) {
			if (h.Weight == 0 || o.on[o.off[v]+j]) && o.seen[h.To] != o.gen {
				o.seen[h.To] = o.gen
				o.queue = append(o.queue, h.To)
			}
		}
	}
	for _, term := range o.terminals {
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
