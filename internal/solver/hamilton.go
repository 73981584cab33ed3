package solver

import (
	"fmt"
	"math/bits"

	"congesthard/internal/graph"
)

// DirectedHamiltonianPath searches for a directed Hamiltonian path in d
// (any endpoints), trying every start on one HamiltonOracle. It returns
// the path as a vertex sequence, or found = false.
func DirectedHamiltonianPath(d *graph.Digraph) ([]int, bool, error) {
	var o HamiltonOracle
	for start := 0; start < d.N(); start++ {
		if path, found, err := o.DirectedHamiltonianPathFrom(d, start, -1); err != nil || found {
			return path, found, err
		}
	}
	return nil, false, nil
}

// DirectedHamiltonianPathFrom searches for a directed Hamiltonian path
// starting at start and, if end >= 0, ending at end.
func DirectedHamiltonianPathFrom(d *graph.Digraph, start, end int) ([]int, bool, error) {
	var o HamiltonOracle
	return o.DirectedHamiltonianPathFrom(d, start, end)
}

// DirectedHamiltonianCycle searches for a directed Hamiltonian cycle: a
// Hamiltonian path from vertex 0 to one of its in-neighbours, tried in
// turn on one HamiltonOracle.
func DirectedHamiltonianCycle(d *graph.Digraph) ([]int, bool, error) {
	if d.N() < 2 {
		return nil, false, nil // no self loops, so no 1-cycle
	}
	var o HamiltonOracle
	for _, h := range d.InNeighbors(0) {
		if path, found, err := o.DirectedHamiltonianPathFrom(d, 0, h.To); err != nil || found {
			return path, found, err
		}
	}
	return nil, false, nil
}

// HamiltonOracle is a reusable directed-Hamiltonian-path evaluator and
// the package's one Hamiltonian search. It extends the path from start
// one arc at a time, in increasing vertex order, and cuts a node by three
// necessary conditions:
//
//   - Assignment bound: a Hamiltonian completion gives every unvisited
//     vertex its own predecessor among the tails ({head} ∪ unvisited)
//     minus end, so the search keeps a matching that saturates the
//     unvisited set from the tails along arcs, repairs it in place as the
//     path grows, and cuts a step that leaves none.
//   - Forward reachability: every unvisited vertex is reachable from head
//     through unvisited vertices.
//   - Backward reachability (fixed end): every unvisited vertex reaches
//     end through unvisited vertices.
//
// Vertex sets are fixed arrays of 64-bit words (see vertexSet), so both
// reachability checks are word-parallel floods. A digraph runs on the
// narrowest width that holds it: one word up to 64 vertices, 64 words up
// to the 4096-vertex limit. The oracle allocates the search of each width
// on first use and keeps its rows, matching and path, so a worker holding
// one across many digraphs pays no per-call allocation. It carries the
// last path it found as a certificate (see certificate.go), checked for
// the requested endpoints, every vertex and every arc before any search
// runs. It also carries the last digraph it answered NO (see carry.go): a
// digraph with the same endpoints whose arcs are all arcs of that one has
// no Hamiltonian path either. The zero value is ready to use. Not safe for
// concurrent use.
type HamiltonOracle struct {
	w1  *pathSearch[[1]uint64, [64][1]uint64, [64]int16]
	w2  *pathSearch[[2]uint64, [128][2]uint64, [128]int16]
	w4  *pathSearch[[4]uint64, [256][4]uint64, [256]int16]
	w8  *pathSearch[[8]uint64, [512][8]uint64, [512]int16]
	w16 *pathSearch[[16]uint64, [1024][16]uint64, [1024]int16]
	w32 *pathSearch[[32]uint64, [2048][32]uint64, [2048]int16]
	w64 *pathSearch[[64]uint64, [4096][64]uint64, [4096]int16]

	cert []int // the last YES certificate
	mark bitset
	no   noSnapshot

	// per-call state
	d                 *graph.Digraph
	start, end, words int
	effort
}

// HasDirectedHamiltonianPathFrom reports whether d has a directed
// Hamiltonian path starting at start and, if end >= 0, ending at end,
// reusing the oracle's scratch.
func (o *HamiltonOracle) HasDirectedHamiltonianPathFrom(d *graph.Digraph, start, end int) (bool, error) {
	_, found, err := o.pathFrom(d, start, end, 1)
	return found, err
}

// DirectedHamiltonianPathFrom is HasDirectedHamiltonianPathFrom that also
// returns the path found, as a fresh slice.
func (o *HamiltonOracle) DirectedHamiltonianPathFrom(d *graph.Digraph, start, end int) ([]int, bool, error) {
	path, found, err := o.pathFrom(d, start, end, 1)
	if err != nil || !found {
		return nil, found, err
	}
	return append([]int(nil), path...), true, nil
}

// pathFrom answers from the carries when they hold and otherwise
// searches, on vertex sets of at least words words. Tests force a wider
// search on small digraphs; a forced width (words > 1) skips the carries,
// so that the wide search runs. The returned path aliases the oracle's
// arena and is only valid until the next call.
func (o *HamiltonOracle) pathFrom(d *graph.Digraph, start, end, words int) ([]int, bool, error) {
	n := d.N()
	if n > maxSetVertices {
		return nil, false, fmt.Errorf("hamiltonian search limited to %d vertices, got %d", maxSetVertices, n)
	}
	if start < 0 || start >= n || end >= n {
		return nil, false, fmt.Errorf("endpoints out of range: start=%d end=%d n=%d", start, end, n)
	}
	o.d, o.start, o.end, o.words = d, start, end, words
	found, err := decide(o, words == 1, "Hamiltonian path", n)
	o.d = nil
	if !found {
		return nil, false, err
	}
	return o.cert, true, nil
}

func (o *HamiltonOracle) certHolds() bool {
	n := o.d.N()
	return checkHamPath(o.d, o.cert, o.start, o.end, markBuf(&o.mark, n))
}

// noCarried reports whether the NO snapshot has the same endpoints and
// every arc of the digraph.
func (o *HamiltonOracle) noCarried() bool {
	return o.no.matches(o.d.N(), noKey{o.start, o.end}, nil) && o.no.adjWithin(o.d.OutNeighbors)
}

func (o *HamiltonOracle) searched() bool {
	d, start, end, n := o.d, o.start, o.end, o.d.N()
	var path []int
	switch words := max(o.words, (n+63)/64); {
	case n == 1:
		path = []int{0}
	case end == start: // a path on n >= 2 vertices has distinct ends
	case words <= 1:
		path = lazy(&o.w1).run(d, start, end, &o.effort)
	case words <= 2:
		path = lazy(&o.w2).run(d, start, end, &o.effort)
	case words <= 4:
		path = lazy(&o.w4).run(d, start, end, &o.effort)
	case words <= 8:
		path = lazy(&o.w8).run(d, start, end, &o.effort)
	case words <= 16:
		path = lazy(&o.w16).run(d, start, end, &o.effort)
	case words <= 32:
		path = lazy(&o.w32).run(d, start, end, &o.effort)
	default:
		path = lazy(&o.w64).run(d, start, end, &o.effort)
	}
	if path == nil {
		return false
	}
	o.cert = append(o.cert[:0], path...)
	return true
}

func (o *HamiltonOracle) keepNo() {
	o.no.store(o.d.N(), 0, noKey{o.start, o.end}, nil, 0)
	o.no.keepAdj(o.d.OutNeighbors, false)
}

// hamInts is a width's per-vertex int16 array, 64 entries per word (see
// vertexRows).
type hamInts interface {
	[64]int16 | [128]int16 | [256]int16 | [512]int16 | [1024]int16 | [2048]int16 | [4096]int16
}

// pathSearch is HamiltonOracle's search on vertex sets of type W, with
// per-vertex arrays R and I of 64·len(W) entries (4 MiB in all at 64
// words). out[v] holds the heads of v's out-arcs and in[v] the tails of
// its in-arcs; entries from v = n on are stale and never read. The
// matching lives in pred/succ and is repaired in place: stepping h -> next
// drops tail h and head next, and at most one alternating-path search
// re-saturates h's old partner. Only succ of the current tails and pred
// of the current heads are meaningful; other entries are stale and never
// read.
type pathSearch[W vertexSet, R vertexRows[W], I hamInts] struct {
	n, end    int
	notEnd    W // the n valid vertex bits without end's (all when end < 0)
	unvisited W // the vertices not on the path
	out, in   R
	// pred[u] is the tail matched to head u, succ[t] the head matched to
	// tail t; -1 marks an unmatched tail.
	pred, succ I
	path       []int // path[i] is the path's i-th vertex
	effort     *effort
}

// run searches d (2 <= n <= 64·len(W) vertices) for a directed
// Hamiltonian path from start to end (end < 0: any endpoint; end !=
// start). It returns the path, aliasing s.path, or nil. It counts the
// search and its nodes in e.
func (s *pathSearch[W, R, I]) run(d *graph.Digraph, start, end int, e *effort) []int {
	n := d.N()
	e.searches++
	s.effort = e
	if cap(s.path) < n {
		s.path = make([]int, n)
	}
	s.n, s.end, s.path = n, end, s.path[:n]
	var zero W
	s.unvisited = zero
	for v := 0; v < n; v++ {
		s.unvisited[v>>6] |= 1 << (v & 63)
		out, in := &s.out[v], &s.in[v]
		*out, *in = zero, zero
		for _, h := range d.OutNeighbors(v) {
			(*out)[h.To>>6] |= 1 << (h.To & 63)
		}
		for _, h := range d.InNeighbors(v) {
			(*in)[h.To>>6] |= 1 << (h.To & 63)
		}
		s.pred[v], s.succ[v] = -1, -1
	}
	s.notEnd = s.unvisited
	if end >= 0 {
		s.notEnd[end>>6] &^= 1 << (end & 63)
	}
	s.unvisited[start>>6] &^= 1 << (start & 63)
	s.path[0] = start
	for i := 0; ; i++ {
		for m := s.unvisited[i]; m != 0; m &= m - 1 {
			var seen W
			if !s.augment(i<<6|bits.TrailingZeros64(m), s.notEnd, &seen) {
				return nil
			}
		}
		if i == len(s.unvisited)-1 {
			break
		}
	}
	if !s.search(start, 1, true, true) {
		return nil
	}
	return s.path
}

// augment matches the unmatched head a to a tail in tails, re-routing an
// alternating path of matched heads if needed (Kuhn's search); seen holds
// the heads already on the path. It changes nothing when it fails.
func (s *pathSearch[W, R, I]) augment(a int, tails W, seen *W) bool {
	(*seen)[a>>6] |= 1 << (a & 63)
	in := &s.in[a]
	for i := 0; ; i++ {
		for m := (*in)[i] & tails[i]; m != 0; m &= m - 1 {
			if t := i<<6 | bits.TrailingZeros64(m); s.succ[t] < 0 {
				s.pred[a], s.succ[t] = int16(t), int16(a)
				return true
			}
		}
		if i == len(*in)-1 {
			break
		}
	}
	for i := 0; ; i++ {
		for m := (*in)[i] & tails[i]; m != 0; m &= m - 1 {
			t := i<<6 | bits.TrailingZeros64(m)
			if next := int(s.succ[t]); (*seen)[next>>6]>>(next&63)&1 == 0 && s.augment(next, tails, seen) {
				s.pred[a], s.succ[t] = int16(t), int16(a)
				return true
			}
		}
		if i == len(*in)-1 {
			break
		}
	}
	return false
}

// flood grows reached along rows through vertices of within and reports
// whether it covers within.
func flood[W vertexSet, R vertexRows[W]](rows *R, reached, within W) bool {
	var zero W
	for frontier := reached; frontier != zero && reached != within; {
		var next W
		for i := 0; ; i++ {
			for m := frontier[i]; m != 0; m &= m - 1 {
				row := &(*rows)[i<<6|bits.TrailingZeros64(m)]
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
			next[j] &= within[j] &^ reached[j]
			reached[j] |= next[j]
			if j == len(next)-1 {
				break
			}
		}
		frontier = next
	}
	return reached == within
}

// search extends a partial path of the given length ending at head; on
// entry and on a false return the matching saturates the unvisited set
// from the tails (head and the unvisited vertices, minus end). fwd and bwd
// say whether the forward and backward reachability prunes must run; step
// clears them when the parent's passing check already implies the child's.
func (s *pathSearch[W, R, I]) search(head, depth int, fwd, bwd bool) bool {
	s.effort.nodes++
	if depth == s.n {
		return s.end < 0 || head == s.end
	}
	var succs W
	out := &s.out[head]
	for i := 0; ; i++ {
		succs[i] = (*out)[i] & s.unvisited[i]
		if i == len(succs)-1 {
			break
		}
	}
	if fwd && !flood(&s.out, succs, s.unvisited) {
		return false
	}
	if bwd && s.end >= 0 {
		var reached W
		reached[s.end>>6] = 1 << (s.end & 63)
		if !flood(&s.in, reached, s.unvisited) {
			return false
		}
	}
	// Increasing vertex order. Trying the matched successor first would
	// skip some repairs, but it doubles the nodes expanded on hamlb's
	// instances.
	for i := 0; ; i++ {
		for m := succs[i]; m != 0; m &= m - 1 {
			if s.step(head, i<<6|bits.TrailingZeros64(m), succs, depth) {
				return true
			}
		}
		if i == len(succs)-1 {
			break
		}
	}
	return false
}

// step tries the arc head -> next, repairing the matching for the child's
// tails unvisited \ {end} (next included, head dropped) and heads
// unvisited \ {next}. succs is head's unvisited successors.
func (s *pathSearch[W, R, I]) step(head, next int, succs W, depth int) bool {
	if s.end >= 0 && next == s.end && depth != s.n-1 {
		return false // reaching end early wastes it
	}
	if a := int(s.succ[head]); a != next {
		// next's tail t is freed; head's partner a, if any, needs a new one.
		t := s.pred[next]
		s.succ[t] = -1
		if a >= 0 {
			var tails, seen W
			for i := 0; ; i++ {
				tails[i] = s.unvisited[i] & s.notEnd[i]
				if i == len(tails)-1 {
					break
				}
			}
			if !s.augment(a, tails, &seen) {
				s.succ[t] = int16(next)
				return false
			}
		}
	}
	// Every path from head into the unvisited set runs through next when
	// next is head's only unvisited successor, and no unvisited path to end
	// runs through next when next has no unvisited predecessor: then this
	// node's passing check implies the child's.
	var only W
	w, bit := next>>6, uint64(1)<<(next&63)
	only[w] = bit
	var preds uint64
	in := &s.in[next]
	for i := 0; ; i++ {
		preds |= (*in)[i] & s.unvisited[i]
		if i == len(only)-1 {
			break
		}
	}
	s.unvisited[w] &^= bit
	s.path[depth] = next
	if s.search(next, depth+1, succs != only, preds != 0) {
		return true
	}
	s.unvisited[w] |= bit
	// The child's matching plus head -> next saturates this node again.
	s.succ[head], s.pred[next] = int16(next), int16(head)
	return false
}

// HamiltonianPath searches for an undirected Hamiltonian path by running
// the directed solver on the symmetric orientation.
func HamiltonianPath(g *graph.Graph) ([]int, bool, error) {
	return DirectedHamiltonianPath(symmetric(g))
}

// HamiltonianCycle searches for an undirected Hamiltonian cycle.
func HamiltonianCycle(g *graph.Graph) ([]int, bool, error) {
	if g.N() < 3 {
		return nil, false, nil
	}
	return DirectedHamiltonianCycle(symmetric(g))
}

func symmetric(g *graph.Graph) *graph.Digraph {
	d := graph.NewDigraph(g.N())
	for _, e := range g.Edges() {
		d.MustAddArc(e.U, e.V)
		d.MustAddArc(e.V, e.U)
	}
	return d
}

// IsDirectedHamiltonianPath validates a claimed Hamiltonian path.
func IsDirectedHamiltonianPath(d *graph.Digraph, path []int) bool {
	return checkHamPath(d, path, -1, -1, newBitset(d.N()))
}

// IsHamiltonianCycle validates a claimed undirected Hamiltonian cycle given
// as a vertex sequence (the closing edge back to the first vertex is
// required).
func IsHamiltonianCycle(g *graph.Graph, cycle []int) bool {
	if len(cycle) != g.N() || g.N() < 3 {
		return false
	}
	seen := make([]bool, g.N())
	for i, v := range cycle {
		if v < 0 || v >= g.N() || seen[v] {
			return false
		}
		seen[v] = true
		next := cycle[(i+1)%len(cycle)]
		if !g.HasEdge(v, next) {
			return false
		}
	}
	return true
}
