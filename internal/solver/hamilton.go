package solver

import (
	"fmt"
	"math/bits"

	"congesthard/internal/graph"
)

// DirectedHamiltonianPath searches for a directed Hamiltonian path in d
// (any endpoints). It returns the path as a vertex sequence, or found =
// false. Backtracking with forced-move propagation and reachability
// pruning; practical on the paper's highly structured constructions up to
// a few hundred vertices, and on random digraphs to ~30 vertices.
func DirectedHamiltonianPath(d *graph.Digraph) ([]int, bool, error) {
	n := d.N()
	if n == 0 {
		return nil, false, nil
	}
	for start := 0; start < n; start++ {
		if path, found, err := DirectedHamiltonianPathFrom(d, start, -1); err != nil || found {
			return path, found, err
		}
	}
	return nil, false, nil
}

// DirectedHamiltonianPathFrom searches for a directed Hamiltonian path
// starting at start and, if end >= 0, ending at end.
func DirectedHamiltonianPathFrom(d *graph.Digraph, start, end int) ([]int, bool, error) {
	var o HamiltonOracle
	path, found, err := o.pathFrom(d, start, end)
	if err != nil || !found {
		return nil, found, err
	}
	return append([]int(nil), path...), true, nil
}

// HamiltonOracle is a reusable directed-Hamiltonian-path evaluator: it
// owns the backtracking search's scratch (visited bitset, BFS queue and
// epoch marks, path stack), so a verification worker holding one across
// many same-size digraphs pays no per-call allocation. For digraphs of at
// most 64 vertices the decision variant switches to a single-word bitset
// search (ham64), bounded by a matching that gives every unvisited vertex
// its own possible predecessor and is repaired in place as the path grows,
// plus both reachability prunes as word-parallel floods; this is what
// makes the delta-driven hamlb verification over an order of magnitude
// faster than its rebuild baseline. The package-level functions
// delegate to the general search, which stays the reference the oracle is
// tested against; the lower-bound-family delta workers keep one oracle
// warm. The zero value is ready to use. Not safe for concurrent use.
type HamiltonOracle struct {
	s hamSearch
	b ham64
}

// HasDirectedHamiltonianPathFrom reports whether d has a directed
// Hamiltonian path starting at start and, if end >= 0, ending at end,
// reusing the oracle's scratch.
func (o *HamiltonOracle) HasDirectedHamiltonianPathFrom(d *graph.Digraph, start, end int) (bool, error) {
	if n := d.N(); n >= 2 && n <= 64 {
		if start < 0 || start >= n || end >= n {
			return false, fmt.Errorf("endpoints out of range: start=%d end=%d n=%d", start, end, n)
		}
		return o.b.run(d, start, end), nil
	}
	_, found, err := o.pathFrom(d, start, end)
	return found, err
}

// pathFrom runs the search; the returned path aliases the oracle's arena
// and is only valid until the next call.
func (o *HamiltonOracle) pathFrom(d *graph.Digraph, start, end int) ([]int, bool, error) {
	n := d.N()
	if n > 4096 {
		return nil, false, fmt.Errorf("hamiltonian search limited to 4096 vertices, got %d", n)
	}
	if start < 0 || start >= n || end >= n {
		return nil, false, fmt.Errorf("endpoints out of range: start=%d end=%d n=%d", start, end, n)
	}
	if n == 1 {
		if end == 0 || end < 0 {
			o.s.path = append(o.s.path[:0], 0)
			return o.s.path, true, nil
		}
		return nil, false, nil
	}
	s := &o.s
	s.grow(n)
	s.d, s.end = d, end
	s.path = append(s.path[:0], start)
	s.visited.set(start)
	if s.search(start) {
		return s.path, true, nil
	}
	return nil, false, nil
}

type hamSearch struct {
	d       *graph.Digraph
	n       int
	end     int
	visited bitset
	path    []int
	// seen/queue are reused BFS scratch; seen[v] == epoch marks v reached.
	// epoch is monotonic across searches, so stale seen entries from a
	// previous call never match.
	seen  []int
	queue []int
	epoch int
}

// grow (re)sizes the arena for n-vertex digraphs and clears the visited
// set left over from the previous search.
func (s *hamSearch) grow(n int) {
	if s.n != n {
		s.n = n
		s.visited = newBitset(n)
		s.seen = make([]int, n)
		s.queue = make([]int, 0, n)
		s.path = make([]int, 0, n)
		s.epoch = 0
		return
	}
	for i := range s.visited {
		s.visited[i] = 0
	}
}

// reachableForward checks that every unvisited vertex is reachable from
// head through unvisited vertices — a necessary condition for the path to
// visit them all.
func (s *hamSearch) reachableForward(head int) bool {
	s.epoch++
	s.queue = s.queue[:0]
	s.queue = append(s.queue, head)
	s.seen[head] = s.epoch
	reached := 0
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		for _, h := range s.d.OutNeighbors(v) {
			u := h.To
			if s.seen[u] != s.epoch && !s.visited.get(u) {
				s.seen[u] = s.epoch
				s.queue = append(s.queue, u)
				reached++
			}
		}
	}
	return reached == s.n-len(s.path)
}

// reachableBackward checks (for a fixed end) that every unvisited vertex
// can reach end through unvisited vertices.
func (s *hamSearch) reachableBackward() bool {
	s.epoch++
	s.queue = s.queue[:0]
	s.queue = append(s.queue, s.end)
	s.seen[s.end] = s.epoch
	reached := 1
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		for _, h := range s.d.InNeighbors(v) {
			u := h.To
			if s.seen[u] != s.epoch && !s.visited.get(u) {
				s.seen[u] = s.epoch
				s.queue = append(s.queue, u)
				reached++
			}
		}
	}
	return reached == s.n-len(s.path)
}

// feasible performs the cheap degree-based death tests: every unvisited
// vertex needs an available in-neighbor (unvisited, or the current head,
// and only one vertex may depend on the head), and a vertex with no
// unvisited out-neighbor can only be the path's final vertex. The returned
// forced vertex (or -1) is a vertex whose only remaining in-neighbor is
// head; it must be the immediate successor, which prunes branching on the
// long degree-2 chains of the paper's constructions.
func (s *hamSearch) feasible(head int) (bool, int) {
	forced := -1
	sinks := 0
	for v := 0; v < s.n; v++ {
		if s.visited.get(v) {
			continue
		}
		inOK := false
		viaHead := false
		for _, h := range s.d.InNeighbors(v) {
			if !s.visited.get(h.To) {
				inOK = true
				break
			}
			if h.To == head {
				viaHead = true
			}
		}
		if !inOK {
			if !viaHead {
				return false, -1
			}
			if forced >= 0 {
				return false, -1 // two vertices demand the same successor slot
			}
			forced = v
		}
		outOK := false
		for _, h := range s.d.OutNeighbors(v) {
			if !s.visited.get(h.To) {
				outOK = true
				break
			}
		}
		if !outOK {
			if s.end >= 0 {
				if v != s.end {
					return false, -1
				}
			} else {
				sinks++
				if sinks > 1 {
					return false, -1
				}
			}
		}
	}
	return true, forced
}

// search extends the path from head; returns true when a full path
// (respecting the end constraint) is found. s.path holds the result.
func (s *hamSearch) search(head int) bool {
	if len(s.path) == s.n {
		return s.end < 0 || head == s.end
	}
	ok, forced := s.feasible(head)
	if !ok {
		return false
	}
	if !s.reachableForward(head) {
		return false
	}
	if s.end >= 0 && !s.reachableBackward() {
		return false
	}
	tryNext := func(next int) bool {
		if s.visited.get(next) {
			return false
		}
		if s.end >= 0 && next == s.end && len(s.path) != s.n-1 {
			return false // reaching end early wastes it
		}
		s.visited.set(next)
		s.path = append(s.path, next)
		if s.search(next) {
			return true
		}
		s.path = s.path[:len(s.path)-1]
		s.visited.clear(next)
		return false
	}
	if forced >= 0 {
		// The forced vertex must be head's immediate successor; it is
		// necessarily an out-neighbor (its in-neighbors include head).
		return tryNext(forced)
	}
	for _, h := range s.d.OutNeighbors(head) {
		if tryNext(h.To) {
			return true
		}
	}
	return false
}

// ham64 is the n <= 64 single-word specialization of hamSearch, bounded by
// the assignment relaxation. Adjacency is an array of 64-bit rows (out[v] =
// the set of heads of v's out-arcs, in[v] = the set of tails of its
// in-arcs). At a node with head h and unvisited set U, a Hamiltonian
// completion gives every u in U its own predecessor among the tails
// T = ({h} ∪ U) \ {end}, so the search keeps a matching that saturates U
// from T along arcs and prunes a step that leaves none. This implies the
// general search's degree-death tests and forced-successor rule; the two
// reachability prunes, which it does not imply, stay as word-parallel
// floods. Verdicts match hamSearch exactly: both prune by necessary
// conditions only.
//
// The matching lives in pred/succ and is repaired in place: stepping
// h -> next drops tail h and head next, and at most one alternating-path
// search re-saturates h's old partner. Only succ of the current tails and
// pred of the current heads are meaningful; other entries are stale and
// never read.
type ham64 struct {
	n       int
	end     int
	full    uint64 // mask of the n valid vertex bits
	notEnd  uint64 // full without end's bit (full when end < 0)
	out     [64]uint64
	in      [64]uint64
	visited uint64
	// pred[u] is the tail matched to head u, succ[t] the head matched to
	// tail t; -1 marks an unmatched tail.
	pred, succ [64]int8
}

// run decides whether d (2 <= n <= 64 vertices) has a directed
// Hamiltonian path from start to end (end < 0: any endpoint).
func (b *ham64) run(d *graph.Digraph, start, end int) bool {
	n := d.N()
	b.n, b.end = n, end
	for v := 0; v < n; v++ {
		var outRow, inRow uint64
		for _, h := range d.OutNeighbors(v) {
			outRow |= uint64(1) << uint(h.To)
		}
		for _, h := range d.InNeighbors(v) {
			inRow |= uint64(1) << uint(h.To)
		}
		b.out[v], b.in[v] = outRow, inRow
		b.pred[v], b.succ[v] = -1, -1
	}
	if n == 64 {
		b.full = ^uint64(0)
	} else {
		b.full = uint64(1)<<uint(n) - 1
	}
	b.notEnd = b.full
	if end >= 0 {
		if end == start {
			return false // a path on n >= 2 vertices has distinct ends
		}
		b.notEnd &^= uint64(1) << uint(end)
	}
	b.visited = uint64(1) << uint(start)
	for m := b.full &^ b.visited; m != 0; m &= m - 1 {
		var seen uint64
		if !b.augment(bits.TrailingZeros64(m), b.notEnd, &seen) {
			return false
		}
	}
	return b.search(start, 1, true, true)
}

// augment matches the unmatched head a to a tail in tails, re-routing an
// alternating path of matched heads if needed (Kuhn's search); seen holds
// the heads already on the path. It changes nothing when it fails.
func (b *ham64) augment(a int, tails uint64, seen *uint64) bool {
	*seen |= uint64(1) << uint(a)
	cand := b.in[a] & tails
	for m := cand; m != 0; m &= m - 1 {
		if t := bits.TrailingZeros64(m); b.succ[t] < 0 {
			b.pred[a], b.succ[t] = int8(t), int8(a)
			return true
		}
	}
	for m := cand; m != 0; m &= m - 1 {
		t := bits.TrailingZeros64(m)
		if next := int(b.succ[t]); *seen>>uint(next)&1 == 0 && b.augment(next, tails, seen) {
			b.pred[a], b.succ[t] = int8(t), int8(a)
			return true
		}
	}
	return false
}

// search extends a partial path of the given length ending at head; on
// entry and on a false return the matching saturates the unvisited set
// from the tails (head and the unvisited vertices, minus end). fwd and bwd say whether the forward
// and backward reachability prunes must run; step clears them when the
// parent's passing check already implies the child's.
func (b *ham64) search(head, depth int, fwd, bwd bool) bool {
	if depth == b.n {
		return b.end < 0 || head == b.end
	}
	unvisited := b.full &^ b.visited
	// Forward reachability: every unvisited vertex must be reachable from
	// head through unvisited vertices.
	if fwd {
		reached := b.out[head] & unvisited
		for frontier := reached; frontier != 0 && reached != unvisited; {
			var next uint64
			for m := frontier; m != 0; m &= m - 1 {
				next |= b.out[bits.TrailingZeros64(m)]
			}
			next &= unvisited &^ reached
			reached |= next
			frontier = next
		}
		if reached != unvisited {
			return false
		}
	}
	// Backward reachability to a fixed end.
	if bwd && b.end >= 0 {
		reached := uint64(1) << uint(b.end)
		for frontier := reached; frontier != 0 && reached != unvisited; {
			var next uint64
			for m := frontier; m != 0; m &= m - 1 {
				next |= b.in[bits.TrailingZeros64(m)]
			}
			next &= unvisited &^ reached
			reached |= next
			frontier = next
		}
		if reached != unvisited {
			return false
		}
	}
	// Increasing vertex order, as in the general search. Trying the matched
	// successor first would skip some repairs, but it doubles the nodes
	// expanded on hamlb's instances.
	for m := b.out[head] & unvisited; m != 0; m &= m - 1 {
		if b.step(head, bits.TrailingZeros64(m), unvisited, depth) {
			return true
		}
	}
	return false
}

// step tries the arc head -> next, repairing the matching for the child's
// tails unvisited \ {end} (next included, head dropped) and heads
// unvisited \ {next}.
func (b *ham64) step(head, next int, unvisited uint64, depth int) bool {
	if b.end >= 0 && next == b.end && depth != b.n-1 {
		return false // reaching end early wastes it
	}
	if a := int(b.succ[head]); a != next {
		// next's tail t is freed; head's partner a, if any, needs a new one.
		t := b.pred[next]
		b.succ[t] = -1
		if a >= 0 {
			var seen uint64
			if !b.augment(a, unvisited&b.notEnd, &seen) {
				b.succ[t] = int8(next)
				return false
			}
		}
	}
	bit := uint64(1) << uint(next)
	b.visited |= bit
	// Every path from head into the unvisited set runs through next when
	// next is head's only unvisited successor, and no unvisited path to end
	// runs through next when next has no unvisited predecessor: then this
	// node's passing check implies the child's.
	fwd := b.out[head]&unvisited != bit
	bwd := b.in[next]&unvisited != 0
	if b.search(next, depth+1, fwd, bwd) {
		return true
	}
	b.visited &^= bit
	// The child's matching plus head -> next saturates this node again.
	b.succ[head], b.pred[next] = int8(next), int8(head)
	return false
}

// DirectedHamiltonianCycle searches for a directed Hamiltonian cycle.
func DirectedHamiltonianCycle(d *graph.Digraph) ([]int, bool, error) {
	n := d.N()
	if n == 0 {
		return nil, false, nil
	}
	if n == 1 {
		return nil, false, nil // no self loops, so no 1-cycle
	}
	// A Hamiltonian cycle through vertex 0 is a Hamiltonian path from 0 to
	// some in-neighbor of 0... equivalently: for each in-neighbor p of 0,
	// search a path 0 -> ... -> p.
	for _, h := range d.InNeighbors(0) {
		path, found, err := DirectedHamiltonianPathFrom(d, 0, h.To)
		if err != nil {
			return nil, false, err
		}
		if found {
			return path, true, nil
		}
	}
	return nil, false, nil
}

// HamiltonianPath searches for an undirected Hamiltonian path by running
// the directed solver on the symmetric orientation.
func HamiltonianPath(g *graph.Graph) ([]int, bool, error) {
	return DirectedHamiltonianPath(symmetric(g))
}

// HamiltonianPathBetween searches for an undirected Hamiltonian path with
// the given endpoints.
func HamiltonianPathBetween(g *graph.Graph, start, end int) ([]int, bool, error) {
	return DirectedHamiltonianPathFrom(symmetric(g), start, end)
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
	if len(path) != d.N() {
		return false
	}
	seen := make([]bool, d.N())
	for i, v := range path {
		if v < 0 || v >= d.N() || seen[v] {
			return false
		}
		seen[v] = true
		if i > 0 && !d.HasArc(path[i-1], v) {
			return false
		}
	}
	return true
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
