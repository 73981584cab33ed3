package solver

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"congesthard/internal/graph"
)

// MaxWeightIndependentSet computes a maximum-weight independent set of g
// exactly (vertex weights; unit weights give the cardinality MaxIS of
// Sections 3-4). The search combines branch and bound on a maximum-degree
// vertex with standard reductions — isolated vertices are taken, dominated
// degree-1 vertices are resolved — and solves low-degree residual graphs
// (max degree <= 2: disjoint paths and cycles) by dynamic programming.
// This handles both the clique-heavy gap constructions of Section 4 and
// the sparse bounded-degree graphs of Section 3 at useful sizes.
func MaxWeightIndependentSet(g *graph.Graph) (int64, []int, error) {
	w, set, err := new(MaxISOracle).MaxWeightIndependentSet(g)
	if err != nil {
		return 0, nil, err
	}
	return w, append([]int(nil), set...), nil
}

// MaxISOracle is a reusable exact MaxIS evaluator: it owns the adjacency
// bitsets, per-depth branch bitsets and witness buffers of the search, so a
// worker holding one across many same-size graphs allocates only on the
// rare low-degree-residual DP path. Its decision form, HasWeightAtLeast,
// carries the independent set of its last YES as a certificate and its
// last NO instance (see carry.go): a graph holding every edge of that
// instance, whose vertices weigh at most as much, has no independent set
// reaching the same or a larger target either. The zero value is ready to
// use. Not safe for concurrent use.
type MaxISOracle struct {
	g       *graph.Graph
	n       int
	capN    int
	adj     []bitset
	weights []int64
	alive   bitset
	branch  [][2]bitset // per-depth include/exclude clones
	visited bitset
	best    int64
	goal    int64 // the search stops once best reaches goal
	bestSet []int
	current []int
	cert    []int // the last YES certificate of HasWeightAtLeast
	mark    bitset
	no      noSnapshot

	// HasWeightAtLeast's call: the instance's weight rule, target and
	// total weight
	unit          bool
	target, total int64
	effort
}

func (o *MaxISOracle) grow(n int) {
	o.n = n
	if o.capN >= n {
		return
	}
	o.capN = n
	o.adj = make([]bitset, n)
	for v := range o.adj {
		o.adj[v] = newBitset(n)
	}
	o.weights = make([]int64, n)
	o.alive = newBitset(n)
	o.branch = make([][2]bitset, n+1)
	o.visited = newBitset(n)
	o.bestSet = make([]int, 0, n)
	o.current = make([]int, 0, n)
	o.cert = make([]int, 0, n)
}

// MaxWeightIndependentSet is the arena-backed equivalent of the package
// function. The returned set aliases the oracle's storage and is only
// valid until the next call.
func (o *MaxISOracle) MaxWeightIndependentSet(g *graph.Graph) (int64, []int, error) {
	return o.run(g, false)
}

// MaxIndependentSetSize returns alpha(G) with unit weights regardless of
// g's vertex weights (without the package function's defensive clone). The
// returned set aliases the oracle's storage.
func (o *MaxISOracle) MaxIndependentSetSize(g *graph.Graph) (int, []int, error) {
	w, set, err := o.run(g, true)
	return int(w), set, err
}

func (o *MaxISOracle) run(g *graph.Graph, unit bool) (int64, []int, error) {
	if err := checkWeights(g, unit); err != nil {
		return 0, nil, err
	}
	if g.N() == 0 {
		return 0, []int{}, nil
	}
	o.best, o.goal = -1, math.MaxInt64
	o.search(o.load(g, unit))
	return o.best, o.bestSet, nil
}

// HasWeightAtLeast reports whether g has an independent set of weight at
// least target (every vertex weighs 1 when unit, else its vertex weight):
// the decision form of MaxWeightIndependentSet. It answers from the
// carries when they hold, and otherwise searches with the bound seeded at
// target-1 until the first set that reaches target.
func (o *MaxISOracle) HasWeightAtLeast(g *graph.Graph, target int64, unit bool) (bool, error) {
	if err := checkWeights(g, unit); err != nil {
		return false, err
	}
	n := g.N()
	if target <= 0 {
		return true, nil // the empty set
	}
	if n == 0 {
		return false, nil
	}
	o.g, o.target, o.unit = g, target, unit
	return decide(o, true, "MaxIS", n)
}

func (o *MaxISOracle) certHolds() bool {
	return checkIndependentSet(o.g, o.cert, o.unit, o.target, markBuf(&o.mark, o.g.N()))
}

// noCarried loads the graph's rows and weights, which the search reads
// too, and reports whether each row holds the NO snapshot's row, every
// vertex weighs at most its stored weight (unless unit) and the target is
// at least the stored target.
//
//hardness:hotpath
func (o *MaxISOracle) noCarried() bool {
	o.total = o.load(o.g, o.unit)
	s := &o.no
	if !s.matches(o.n, noKey{boolInt(o.unit)}, nil) || o.target < s.limit {
		return false
	}
	for v := 0; v < o.n; v++ {
		b := o.adj[v]
		for i, w := range s.row(v) {
			if w&^b[i] != 0 {
				return false
			}
		}
		if !o.unit && o.weights[v] > s.w[v] {
			return false
		}
	}
	return true
}

func (o *MaxISOracle) searched() bool {
	o.best, o.goal = o.target-1, o.target
	o.search(o.total)
	if o.best < o.target {
		return false
	}
	o.cert = append(o.cert[:0], o.bestSet...)
	return true
}

func (o *MaxISOracle) keepNo() {
	s := &o.no
	s.store(o.n, o.target, noKey{boolInt(o.unit)}, nil, o.n)
	s.keepRows(o.adj)
	copy(s.w, o.weights)
}

// checkWeights rejects graphs beyond the search's size limit and, unless
// unit, negative vertex weights.
func checkWeights(g *graph.Graph, unit bool) error {
	n := g.N()
	if n > 1<<15 {
		return fmt.Errorf("exact MaxIS limited to %d vertices, got %d", 1<<15, n)
	}
	for v := 0; v < n && !unit; v++ {
		if g.VertexWeight(v) < 0 {
			return fmt.Errorf("vertex %d has negative weight", v)
		}
	}
	return nil
}

// load fills the arena's adjacency and weights for g, returning the total
// weight.
func (o *MaxISOracle) load(g *graph.Graph, unit bool) int64 {
	n := g.N()
	o.grow(n)
	o.g = g
	for i := range o.alive {
		o.alive[i] = 0
	}
	var total int64
	for v := 0; v < n; v++ {
		b := o.adj[v]
		for i := range b {
			b[i] = 0
		}
		for _, h := range g.Neighbors(v) {
			b.set(h.To)
		}
		if unit {
			o.weights[v] = 1
		} else {
			o.weights[v] = g.VertexWeight(v)
		}
		o.alive.set(v)
		total += o.weights[v]
	}
	return total
}

// search runs the branch and bound from the loaded graph with o.best and
// o.goal set, leaving the best set found in o.bestSet, sorted.
func (o *MaxISOracle) search(total int64) {
	o.bestSet = o.bestSet[:0]
	o.current = o.current[:0]
	o.searches++
	o.recurse(o.alive, total, 0, 0)
	sort.Ints(o.bestSet)
}

// branchBuf returns the depth-local clone buffer (allocated on first use).
func (o *MaxISOracle) branchBuf(depth, which int) bitset {
	b := o.branch[depth][which]
	if b == nil {
		b = newBitset(o.capN)
		o.branch[depth][which] = b
	}
	return b
}

func (o *MaxISOracle) record(weight int64) {
	if weight > o.best {
		o.best = weight
		o.bestSet = append(o.bestSet[:0], o.current...)
	}
}

// aliveDegree returns |N(v) ∩ alive|.
func (o *MaxISOracle) aliveDegree(v int, alive bitset) int {
	deg := 0
	adj := o.adj[v]
	for i := range alive {
		deg += bits.OnesCount64(adj[i] & alive[i])
	}
	return deg
}

// takeVertex includes v: removes N[v] from alive and returns the weight of
// removed vertices other than v.
func (o *MaxISOracle) takeVertex(v int, alive bitset) int64 {
	var removed int64
	for i := range alive {
		gone := alive[i] & o.adj[v][i]
		for gone != 0 {
			idx := i*64 + bits.TrailingZeros64(gone)
			removed += o.weights[idx]
			gone &= gone - 1
		}
		alive[i] &^= o.adj[v][i]
	}
	alive.clear(v)
	return removed
}

// recurse explores the alive subgraph. aliveWeight is the total weight of
// alive vertices; weight is the accumulated selection weight.
//
//hardness:hotpath
func (o *MaxISOracle) recurse(alive bitset, aliveWeight, weight int64, depth int) {
	o.nodes++
	if weight+aliveWeight <= o.best || o.best >= o.goal {
		return
	}
	// Reduction loop: isolated vertices and dominant degree-1 vertices.
	// Iterates set bits word by word; the stale-word snapshot is rechecked
	// against alive because the loop body clears bits.
	markLen := len(o.current)
	changed := true
	for changed {
		changed = false
		for i, word := range alive {
			for word != 0 {
				v := i*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if !alive.get(v) {
					continue
				}
				deg := o.aliveDegree(v, alive)
				if deg == 0 {
					alive.clear(v)
					aliveWeight -= o.weights[v]
					weight += o.weights[v]
					o.current = append(o.current, v) //nolint:hardlint/hotalloc arena slice has cap n from grow(); never reallocates
					changed = true
					continue
				}
				if deg == 1 {
					u := o.soleAliveNeighbor(v, alive)
					if o.weights[v] >= o.weights[u] {
						removed := o.takeVertex(v, alive)
						aliveWeight -= removed + o.weights[v]
						weight += o.weights[v]
						o.current = append(o.current, v) //nolint:hardlint/hotalloc arena slice has cap n from grow(); never reallocates
						changed = true
					}
				}
			}
		}
	}
	// Find the maximum-degree alive vertex.
	branchVertex, maxDeg := -1, -1
	for i, word := range alive {
		for word != 0 {
			v := i*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if d := o.aliveDegree(v, alive); d > maxDeg {
				maxDeg = d
				branchVertex = v
			}
		}
	}
	switch {
	case branchVertex == -1:
		o.record(weight)
	case maxDeg <= 2:
		extra, set := o.solvePathsAndCycles(alive)
		o.current = append(o.current, set...)
		o.record(weight + extra)
		o.current = o.current[:len(o.current)-len(set)]
	default:
		if weight+aliveWeight > o.best {
			// Include branch vertex.
			incAlive := o.branchBuf(depth, 0)
			copy(incAlive, alive)
			removed := o.takeVertex(branchVertex, incAlive)
			o.current = append(o.current, branchVertex)
			o.recurse(incAlive, aliveWeight-removed-o.weights[branchVertex], weight+o.weights[branchVertex], depth+1)
			o.current = o.current[:len(o.current)-1]
			// Exclude branch vertex.
			excAlive := o.branchBuf(depth, 1)
			copy(excAlive, alive)
			excAlive.clear(branchVertex)
			o.recurse(excAlive, aliveWeight-o.weights[branchVertex], weight, depth+1)
		}
	}
	o.current = o.current[:markLen]
}

func (o *MaxISOracle) soleAliveNeighbor(v int, alive bitset) int {
	for i := range alive {
		if both := o.adj[v][i] & alive[i]; both != 0 {
			return i*64 + bits.TrailingZeros64(both)
		}
	}
	return -1
}

// solvePathsAndCycles solves MaxWeightIS exactly on an alive subgraph of
// maximum degree 2 (a disjoint union of paths and cycles) by DP, returning
// the optimal weight and the chosen vertices.
func (o *MaxISOracle) solvePathsAndCycles(alive bitset) (int64, []int) {
	visited := o.visited
	for i := range visited {
		visited[i] = 0
	}
	var total int64
	var chosen []int
	for v := 0; v < o.n; v++ {
		if !alive.get(v) || visited.get(v) {
			continue
		}
		component := o.collectComponent(v, alive, visited)
		order, isCycle := orderComponent(component, func(a, b int) bool { return o.adj[a].get(b) })
		w, set := o.pathCycleDP(order, isCycle)
		total += w
		chosen = append(chosen, set...)
	}
	return total, chosen
}

func (o *MaxISOracle) collectComponent(start int, alive, visited bitset) []int {
	var comp []int
	queue := []int{start}
	visited.set(start)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		comp = append(comp, v)
		for i := range alive {
			nbrs := o.adj[v][i] & alive[i]
			for nbrs != 0 {
				u := i*64 + bits.TrailingZeros64(nbrs)
				nbrs &= nbrs - 1
				if !visited.get(u) {
					visited.set(u)
					queue = append(queue, u)
				}
			}
		}
	}
	return comp
}

// orderComponent linearizes a path or cycle component into traversal
// order; isCycle reports whether the component closes.
func orderComponent(comp []int, adjacent func(a, b int) bool) ([]int, bool) {
	if len(comp) == 1 {
		return comp, false
	}
	degIn := func(v int) int {
		d := 0
		for _, u := range comp {
			if u != v && adjacent(v, u) {
				d++
			}
		}
		return d
	}
	start := comp[0]
	isCycle := true
	for _, v := range comp {
		if degIn(v) <= 1 {
			start = v
			isCycle = false
			break
		}
	}
	order := []int{start}
	prev := -1
	for len(order) < len(comp) {
		cur := order[len(order)-1]
		advanced := false
		for _, u := range comp {
			if u != cur && u != prev && adjacent(cur, u) && !contains(order, u) {
				order = append(order, u)
				prev = cur
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	return order, isCycle
}

func contains(list []int, v int) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// pathCycleDP is the classic weighted independent set DP on a path; for
// cycles it takes the better of "exclude first" and "include first,
// exclude its two neighbors".
func (o *MaxISOracle) pathCycleDP(order []int, isCycle bool) (int64, []int) {
	if len(order) == 0 {
		return 0, nil
	}
	pathDP := func(vs []int) (int64, []int) {
		if len(vs) == 0 {
			return 0, nil
		}
		// take[i]: best for the length-i prefix with vs[i-1] selected;
		// skip[i]: best with vs[i-1] not selected.
		take := make([]int64, len(vs)+1)
		skip := make([]int64, len(vs)+1)
		for i, v := range vs {
			take[i+1] = skip[i] + o.weights[v]
			skip[i+1] = max64(take[i], skip[i])
		}
		// Reconstruct by walking each state's provenance: take[i] selects
		// vs[i-1] and came from skip[i-1]; skip[i] came from the larger of
		// take[i-1] and skip[i-1].
		var set []int
		i := len(vs)
		taking := take[i] > skip[i]
		for i > 0 {
			if taking {
				set = append(set, vs[i-1])
				i--
				taking = false
			} else {
				i--
				taking = take[i] > skip[i]
			}
		}
		return max64(take[len(vs)], skip[len(vs)]), set
	}
	if !isCycle || len(order) <= 2 {
		if isCycle && len(order) == 2 {
			// Two mutually adjacent vertices: pick the heavier.
			if o.weights[order[0]] >= o.weights[order[1]] {
				return o.weights[order[0]], []int{order[0]}
			}
			return o.weights[order[1]], []int{order[1]}
		}
		return pathDP(order)
	}
	// Cycle: either order[0] is excluded, or it is included and both its
	// cycle neighbors (order[1] and order[last]) are excluded.
	excW, excSet := pathDP(order[1:])
	incW, incSet := pathDP(order[2 : len(order)-1])
	incW += o.weights[order[0]]
	if incW > excW {
		return incW, append(append([]int(nil), incSet...), order[0])
	}
	return excW, excSet
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// MaxIndependentSetSize returns α(G), the cardinality of a maximum
// independent set (unit weights regardless of g's vertex weights).
func MaxIndependentSetSize(g *graph.Graph) (int, []int, error) {
	alpha, set, err := new(MaxISOracle).MaxIndependentSetSize(g)
	if err != nil {
		return 0, nil, err
	}
	return alpha, append([]int(nil), set...), nil
}

// MinVertexCoverSize returns τ(G) = n - α(G) together with a minimum vertex
// cover (the complement of a maximum independent set).
func MinVertexCoverSize(g *graph.Graph) (int, []int, error) {
	alpha, isSet, err := MaxIndependentSetSize(g)
	if err != nil {
		return 0, nil, err
	}
	inIS := make([]bool, g.N())
	for _, v := range isSet {
		inIS[v] = true
	}
	cover := make([]int, 0, g.N()-alpha)
	for v := 0; v < g.N(); v++ {
		if !inIS[v] {
			cover = append(cover, v)
		}
	}
	return g.N() - alpha, cover, nil
}

// IsIndependentSet reports whether set is independent in g.
func IsIndependentSet(g *graph.Graph, set []int) bool {
	return checkIndependentSet(g, set, true, math.MinInt64, newBitset(g.N()))
}

// IsVertexCover reports whether set covers every edge of g.
func IsVertexCover(g *graph.Graph, set []int) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		if v < 0 || v >= g.N() {
			return false
		}
		in[v] = true
	}
	for _, e := range g.Edges() {
		if !in[e.U] && !in[e.V] {
			return false
		}
	}
	return true
}
