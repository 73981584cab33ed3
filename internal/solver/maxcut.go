package solver

import (
	"fmt"
	"math/bits"

	"congesthard/internal/graph"
)

// MaxCut computes a maximum-weight cut of g exactly by Gray-code
// enumeration of one side (vertex 0 fixed to side false by symmetry), with
// O(1) amortized update per step. Practical to about 28 vertices, which
// covers the paper's max-cut family at its verification sizes.
func MaxCut(g *graph.Graph) (int64, []bool, error) {
	best, bestMask, err := maxCutSearch(g)
	if err != nil {
		return 0, nil, err
	}
	side := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		side[v] = bestMask&(uint64(1)<<uint(v)) != 0
	}
	return best, side, nil
}

// maxCutSearch runs the Gray-code enumeration and returns the best cut
// weight with its side mask.
func maxCutSearch(g *graph.Graph) (int64, uint64, error) {
	n := g.N()
	if n > 28 {
		return 0, 0, fmt.Errorf("exact max-cut limited to 28 vertices, got %d", n)
	}
	if n <= 1 {
		return 0, 0, nil
	}

	// incident[v] = edges incident to v, for the incremental flip update.
	type inc struct {
		other  int
		weight int64
	}
	incident := make([][]inc, n)
	for _, e := range g.Edges() {
		incident[e.U] = append(incident[e.U], inc{other: e.V, weight: e.Weight})
		incident[e.V] = append(incident[e.V], inc{other: e.U, weight: e.Weight})
	}

	current := int64(0)
	best := int64(0)
	bestMask := uint64(0)
	mask := uint64(0)
	// Enumerate assignments of vertices 1..n-1 in Gray-code order so each
	// step flips exactly one vertex.
	steps := uint64(1) << uint(n-1)
	for i := uint64(1); i < steps; i++ {
		flip := bits.TrailingZeros64(i) + 1 // vertex to flip (vertex 0 stays put)
		bit := uint64(1) << uint(flip)
		mask ^= bit
		nowOnRight := mask&bit != 0
		for _, e := range incident[flip] {
			otherRight := mask&(uint64(1)<<uint(e.other)) != 0
			if nowOnRight != otherRight {
				current += e.weight // edge just became cut
			} else {
				current -= e.weight // edge just left the cut
			}
		}
		if current > best {
			best = current
			bestMask = mask
		}
	}
	return best, bestMask, nil
}

// HasCutOfWeight reports whether g has a cut of weight at least target
// (the decision predicate of Theorem 2.8). It delegates to MaxCutOracle:
// branch and bound over vertex assignments, exact, with YES instances
// decided as soon as a witness assignment prefix reaches the target.
func HasCutOfWeight(g *graph.Graph, target int64) (bool, error) {
	return new(MaxCutOracle).HasCutOfWeight(g, target)
}

// MaxCutOracle is a reusable exact max-cut decision evaluator. It assigns
// vertices to sides in descending weighted-degree order with branch and
// bound: the bound adds the total positive weight of not-yet-decided edges
// (remGain), so assignments that cannot reach the target are pruned — on
// the paper's Section 2.4 instances the k⁴ forcing edges make this
// exponentially faster than the Gray-code sweep that MaxCut (the full
// maximization) still uses. It carries the side vector of its last YES as
// a certificate (see certificate.go), checked before any search runs. All
// scratch is preallocated and reused, so a worker holding an oracle across
// many same-size graphs does not allocate. The zero value is ready to use.
// Not safe for concurrent use.
type MaxCutOracle struct {
	n        int   // vertex count of the current call
	capN     int   // allocated capacity
	order    []int // order[d] = vertex assigned at depth d
	pos      []int // pos[v] = depth of v
	gain     []int64
	back     [][]cutBackEdge // back[d] = edges from order[d] to earlier depths
	remGain  []int64         // remGain[d] = total positive weight of edges undecided before depth d
	side     []bool          // side[d] = side of order[d]
	target   int64
	negative bool
	// decided is the depth at which the search reached the target: the
	// vertices from there on are unassigned and any side completes them.
	decided int
	cert    []bool // the last YES certificate, cert[v] = side of v
	effort
}

// cutBackEdge is an edge from the vertex at some depth to an earlier depth.
type cutBackEdge struct {
	p int // earlier endpoint's depth
	w int64
}

// HasCutOfWeight reports whether g has a cut of weight at least target,
// reusing the oracle's scratch. Same 28-vertex limit (and error message)
// as the package-level function, so the two paths are interchangeable.
func (o *MaxCutOracle) HasCutOfWeight(g *graph.Graph, target int64) (bool, error) {
	n := g.N()
	if n > 28 {
		return false, fmt.Errorf("exact max-cut limited to 28 vertices, got %d", n)
	}
	if n <= 1 {
		return 0 >= target, nil
	}
	if checkCut(g, o.cert, target) {
		return true, nil
	}
	o.grow(n)
	o.target = target
	o.negative = false
	// Weighted-degree order, heaviest first: deciding the forcing edges
	// early makes the remGain bound bite immediately.
	for v := 0; v < n; v++ {
		var total int64
		for _, h := range g.Neighbors(v) {
			if h.Weight > 0 {
				total += h.Weight
			} else if h.Weight < 0 {
				o.negative = true
			}
		}
		o.gain[v] = total
		o.order[v] = v
	}
	for i := 1; i < n; i++ {
		v := o.order[i]
		j := i
		for j > 0 && o.gain[o.order[j-1]] < o.gain[v] {
			o.order[j] = o.order[j-1]
			j--
		}
		o.order[j] = v
	}
	for d := 0; d < n; d++ { // first n entries only: o.order may be larger
		o.pos[o.order[d]] = d
	}
	for d := 0; d < n; d++ {
		o.back[d] = o.back[d][:0]
	}
	for v := 0; v < n; v++ {
		d := o.pos[v]
		for _, h := range g.Neighbors(v) {
			if p := o.pos[h.To]; p < d {
				o.back[d] = append(o.back[d], cutBackEdge{p: p, w: h.Weight})
			}
		}
	}
	// remGain[d]: an edge is decided at its later endpoint's depth.
	o.remGain[n] = 0
	for d := n - 1; d >= 0; d-- {
		var late int64
		for _, be := range o.back[d] {
			if be.w > 0 {
				late += be.w
			}
		}
		o.remGain[d] = o.remGain[d+1] + late
	}
	o.side[0] = false // fix one side by symmetry
	o.searches++
	if !o.recurse(1, 0) {
		return false, nil
	}
	if cap(o.cert) < n {
		o.cert = make([]bool, n)
	}
	o.cert = o.cert[:n]
	for d := 0; d < n; d++ {
		o.cert[o.order[d]] = d < o.decided && o.side[d]
	}
	if !checkCut(g, o.cert, target) {
		o.cert = o.cert[:0]
		return false, certError("MaxCut", n)
	}
	return true, nil
}

func (o *MaxCutOracle) grow(n int) {
	o.n = n
	if o.capN >= n {
		return
	}
	o.capN = n
	o.order = make([]int, n)
	o.pos = make([]int, n)
	o.gain = make([]int64, n)
	o.back = make([][]cutBackEdge, n)
	o.remGain = make([]int64, n+1)
	o.side = make([]bool, n)
}

//hardness:hotpath
func (o *MaxCutOracle) recurse(d int, current int64) bool {
	o.nodes++
	if current >= o.target && (d == o.n || !o.negative) {
		// With nonnegative weights any completion only adds cut weight.
		o.decided = d
		return true
	}
	if d == o.n {
		return false
	}
	if current+o.remGain[d] < o.target {
		return false
	}
	for s := 0; s < 2; s++ {
		cur := current
		right := s == 1
		for _, be := range o.back[d] {
			if o.side[be.p] != right {
				cur += be.w
			}
		}
		o.side[d] = right
		if o.recurse(d+1, cur) {
			return true
		}
	}
	return false
}
