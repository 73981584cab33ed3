package solver

import (
	"congesthard/internal/graph"
)

// MaxCut computes a maximum-weight cut of g exactly, on a fresh
// MaxCutOracle (see its MaxCut method for the search and the tie rule).
func MaxCut(g *graph.Graph) (int64, []bool, error) {
	return new(MaxCutOracle).MaxCut(g)
}

// HasCutOfWeight reports whether g has a cut of weight at least target
// (the decision predicate of Theorem 2.8). It delegates to MaxCutOracle:
// branch and bound over vertex assignments, exact, with YES instances
// decided as soon as a witness assignment prefix reaches the target.
func HasCutOfWeight(g *graph.Graph, target int64) (bool, error) {
	return new(MaxCutOracle).HasCutOfWeight(g, target)
}

// MaxCutOracle is a reusable exact max-cut evaluator: one branch and bound
// over vertex assignments, in a decision mode (HasCutOfWeight) and a
// maximization mode (MaxCut). The bound adds the total positive weight of
// not-yet-decided edges (remGain), so assignments that cannot reach the
// target are pruned — on the paper's Section 2.4 instances the k⁴ forcing
// edges make this exponentially faster than enumerating assignments. The
// decision mode carries the side vector of its last YES as a certificate
// (see carry.go). It keeps no NO snapshot: a max-cut NO instance is only
// carried to graphs whose every edge is at most as heavy, and no workload
// walks such a pair (maxcutlb's normalizing weights move both ways). All
// decision scratch is preallocated and reused, so a worker holding an
// oracle across many same-size graphs does not allocate. The zero value is
// ready to use. Not safe for concurrent use.
type MaxCutOracle struct {
	n       int   // vertex count of the current call
	capN    int   // allocated capacity
	order   []int // order[d] = vertex assigned at depth d
	pos     []int // pos[v] = depth of v
	gain    []int64
	back    [][]cutBackEdge // back[d] = edges from order[d] to earlier depths
	remGain []int64         // remGain[d] = total positive weight of edges undecided before depth d
	side    []bool          // side[d] = side of order[d]
	target  int64
	// complete: only a complete assignment reaches the target. Set by a
	// negative edge weight, and in the maximization mode.
	complete bool
	// decided is the depth at which the search reached the target: the
	// vertices from there on are unassigned and any side completes them.
	decided int
	// best is nil in the decision mode; in the maximization mode it holds
	// the best complete assignment so far, best[v] = side of v.
	best []bool
	cert []bool       // the last YES certificate, cert[v] = side of v
	g    *graph.Graph // the decision's instance
	effort
}

// cutBackEdge is an edge from the vertex at some depth to an earlier depth.
type cutBackEdge struct {
	p int // earlier endpoint's depth
	w int64
}

// HasCutOfWeight reports whether g has a cut of weight at least target,
// reusing the oracle's scratch.
func (o *MaxCutOracle) HasCutOfWeight(g *graph.Graph, target int64) (bool, error) {
	n := g.N()
	if n <= 1 {
		return 0 >= target, nil
	}
	o.g, o.target = g, target
	found, err := decide(o, true, "MaxCut", n)
	o.g = nil
	return found, err
}

func (o *MaxCutOracle) certHolds() bool { return checkCut(o.g, o.cert, o.target) }

func (o *MaxCutOracle) noCarried() bool { return false }

func (o *MaxCutOracle) searched() bool {
	g, n := o.g, o.g.N()
	o.setup(g, false)
	o.searches++
	if !o.recurse(1, 0) {
		return false
	}
	if cap(o.cert) < n {
		o.cert = make([]bool, n)
	}
	o.cert = o.cert[:n]
	for d := 0; d < n; d++ {
		o.cert[o.order[d]] = d < o.decided && o.side[d]
	}
	return true
}

func (o *MaxCutOracle) keepNo() {}

// MaxCut returns a maximum cut weight of g and a side vector realizing it:
// the decision search with the target raised past every better complete
// assignment it meets. It takes the vertices in the order 0, n−1, …, 1,
// side false first, so it meets the assignments in increasing order of
// the mask Σ_{side[v]} 2^(v−1) and returns the optimum of smallest mask
// with vertex 0 on side false. The side vector is the caller's; the
// carried certificate is left as it is.
func (o *MaxCutOracle) MaxCut(g *graph.Graph) (int64, []bool, error) {
	n := g.N()
	side := make([]bool, n)
	if n <= 1 {
		return 0, side, nil
	}
	o.setup(g, true)
	o.complete = true
	o.target = 0 // the empty cut: every vertex on side false
	o.best = side
	o.searches++
	o.recurse(1, 0)
	o.best = nil
	best := o.target - 1
	if !checkCut(g, side, best) {
		return 0, nil, certError("MaxCut", n)
	}
	return best, side, nil
}

// setup sizes the scratch for g and fixes the assignment order with its
// depth index, back edges and remGain bound. The decision mode orders by
// weighted degree, heaviest first: deciding the forcing edges early makes
// the remGain bound bite immediately. The maximization mode takes
// 0, n−1, …, 1 (see MaxCut).
func (o *MaxCutOracle) setup(g *graph.Graph, maximize bool) {
	n := g.N()
	o.grow(n)
	o.complete = false
	for v := 0; v < n; v++ {
		var total int64
		for _, h := range g.Neighbors(v) {
			if h.Weight > 0 {
				total += h.Weight
			} else if h.Weight < 0 {
				o.complete = true
			}
		}
		o.gain[v] = total
		o.order[v] = v
	}
	if maximize {
		for d := 1; d < n; d++ {
			o.order[d] = n - d
		}
	} else {
		for i := 1; i < n; i++ {
			v := o.order[i]
			j := i
			for j > 0 && o.gain[o.order[j-1]] < o.gain[v] {
				o.order[j] = o.order[j-1]
				j--
			}
			o.order[j] = v
		}
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
	if current >= o.target && (d == o.n || !o.complete) {
		// With nonnegative weights any completion only adds cut weight.
		if o.best == nil {
			o.decided = d
			return true
		}
		for i, s := range o.side[:o.n] {
			o.best[o.order[i]] = s
		}
		o.target = current + 1 // look only for a better assignment
		return false
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
