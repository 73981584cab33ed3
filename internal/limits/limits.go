// Package limits implements Section 5's limitation machinery: the cheap
// two-party protocols that cap what the Theorem 1.1 framework can prove.
// Each protocol takes a graph with a fixed Alice/Bob vertex bipartition —
// the setting of Definition 1.1 — solves the optimization problem to a
// guaranteed approximation, and reports the exact number of bits the
// players exchanged. By Corollary 5.1, a protocol with cost
// O(|E_cut|·log n) for a predicate P caps every Theorem 1.1 lower bound
// for P at O(1) rounds.
package limits

import (
	"fmt"
	"math"

	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

// ProtocolResult reports a limitation protocol's outcome.
type ProtocolResult struct {
	// Value is the objective value of the protocol's solution.
	Value int64
	// Optimal is the true optimum (computed by the exact solver for
	// comparison; not part of the protocol).
	Optimal int64
	// Bits is the number of bits Alice and Bob exchanged.
	Bits int64
	// Ratio is Value/Optimal (or Optimal/Value for minimization), the
	// achieved approximation.
	Ratio float64
}

func logN(n int) int64 {
	bits := int64(1)
	for (1 << uint(bits)) < n+1 {
		bits++
	}
	return bits
}

func splitVertices(side []bool) (alice, bob []int) {
	for v, a := range side {
		if a {
			alice = append(alice, v)
		} else {
			bob = append(bob, v)
		}
	}
	return alice, bob
}

// TwoApproxMDS is the Claim 5.8 protocol: each player covers all vertices
// of its own side optimally (possibly using cut vertices), and the union
// is a 2-approximation of the weighted MDS. Cost: O(|E_cut|·log n) bits.
func TwoApproxMDS(g *graph.Graph, side []bool) (*ProtocolResult, error) {
	alice, bob := splitVertices(side)
	_, setA, err := solver.MinDominatingSetOfTargets(g, alice)
	if err != nil {
		return nil, err
	}
	_, setB, err := solver.MinDominatingSetOfTargets(g, bob)
	if err != nil {
		return nil, err
	}
	union := map[int]bool{}
	for _, v := range append(append([]int{}, setA...), setB...) {
		union[v] = true
	}
	var value int64
	for v := range union {
		value += g.VertexWeight(v)
	}
	opt, _, err := solver.MinDominatingSet(g)
	if err != nil {
		return nil, err
	}
	cut := int64(len(g.CutEdges(side)))
	res := &ProtocolResult{
		Value:   value,
		Optimal: opt,
		Bits:    cut * logN(g.N()) * 2, // each tells the other its cross-side picks
		Ratio:   float64(value) / float64(opt),
	}
	if res.Ratio > 2+1e-9 {
		return nil, fmt.Errorf("protocol exceeded its 2-approximation: %v", res.Ratio)
	}
	return res, nil
}

// HalfApproxMaxIS is the Claim 5.9 protocol: each player solves MaxIS
// optimally on its own side's induced subgraph; the heavier solution is a
// ½-approximation. Cost: O(log n) bits.
func HalfApproxMaxIS(g *graph.Graph, side []bool) (*ProtocolResult, error) {
	subA, _ := g.InducedSubgraph(func(v int) bool { return side[v] })
	subB, _ := g.InducedSubgraph(func(v int) bool { return !side[v] })
	wA, _, err := solver.MaxWeightIndependentSet(subA)
	if err != nil {
		return nil, err
	}
	wB, _, err := solver.MaxWeightIndependentSet(subB)
	if err != nil {
		return nil, err
	}
	value := wA
	if wB > value {
		value = wB
	}
	opt, _, err := solver.MaxWeightIndependentSet(g)
	if err != nil {
		return nil, err
	}
	res := &ProtocolResult{
		Value:   value,
		Optimal: opt,
		Bits:    2 * logN(g.N()),
		Ratio:   float64(value) / float64(opt),
	}
	if opt > 0 && res.Ratio < 0.5-1e-9 {
		return nil, fmt.Errorf("protocol fell below its ½-approximation: %v", res.Ratio)
	}
	return res, nil
}

// MVC32 is the Claim 5.6 protocol: the player whose internal optimum is
// smaller covers only its internal edges; the other covers everything
// touching its side including the cut. The union is a 3/2-approximation
// of MVC. Cost: O(|E_cut|·log n) bits.
func MVC32(g *graph.Graph, side []bool) (*ProtocolResult, error) {
	subA, mapA := g.InducedSubgraph(func(v int) bool { return side[v] })
	subB, mapB := g.InducedSubgraph(func(v int) bool { return !side[v] })
	optA, coverA, err := solver.MinVertexCoverSize(subA)
	if err != nil {
		return nil, err
	}
	optB, coverB, err := solver.MinVertexCoverSize(subB)
	if err != nil {
		return nil, err
	}
	// The smaller internal cover plus a full cover of the other side's
	// touched edges.
	smallCover := coverA
	smallMap := mapA
	bigSide := func(v int) bool { return !side[v] }
	if optB < optA {
		smallCover = coverB
		smallMap = mapB
		bigSide = func(v int) bool { return side[v] }
	}
	// Cover all edges touching the big side: the subgraph of those edges.
	touched := map[int]bool{}
	for _, e := range g.Edges() {
		if bigSide(e.U) || bigSide(e.V) {
			touched[e.U] = true
			touched[e.V] = true
		}
	}
	subBig, mapBig := g.InducedSubgraph(func(v int) bool { return touched[v] })
	_, coverBig, err := solver.MinVertexCoverSize(subBig)
	if err != nil {
		return nil, err
	}
	union := map[int]bool{}
	for _, v := range smallCover {
		union[smallMap[v]] = true
	}
	for _, v := range coverBig {
		union[mapBig[v]] = true
	}
	// Safety: the union must be a cover (the big-side cover handles cut
	// edges; the small cover handles the remaining internal ones).
	cover := make([]int, 0, len(union))
	for v := range union {
		cover = append(cover, v)
	}
	if !solver.IsVertexCover(g, cover) {
		return nil, fmt.Errorf("internal: protocol output is not a vertex cover")
	}
	opt, _, err := solver.MinVertexCoverSize(g)
	if err != nil {
		return nil, err
	}
	res := &ProtocolResult{
		Value:   int64(len(cover)),
		Optimal: int64(opt),
		Bits:    int64(len(g.CutEdges(side)))*logN(g.N()) + 2*logN(g.N()),
	}
	if opt > 0 {
		res.Ratio = float64(len(cover)) / float64(opt)
		if res.Ratio > 1.5+1e-9 {
			return nil, fmt.Errorf("protocol exceeded its 3/2-approximation: %v", res.Ratio)
		}
	}
	return res, nil
}

// WeightedMaxCut23 is the Claim 5.5 protocol after [30]: Alice solves
// max-cut optimally on her internal edges (C_A), Bob on his edges plus the
// cut (C_B); the best of C_A, C_B and C_A⊕C_B is a 2/3-approximation.
// Alice sends her internal optimum and her assignment on cut endpoints:
// O(|E_cut|·log n) bits.
func WeightedMaxCut23(g *graph.Graph, side []bool) (*ProtocolResult, error) {
	n := g.N()
	// E_A: internal Alice edges; E_B: everything else.
	gA := graph.New(n)
	gB := graph.New(n)
	for _, e := range g.Edges() {
		if side[e.U] && side[e.V] {
			gA.MustAddWeightedEdge(e.U, e.V, e.Weight)
		} else {
			gB.MustAddWeightedEdge(e.U, e.V, e.Weight)
		}
	}
	_, cutA, err := solver.MaxCut(gA)
	if err != nil {
		return nil, err
	}
	_, cutB, err := solver.MaxCut(gB)
	if err != nil {
		return nil, err
	}
	xor := make([]bool, n)
	for v := 0; v < n; v++ {
		xor[v] = cutA[v] != cutB[v]
	}
	best := int64(math.MinInt64)
	for _, c := range [][]bool{cutA, cutB, xor} {
		if w := g.CutWeight(c); w > best {
			best = w
		}
	}
	opt, _, err := solver.MaxCut(g)
	if err != nil {
		return nil, err
	}
	res := &ProtocolResult{
		Value:   best,
		Optimal: opt,
		Bits:    int64(len(g.CutEdges(side)))*2 + 3*logN(n)*4,
	}
	if opt > 0 {
		res.Ratio = float64(best) / float64(opt)
		if res.Ratio < 2.0/3-1e-9 {
			return nil, fmt.Errorf("protocol fell below 2/3: %v", res.Ratio)
		}
	}
	return res, nil
}

// BoundedDegreeEpsProtocol captures the Claims 5.1-5.3 pattern on
// bounded-degree graphs: if the cut is small relative to ε·m, combine
// per-side optimal solutions with the cut vertices (cost O(|E_cut| log n));
// otherwise learn the whole graph (cost m·log n = O(|E_cut|·log n/ε)).
// The problem parameter selects MVC, MDS or MaxIS.
type BoundedProblem int

// Problems covered by the bounded-degree limitation protocols.
const (
	ProblemMVC BoundedProblem = iota + 1
	ProblemMDS
	ProblemMaxIS
)

// BoundedDegreeEps runs the protocol and checks the (1±ε) guarantee.
func BoundedDegreeEps(g *graph.Graph, side []bool, eps float64, problem BoundedProblem) (*ProtocolResult, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("eps must be in (0,1), got %v", eps)
	}
	m := g.M()
	delta := g.MaxDegree()
	if delta == 0 {
		return nil, fmt.Errorf("empty graph")
	}
	cut := g.CutEdges(side)
	threshold := eps * float64(m) / (2 * float64(delta) * float64(delta+1))
	cheap := float64(len(cut)) <= threshold

	var value, opt int64
	var err error
	switch problem {
	case ProblemMVC:
		value, opt, err = boundedMVC(g, side, cheap)
	case ProblemMDS:
		value, opt, err = boundedMDS(g, side, cheap)
	case ProblemMaxIS:
		value, opt, err = boundedMaxIS(g, side, cheap)
	default:
		return nil, fmt.Errorf("unknown problem %d", problem)
	}
	if err != nil {
		return nil, err
	}
	bits := int64(m) * logN(g.N())
	if cheap {
		bits = int64(len(cut))*logN(g.N()) + 2*logN(g.N())
	}
	res := &ProtocolResult{Value: value, Optimal: opt, Bits: bits}
	if opt > 0 {
		res.Ratio = float64(value) / float64(opt)
	}
	switch problem {
	case ProblemMaxIS:
		if opt > 0 && res.Ratio < 1-eps-1e-9 {
			return nil, fmt.Errorf("MaxIS protocol below 1-eps: %v", res.Ratio)
		}
	default:
		if opt > 0 && res.Ratio > 1+eps+1e-9 {
			return nil, fmt.Errorf("protocol above 1+eps: %v", res.Ratio)
		}
	}
	return res, nil
}

func boundedMVC(g *graph.Graph, side []bool, cheap bool) (int64, int64, error) {
	opt, _, err := solver.MinVertexCoverSize(g)
	if err != nil {
		return 0, 0, err
	}
	if !cheap {
		return int64(opt), int64(opt), nil // learn the graph, solve exactly
	}
	// Per-side optimal covers plus all cut endpoints.
	union := map[int]bool{}
	for _, flag := range []bool{true, false} {
		sub, mapping := g.InducedSubgraph(func(v int) bool { return side[v] == flag })
		_, cover, err2 := solver.MinVertexCoverSize(sub)
		if err2 != nil {
			return 0, 0, err2
		}
		for _, v := range cover {
			union[mapping[v]] = true
		}
	}
	for _, e := range g.CutEdges(side) {
		union[e.U] = true
		union[e.V] = true
	}
	cover := make([]int, 0, len(union))
	for v := range union {
		cover = append(cover, v)
	}
	if !solver.IsVertexCover(g, cover) {
		return 0, 0, fmt.Errorf("internal: bounded MVC output not a cover")
	}
	return int64(len(cover)), int64(opt), nil
}

func boundedMDS(g *graph.Graph, side []bool, cheap bool) (int64, int64, error) {
	opt, _, err := solver.MinDominatingSet(unitClone(g))
	if err != nil {
		return 0, 0, err
	}
	if !cheap {
		return opt, opt, nil
	}
	// Internal vertices covered per side, cut vertices added wholesale.
	cutVertex := map[int]bool{}
	for _, e := range g.CutEdges(side) {
		cutVertex[e.U] = true
		cutVertex[e.V] = true
	}
	union := map[int]bool{}
	for v := range cutVertex {
		union[v] = true
	}
	for _, flag := range []bool{true, false} {
		var targets []int
		for v := 0; v < g.N(); v++ {
			if side[v] == flag && !cutVertex[v] {
				targets = append(targets, v)
			}
		}
		_, set, err2 := solver.MinDominatingSetOfTargets(unitClone(g), targets)
		if err2 != nil {
			return 0, 0, err2
		}
		for _, v := range set {
			union[v] = true
		}
	}
	set := make([]int, 0, len(union))
	for v := range union {
		set = append(set, v)
	}
	if !solver.IsDominatingSet(g, set) {
		return 0, 0, fmt.Errorf("internal: bounded MDS output not dominating")
	}
	return int64(len(set)), opt, nil
}

func boundedMaxIS(g *graph.Graph, side []bool, cheap bool) (int64, int64, error) {
	opt, _, err := solver.MaxIndependentSetSize(g)
	if err != nil {
		return 0, 0, err
	}
	if !cheap {
		return int64(opt), int64(opt), nil
	}
	// Per-side optima over internal (non-cut-touching) vertices only.
	cutVertex := map[int]bool{}
	for _, e := range g.CutEdges(side) {
		cutVertex[e.U] = true
		cutVertex[e.V] = true
	}
	total := 0
	for _, flag := range []bool{true, false} {
		sub, _ := g.InducedSubgraph(func(v int) bool { return side[v] == flag && !cutVertex[v] })
		alpha, _, err2 := solver.MaxIndependentSetSize(sub)
		if err2 != nil {
			return 0, 0, err2
		}
		total += alpha
	}
	return int64(total), int64(opt), nil
}

func unitClone(g *graph.Graph) *graph.Graph {
	c := g.Clone()
	for v := 0; v < c.N(); v++ {
		_ = c.SetVertexWeight(v, 1)
	}
	return c
}
