// Package algorithms implements the CONGEST upper bounds that bracket the
// paper's lower bounds, as programs for the congest simulator:
//
//   - CollectAndSolve: the generic "learn the whole graph and solve
//     locally" exact algorithm, O(m + D) rounds — the O(n²) upper bound
//     that the Section 2 Ω̃(n²) lower bounds nearly match — plus
//     CollectFactory, the same algorithm as a real gossip program whose
//     every message the simulator meters (the reduction engine's workhorse);
//   - the Theorem 2.9 (1-ε)-approximate max-cut algorithm: sample each
//     edge with probability p, collect the sample at a leader, solve
//     max-cut exactly on the sample and scale by 1/p — Õ(n) rounds;
//   - the classic approximation baselines the paper cites: greedy
//     dominating set, maximal-matching 2-approximate vertex cover and the
//     random ½-approximate cut.
package algorithms

import (
	"fmt"
	"math/rand"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

// CollectResult carries the leader's view after CollectAndSolve.
type CollectResult struct {
	Rounds  int
	Answer  interface{}
	Edges   []graph.Edge
	Metrics congest.Metrics
}

// CollectAndSolve runs the generic exact algorithm: build a BFS tree at
// the minimum-id vertex, convergecast every edge to it (pipelined, one
// edge per tree-edge per round), and apply solve to the collected graph.
// This realizes the O(m + D)-round "learn everything" upper bound; the
// answer is computed once at the leader (flooding it back costs O(D+|answer|)
// more rounds, which we account for in Rounds).
//
// The simulation shortcut: rather than scripting the convergecast as node
// programs, we meter it faithfully — BFS depth rounds for the tree, plus
// the convergecast schedule length, computed from the tree (the maximum
// over vertices of edges-below-plus-depth), plus D to flood the answer.
// The edge set itself is assembled centrally; the round count is what the
// lower-bound comparison needs.
func CollectAndSolve(g *graph.Graph, solve func(*graph.Graph) (interface{}, error)) (*CollectResult, error) {
	n := g.N()
	if n == 0 {
		return &CollectResult{}, nil
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("collect-and-solve requires a connected graph")
	}
	// BFS tree at vertex 0 (the minimum id).
	dist := g.BFS(0)
	depth := 0
	for _, d := range dist {
		if d > depth {
			depth = d
		}
	}
	// Convergecast schedule: each vertex must push its subtree's edges up;
	// a standard pipelining argument gives max_v (depth(v) + edgesBelow(v))
	// rounds; we use the simple upper bound depth + m.
	m := g.M()
	rounds := depth /* bfs */ + depth + m /* convergecast */ + depth /* flood answer */
	answer, err := solve(g.Clone())
	if err != nil {
		return nil, err
	}
	return &CollectResult{
		Rounds: rounds,
		Answer: answer,
		Edges:  g.Edges(),
	}, nil
}

// MaxCutApproxResult reports the Theorem 2.9 algorithm's outcome.
type MaxCutApproxResult struct {
	Rounds        int
	SampledEdges  int
	EstimatedCut  float64 // c*_p / p
	Side          []bool  // the cut computed on the sampled subgraph
	AchievedValue int64   // the side's true cut weight in g
}

// MaxCutApprox implements the Theorem 2.9 sampling algorithm on an
// unweighted graph: sample each edge independently with probability p,
// collect the O(mp) sampled edges at a leader (O(mp + D) rounds), solve
// max-cut exactly on the sample, and return the sampled optimum scaled by
// 1/p together with the corresponding vertex sides. With
// p = n·polylog(n)/m this runs in Õ(n) rounds and is a (1-ε)-approximation
// with high probability ([51] via the paper).
func MaxCutApprox(g *graph.Graph, p float64, rng *rand.Rand) (*MaxCutApproxResult, error) {
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("sampling probability %v out of (0,1]", p)
	}
	n := g.N()
	if n == 0 {
		return &MaxCutApproxResult{}, nil
	}
	sample := graph.New(n)
	for _, e := range g.Edges() {
		if rng.Float64() < p {
			sample.MustAddEdge(e.U, e.V)
		}
	}
	// The leader solves samples of up to 28 vertices exactly and runs local
	// search on larger ones, keeping the demo's running time bounded
	// (Theorem 2.9 treats the central solve as free local computation).
	var side []bool
	var sampledOpt int64
	if n <= 28 {
		var err error
		sampledOpt, side, err = solver.MaxCut(sample)
		if err != nil {
			return nil, err
		}
	} else {
		side, sampledOpt = localSearchMaxCut(sample, rng)
	}
	dist := g.BFS(0)
	depth := 0
	for _, d := range dist {
		if d > depth {
			depth = d
		}
	}
	rounds := depth + sample.M() + depth + n // collect sample + flood the n side bits
	return &MaxCutApproxResult{
		Rounds:        rounds,
		SampledEdges:  sample.M(),
		EstimatedCut:  float64(sampledOpt) / p,
		Side:          side,
		AchievedValue: g.CutWeight(side),
	}, nil
}

// localSearchMaxCut flips vertices until no single flip improves the cut:
// a ½-approximation from a random start, used on samples of more than 28
// vertices.
func localSearchMaxCut(g *graph.Graph, rng *rand.Rand) ([]bool, int64) {
	n := g.N()
	side := make([]bool, n)
	for v := range side {
		side[v] = rng.Intn(2) == 1
	}
	improved := true
	for improved {
		improved = false
		for v := 0; v < n; v++ {
			var delta int64
			for _, h := range g.Neighbors(v) {
				if side[v] != side[h.To] {
					delta -= h.Weight
				} else {
					delta += h.Weight
				}
			}
			if delta > 0 {
				side[v] = !side[v]
				improved = true
			}
		}
	}
	return side, g.CutWeight(side)
}

// RandomCut assigns each vertex a uniform side: the 0-round
// ½-approximation in expectation the paper opens Section 2.4 with.
func RandomCut(g *graph.Graph, rng *rand.Rand) ([]bool, int64) {
	side := make([]bool, g.N())
	for v := range side {
		side[v] = rng.Intn(2) == 1
	}
	return side, g.CutWeight(side)
}
