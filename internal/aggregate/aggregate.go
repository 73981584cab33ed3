// Package aggregate implements the Section 4.5 model of local aggregate
// algorithms and the two-party simulation of Theorem 4.8.
//
// A local aggregate algorithm is a CONGEST algorithm in which the message
// a vertex sends in round i depends only on the vertex's O(log n)-bit
// round input, the recipient's id, shared randomness, and an aggregate
// function (Definition 4.1: order-invariant and splittable,
// f(X) = φ(f(X₁), f(X₂))) of the messages received in round i-1. Because
// the aggregate splits, Alice and Bob can jointly simulate a vertex they
// share by exchanging just two aggregate values per round — O(log n) bits
// — instead of its whole inbox; over the ℓ shared element vertices of the
// Figure 7 construction this costs O(ℓ log n) bits per round and yields
// Theorem 4.8's lower bound for aggregate-style MDS approximation.
package aggregate

import (
	"fmt"
	"math"

	"congesthard/internal/graph"
)

// Func is an aggregate function per Definition 4.1: order-invariant with a
// splitting combiner φ.
type Func interface {
	// Name identifies the aggregate, e.g. "max".
	Name() string
	// Identity is the value of the empty aggregate.
	Identity() int64
	// Combine is φ: Combine(f(X1), f(X2)) = f(X1 ∪ X2).
	Combine(a, b int64) int64
}

// Max is the maximum aggregate.
type Max struct{}

// Name returns "max".
func (Max) Name() string { return "max" }

// Identity returns the smallest int64.
func (Max) Identity() int64 { return math.MinInt64 }

// Combine returns the larger argument.
func (Max) Combine(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Node is one vertex's program in a local aggregate algorithm. Each round
// it sees only the aggregate of the previous round's incoming broadcasts —
// never the individual messages — which is exactly the restriction that
// lets Alice and Bob split a shared vertex's inbox.
type Node interface {
	// Step consumes the folded inbox value and returns the word to
	// broadcast this round (send = false suppresses it).
	Step(round int, agg int64) (broadcast int64, send bool)
	// Output returns the vertex's final output.
	Output() int64
}

// Algorithm builds the per-vertex programs and fixes the aggregate and
// round budget.
type Algorithm interface {
	Aggregator() Func
	// NewNode instantiates vertex v's program; neighbors lists its
	// adjacent vertex ids and weight its vertex weight.
	NewNode(v, n int, neighbors []int, weight int64) Node
	// Rounds is the fixed round budget for an n-vertex graph.
	Rounds(n int) int
}

// Result reports a run of an aggregate algorithm.
type Result struct {
	Rounds  int
	Outputs []int64
	// TwoPartyBits is filled by SimulateTwoParty.
	TwoPartyBits int64
}

// Run executes the algorithm over the graph for its fixed round budget.
func Run(g *graph.Graph, alg Algorithm) (*Result, error) {
	n := g.N()
	nodes := make([]Node, n)
	for v := 0; v < n; v++ {
		nodes[v] = alg.NewNode(v, n, g.NeighborIDs(v), g.VertexWeight(v))
	}
	f := alg.Aggregator()
	rounds := alg.Rounds(n)
	lastSent := make([]int64, n)
	sentFlag := make([]bool, n)
	for round := 0; round < rounds; round++ {
		nextSent := make([]int64, n)
		nextFlag := make([]bool, n)
		for v := 0; v < n; v++ {
			agg := f.Identity()
			for _, h := range g.Neighbors(v) {
				if sentFlag[h.To] {
					agg = f.Combine(agg, lastSent[h.To])
				}
			}
			broadcast, send := nodes[v].Step(round, agg)
			if send {
				nextSent[v] = broadcast
				nextFlag[v] = true
			}
		}
		lastSent, sentFlag = nextSent, nextFlag
	}
	outputs := make([]int64, n)
	for v := 0; v < n; v++ {
		outputs[v] = nodes[v].Output()
	}
	return &Result{Rounds: rounds, Outputs: outputs}, nil
}

// Vertex ownership labels for the two-party simulation.
const (
	OwnerAlice byte = iota
	OwnerBob
	OwnerShared
)

// SimulateTwoParty runs the algorithm and accounts the communication of
// the Theorem 4.8 simulation: per round, every shared vertex costs two
// aggregate-value exchanges (Alice's partial fold and Bob's, wordBits bits
// each), and every message crossing an Alice-Bob edge costs wordBits bits.
func SimulateTwoParty(g *graph.Graph, alg Algorithm, side []byte, wordBits int) (*Result, error) {
	if len(side) != g.N() {
		return nil, fmt.Errorf("partition has %d entries for %d vertices", len(side), g.N())
	}
	res, err := Run(g, alg)
	if err != nil {
		return nil, err
	}
	var crossEdges int64
	for _, e := range g.Edges() {
		su, sv := side[e.U], side[e.V]
		if (su == OwnerAlice && sv == OwnerBob) || (su == OwnerBob && sv == OwnerAlice) {
			crossEdges++
		}
	}
	var sharedCount int64
	for _, s := range side {
		if s == OwnerShared {
			sharedCount++
		}
	}
	res.TwoPartyBits = int64(res.Rounds) * (2*sharedCount + 2*crossEdges) * int64(wordBits)
	return res, nil
}

// GreedyDominatingSet is a concrete local aggregate algorithm (the style
// footnote 3 of the paper points to): phases of three rounds using only a
// Max aggregate.
//
//	round 3p:   update domination from last phase's join announcements;
//	            broadcast 1 if still undominated else 0.
//	round 3p+1: broadcast the candidacy word need*(n+1) + id, where need
//	            says the vertex or some neighbor is undominated.
//	round 3p+2: join the dominating set if flagged and the candidacy word
//	            is the maximum over the closed neighborhood; broadcast 1
//	            on joining.
//
// Every phase dominates at least one new vertex (the globally maximal
// flagged word joins), so 3(n+1) rounds always suffice.
type GreedyDominatingSet struct{}

var _ Algorithm = GreedyDominatingSet{}

// Aggregator returns Max.
func (GreedyDominatingSet) Aggregator() Func { return Max{} }

// Rounds returns 3(n+1).
func (GreedyDominatingSet) Rounds(n int) int { return 3 * (n + 1) }

// NewNode builds the per-vertex greedy program.
func (GreedyDominatingSet) NewNode(v, n int, neighbors []int, weight int64) Node {
	return &greedyNode{id: int64(v), n: int64(n)}
}

type greedyNode struct {
	id, n     int64
	inSet     bool
	dominated bool
	myWord    int64
}

// Step implements the three-round phase.
func (gn *greedyNode) Step(round int, agg int64) (int64, bool) {
	switch round % 3 {
	case 0:
		if round > 0 && agg >= 1 {
			gn.dominated = true // a neighbor joined last phase
		}
		if gn.inSet {
			gn.dominated = true
		}
		if gn.dominated {
			return 0, true
		}
		return 1, true
	case 1:
		need := int64(0)
		if !gn.dominated || agg >= 1 {
			need = 1
		}
		gn.myWord = need*(gn.n+1) + gn.id
		return gn.myWord, true
	default:
		maxWord := agg
		if gn.myWord > maxWord {
			maxWord = gn.myWord
		}
		if gn.myWord == maxWord && gn.myWord >= gn.n+1 {
			gn.inSet = true
			gn.dominated = true
			return 1, true
		}
		return 0, true
	}
}

// Output returns 1 if the vertex joined the dominating set.
func (gn *greedyNode) Output() int64 {
	if gn.inSet {
		return 1
	}
	return 0
}
