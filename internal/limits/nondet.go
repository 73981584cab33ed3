package limits

import (
	"fmt"

	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

// This file implements the Claim 5.11 nondeterministic protocols for max
// s-t flow: a flow witness certifies MF >= k and a cut witness certifies
// MF < k, each verified with O(|E_cut|·log n) bits. Their existence caps
// any Theorem 1.1 lower bound for exact max-flow at Ω(Γ(f)) = O(1) for
// DISJ/EQ-style reductions (Section 5.2.1).

// FlowWitness is an s-t flow given arc by arc.
type FlowWitness struct {
	// Flow[arc] in d.Arcs() order.
	Flow []int64
}

// ProveFlowAtLeast produces a witness when maxflow(s,t) >= k: a maximum
// flow, arc by arc.
func ProveFlowAtLeast(d *graph.Digraph, s, t int, k int64) (*FlowWitness, bool, error) {
	value, flow, err := solver.MaxFlow(d, s, t)
	if err != nil || value < k {
		return nil, false, err
	}
	return &FlowWitness{Flow: flow}, true, nil
}

// VerifyFlowAtLeast checks the witness: capacities respected, conservation
// at every vertex except s and t, and value >= k. Returns the two-party
// verification cost for the given cut: Alice announces the flow on every
// cut arc (O(|E_cut|·log W) bits) and each side checks its own vertices.
func VerifyFlowAtLeast(d *graph.Digraph, s, t int, k int64, w *FlowWitness, side []bool) (bool, int64, error) {
	arcs := d.Arcs()
	if len(w.Flow) != len(arcs) {
		return false, 0, fmt.Errorf("witness has %d entries for %d arcs", len(w.Flow), len(arcs))
	}
	excess := make([]int64, d.N())
	for i, a := range arcs {
		f := w.Flow[i]
		if f < 0 || f > a.Weight {
			return false, 0, nil
		}
		excess[a.From] -= f
		excess[a.To] += f
	}
	for v := range excess {
		if v != s && v != t && excess[v] != 0 {
			return false, 0, nil
		}
	}
	cutArcs := int64(len(d.CutArcs(side)))
	bits := cutArcs*logN(d.N())*2 + 2
	return excess[t] >= k, bits, nil
}

// ProveFlowLessThan produces a cut witness when maxflow(s,t) < k.
func ProveFlowLessThan(d *graph.Digraph, s, t int, k int64) ([]bool, bool, error) {
	value, cut, err := solver.MinSTCut(d, s, t)
	if err != nil {
		return nil, false, err
	}
	if value >= k {
		return nil, false, nil
	}
	return cut, true, nil
}

// VerifyFlowLessThan checks a cut witness: s inside, t outside, capacity
// below k. Two-party cost: Alice sends the membership of her cut-incident
// vertices plus her side's partial capacity (O(|E_cut|·log n) bits).
func VerifyFlowLessThan(d *graph.Digraph, s, t int, k int64, cutSide []bool, side []bool) (bool, int64, error) {
	if len(cutSide) != d.N() {
		return false, 0, fmt.Errorf("witness has %d entries for %d vertices", len(cutSide), d.N())
	}
	if !cutSide[s] || cutSide[t] {
		return false, 0, nil
	}
	capacity := solver.CutCapacity(d, cutSide)
	cutArcs := int64(len(d.CutArcs(side)))
	bits := cutArcs*2 + 2*logN(d.N())
	return capacity < k, bits, nil
}

// MatchingWitnesses demonstrates Claim 5.12's two directions: a matching
// of size >= k is verified edge by edge, and a Tutte-Berge set U certifies
// nu(G) <= k-1. Both verifications cost O((|E_cut|+1)·log n) bits in the
// two-party setting.
func MatchingWitnesses(g *graph.Graph, k int, side []bool) (atLeast bool, witnessOK bool, bits int64, err error) {
	nu, matching, err := solver.MaxMatching(g)
	if err != nil {
		return false, false, 0, err
	}
	cut := int64(len(g.CutEdges(side)))
	bits = (cut + 1) * logN(g.N()) * 2
	if nu >= k {
		return true, solver.IsMatching(g, matching) && len(matching) >= k, bits, nil
	}
	// Find a Tutte-Berge certificate by searching small U sets (the
	// formula guarantees one exists; instances here are small).
	n := g.N()
	for size := 0; size <= n && size <= 12; size++ {
		if u, ok := findTutteBerge(g, size, nu); ok {
			return false, solver.VerifyMatchingUpperBoundWitness(g, u, nu), bits, nil
		}
	}
	return false, false, bits, fmt.Errorf("no Tutte-Berge certificate found")
}

func findTutteBerge(g *graph.Graph, size, nu int) ([]int, bool) {
	n := g.N()
	u := make([]int, size)
	var rec func(start, idx int) bool
	rec = func(start, idx int) bool {
		if idx == size {
			return solver.VerifyMatchingUpperBoundWitness(g, u, nu)
		}
		for v := start; v < n; v++ {
			u[idx] = v
			if rec(v+1, idx+1) {
				return true
			}
		}
		return false
	}
	if rec(0, 0) {
		return append([]int(nil), u...), true
	}
	return nil, false
}
