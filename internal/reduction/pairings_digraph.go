package reduction

import (
	"congesthard/internal/algorithms"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

// This file wires concrete algorithm/family pairings for CertifyDigraph:
// the exact collect-and-solve upper bound on the directed Hamiltonian path
// (Theorem 2.2) and directed Steiner (Theorem 4.7) families, and a greedy
// path-walking heuristic that CertifyDigraph flags as not deciding the
// predicate.

// digraphEval is the directed collect program's root evaluation.
type digraphEval = func(collected *graph.Digraph) (int64, error)

// diCollectAlgorithm runs the metered directed gossip collect program on
// pooled workspaces, like collectPairing.algorithm: newEval creates the
// root eval of one workspace, computing a component-additive quantity at
// each weak-component root, and answer turns the summed total into the
// predicate decision. The factory must not run after its decide.
func diCollectAlgorithm(name string, exact bool, newEval func() digraphEval, answer func(total int64) bool) DigraphAlgorithm {
	pool := &workspacePool[digraphEval]{newEval: newEval}
	return DigraphAlgorithm{
		Name:  name,
		Exact: exact,
		Prepare: func(d *graph.Digraph, bandwidth int, seed int64) (dicongest.Factory, func(*dicongest.Result) (bool, error), error) {
			w := pool.get()
			factory, _, err := algorithms.DiCollectFactory(d, bandwidth, algorithms.DiCollectSpec{Eval: w.eval, Workspace: w.ws})
			if err != nil {
				pool.release(&w)
				return nil, nil, err
			}
			return factory, func(res *dicongest.Result) (bool, error) {
				pool.release(&w)
				total, err := algorithms.CollectTotal(res)
				if err != nil {
					return false, err
				}
				return answer(total), nil
			}, nil
		},
	}
}

// CollectHamPath decides the Theorem 2.2 predicate exactly: collect the
// whole digraph and run the exact Hamiltonian path solver at the root. A
// Hamiltonian path needs every vertex in one weak component, so a
// component smaller than the instance contributes 0 and the summed total
// stays 0 — disconnected instances certify exactly. CertifyDigraph
// reports zero mismatches.
func CollectHamPath(fam *hamlb.Family) DigraphAlgorithm {
	n, start, end := fam.N(), fam.Start(), fam.End()
	return diCollectAlgorithm("collect", true,
		func() digraphEval {
			var o solver.HamiltonOracle
			return func(component *graph.Digraph) (int64, error) {
				if component.N() != n {
					return 0, nil
				}
				found, err := o.HasDirectedHamiltonianPathFrom(component, start, end)
				if err != nil || !found {
					return 0, err
				}
				return 1, nil
			}
		},
		func(total int64) bool { return total >= 1 })
}

// GreedyHamPath collects the digraph and answers with a greedy walk from
// start: always step to the smallest-id unvisited out-neighbor, answer
// "yes" iff the walk covers every vertex and halts at end. A found path is
// a real Hamiltonian path, so mistakes are one-sided "no"s on
// yes-instances — the heuristic pairing CertifyDigraph flags as not
// deciding P.
func GreedyHamPath(fam *hamlb.Family) DigraphAlgorithm {
	n, start, end := fam.N(), fam.Start(), fam.End()
	return diCollectAlgorithm("greedy-path", false,
		shared(func(component *graph.Digraph) (int64, error) {
			if component.N() != n {
				return 0, nil
			}
			if greedyDirectedPathCovers(component, start, end) {
				return 1, nil
			}
			return 0, nil
		}),
		func(total int64) bool { return total >= 1 })
}

// greedyDirectedPathCovers walks from start, always moving to the
// smallest-id unvisited out-neighbor, and reports whether the walk visits
// every vertex and ends at end.
func greedyDirectedPathCovers(d *graph.Digraph, start, end int) bool {
	n := d.N()
	if start < 0 || start >= n {
		return false
	}
	visited := make([]bool, n)
	visited[start] = true
	cur := start
	for count := 1; count < n; count++ {
		next := -1
		for _, h := range d.OutNeighbors(cur) {
			if !visited[h.To] && (next < 0 || h.To < next) {
				next = h.To
			}
		}
		if next < 0 {
			return false
		}
		visited[next] = true
		cur = next
	}
	return cur == end
}

// CollectDirSteiner decides the Theorem 4.7 predicate exactly: collect
// the whole digraph (arc weights travel in the frames' weight chunks) and
// decide at the root whether a directed Steiner tree of weight at most 2
// rooted at R spans all terminals.
func CollectDirSteiner(fam *kmdslb.DirSteinerFamily) DigraphAlgorithm {
	n, root := fam.Inner.N(), fam.Inner.Root()
	terminals := fam.Terminals()
	return diCollectAlgorithm("collect", true,
		func() digraphEval {
			var o solver.DirSteinerOracle
			return func(component *graph.Digraph) (int64, error) {
				if component.N() != n {
					return 0, nil
				}
				ok, err := o.HasDirectedSteinerWithin(component, root, terminals, 2)
				if err != nil || !ok {
					return 0, err
				}
				return 1, nil
			}
		},
		func(total int64) bool { return total >= 1 })
}
