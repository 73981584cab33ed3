package reduction

import (
	"fmt"
	"math"
	"sync"

	"congesthard/internal/algorithms"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

// This file wires concrete algorithm/family pairings for Certify: the
// exact collect-and-solve upper bound on the MDS family, two classic
// approximation baselines that Certify flags as not deciding the predicate
// (greedy dominating set, maximal-matching vertex cover), and the
// Theorem 2.9-style sampling estimator on the weighted max-cut family.

// workspacePool is a mutex-guarded free list of collect workspaces for
// one algorithm value, each with the root eval it was created with: a
// per-workspace eval owns its oracle's scratch, so two pairs running at
// once never share one. A sweep holds at most one workspace per worker,
// so the list grows to the sweep's concurrency and no further.
type workspacePool[E any] struct {
	newEval func() E

	mu   sync.Mutex
	free []pooledWorkspace[E]
}

// pooledWorkspace is a workspace and the root eval bound to it.
type pooledWorkspace[E any] struct {
	ws   *algorithms.Workspace
	eval E
}

// get pops a free workspace, or creates one with a fresh eval.
func (p *workspacePool[E]) get() pooledWorkspace[E] {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		w := p.free[k-1]
		p.free = p.free[:k-1]
		p.mu.Unlock()
		return w
	}
	p.mu.Unlock()
	return pooledWorkspace[E]{ws: new(algorithms.Workspace), eval: p.newEval()}
}

// release hands a pair's workspace back to the pool the first time it is
// called for that pair, and does nothing after that.
func (p *workspacePool[E]) release(w *pooledWorkspace[E]) {
	if w.ws == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, *w)
	p.mu.Unlock()
	w.ws = nil
}

// graphEval is an undirected collect program's root evaluation.
type graphEval = func(collected *graph.Graph) (int64, error)

// shared is the eval constructor of a stateless eval: every workspace
// gets the same function.
func shared[E any](eval E) func() E { return func() E { return eval } }

// collectPairing describes a pooled collect algorithm.
type collectPairing struct {
	name  string
	exact bool
	// program builds the collect program: algorithms.CollectFactory or
	// algorithms.CollectRetryFactory.
	program func(g *graph.Graph, bandwidth int, spec algorithms.CollectSpec) (congest.Factory, int, error)
	// newEval creates the root eval of one workspace; it computes a
	// component-additive quantity at each component root (the domination
	// number, a greedy set size) or, under a keep filter, a value of the
	// whole collection.
	newEval func() graphEval
	// keep, if non-nil, builds the pair's Keep filter from its instance
	// and seed.
	keep func(g *graph.Graph, seed int64) func(u, v int, w int64) bool
	// answer turns the summed root total into the predicate decision.
	answer func(total int64) bool
}

// algorithm returns the pairing as an Algorithm whose pairs run on pooled
// workspaces: Prepare takes a workspace from the pool for the pair's
// factory and the pair's decide puts it back, so a warm sweep worker's
// pairs allocate no collect node state. The factory must not run after
// its decide, which has handed its memory to the next pair; a pair whose
// run fails before decide simply drops its workspace.
func (p collectPairing) algorithm() Algorithm {
	pool := &workspacePool[graphEval]{newEval: p.newEval}
	return Algorithm{
		Name:  p.name,
		Exact: p.exact,
		Prepare: func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
			w := pool.get()
			spec := algorithms.CollectSpec{Eval: w.eval, Workspace: w.ws}
			if p.keep != nil {
				spec.Keep = p.keep(g, seed)
			}
			factory, _, err := p.program(g, bandwidth, spec)
			if err != nil {
				pool.release(&w)
				return nil, nil, err
			}
			return factory, func(res *congest.Result) (bool, error) {
				pool.release(&w)
				total, err := algorithms.CollectTotal(res)
				if err != nil {
					return false, err
				}
				return p.answer(total), nil
			}, nil
		},
	}
}

// dominationNumber returns a root eval computing γ(g) exactly via the
// solver's decision oracle. Each eval owns one arena-backed MDSOracle,
// which serves all n+1 size queries of every evaluation it runs, so a
// warm workspace's search allocates no solver scratch — the eval runs
// inside every certified pair's collect program, so this is certify-sweep
// hot.
func dominationNumber() graphEval {
	var o solver.MDSOracle
	return func(g *graph.Graph) (int64, error) {
		for s := 0; s <= g.N(); s++ {
			ok, err := o.HasDominatingSetOfSize(g, s)
			if err != nil {
				return 0, err
			}
			if ok {
				return int64(s), nil
			}
		}
		return 0, fmt.Errorf("no dominating set up to n=%d", g.N())
	}
}

// CollectMDS decides the Theorem 2.1 predicate exactly by collecting the
// whole graph and solving minimum dominating set at each component root
// (γ is component-additive): the O(m + D) upper bound the Ω̃(n²) lower
// bound nearly matches. Certify reports zero mismatches.
func CollectMDS(fam *mdslb.Family) Algorithm {
	return collectPairing{
		name: "collect", exact: true,
		program: algorithms.CollectFactory,
		newEval: dominationNumber,
		answer:  func(total int64) bool { return total <= int64(fam.TargetSize()) },
	}.algorithm()
}

// CollectRetryMDS decides the same predicate as CollectMDS over the
// retransmitting collect variant, so the decision stays exact under
// bounded message-drop and delay fault plans: every per-neighbor chunk
// stream runs a stop-and-wait ARQ and re-sends until acknowledged.
// Callers must raise Config.Bandwidth to at least
// algorithms.CollectRetryMinBandwidth(n) (three header bits ride on
// every frame) and Config.MaxRounds to algorithms.CollectRetryRoundsCap(n)
// — the retry budget exceeds the simulator's default guard on small
// graphs.
func CollectRetryMDS(fam *mdslb.Family) Algorithm {
	return collectPairing{
		name: "collect-retry", exact: true,
		program: algorithms.CollectRetryFactory,
		newEval: dominationNumber,
		answer:  func(total int64) bool { return total <= int64(fam.TargetSize()) },
	}.algorithm()
}

// GreedyMDS collects the graph and answers with the sequential greedy
// O(log Δ)-approximation: "yes" iff the summed greedy set size meets the
// target. The greedy set can exceed γ(G) on yes-instances, so Certify
// flags the pairs where the approximation misdecides the exact predicate —
// the gap the paper's Section 2.1 hardness separates.
func GreedyMDS(fam *mdslb.Family) Algorithm {
	return collectPairing{
		name: "greedy", exact: false,
		program: algorithms.CollectFactory,
		newEval: shared(func(component *graph.Graph) (int64, error) {
			set, _, err := algorithms.GreedyMDS(component)
			if err != nil {
				return 0, err
			}
			return int64(len(set)), nil
		}),
		answer: func(total int64) bool { return total <= int64(fam.TargetSize()) },
	}.algorithm()
}

// MatchingMVC answers the MVC family predicate with the distributed
// maximal-matching 2-approximate vertex cover: "yes" iff the matched
// vertices number at most the cover target M. The cover is only a
// 2-approximation, so yes-instances (τ = M) are routinely misdecided —
// Certify flags them.
func MatchingMVC(fam *mvclb.Family) Algorithm {
	return Algorithm{
		Name:  "matching",
		Exact: false,
		Prepare: func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
			factory := algorithms.MaximalMatchingVCFactory(seed, g.N()+4)
			return factory, func(res *congest.Result) (bool, error) {
				return len(algorithms.MatchedVertices(res)) <= fam.CoverTarget(), nil
			}, nil
		},
	}
}

// SampledMaxCut runs the Theorem 2.9-style estimator on the weighted
// max-cut family: sample each edge with probability p by shared
// randomness, collect only the sampled edges at the root (messages still
// travel over every edge), solve max-cut on the sample and compare the
// scaled optimum against the target M — i.e. decide whether the sample has
// a cut of weight >= p·M. Sampling noise misdecides near-threshold
// instances, which Certify flags; p = 1 recovers an exact (slow) decision.
func SampledMaxCut(fam *maxcutlb.Family, p float64) (Algorithm, error) {
	if p <= 0 || p > 1 {
		return Algorithm{}, fmt.Errorf("sampling probability %v out of (0,1]", p)
	}
	threshold := int64(math.Ceil(p * float64(fam.Target())))
	return collectPairing{
		name:    fmt.Sprintf("sampled-maxcut(p=%.2f)", p),
		exact:   p == 1,
		program: algorithms.CollectFactory,
		newEval: shared(func(collected *graph.Graph) (int64, error) {
			ok, err := solver.HasCutOfWeight(collected, threshold)
			if err != nil || !ok {
				return 0, err
			}
			return 1, nil
		}),
		keep: func(g *graph.Graph, seed int64) func(u, v int, w int64) bool {
			return func(u, v int, w int64) bool {
				if p == 1 {
					return true
				}
				// Shared-randomness coin: both endpoints evaluate the
				// same splitmix64 of (seed, edge id).
				coin := splitmix64(uint64(seed) ^ splitmix64(uint64(u)*uint64(g.N())+uint64(v)))
				return coin < uint64(p*float64(math.MaxUint64))
			}
		},
		answer: func(total int64) bool { return total >= 1 },
	}.algorithm(), nil
}
