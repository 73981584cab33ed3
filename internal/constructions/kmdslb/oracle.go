package kmdslb

import (
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

var (
	_ lbfamily.DeltaFamily         = (*TwoMDSFamily)(nil)
	_ lbfamily.OracleFamily        = (*TwoMDSFamily)(nil)
	_ lbfamily.DeltaFamily         = (*KMDSFamily)(nil)
	_ lbfamily.OracleFamily        = (*KMDSFamily)(nil)
	_ lbfamily.DeltaFamily         = (*NodeSteinerFamily)(nil)
	_ lbfamily.DeltaDigraphFamily  = (*DirSteinerFamily)(nil)
	_ lbfamily.DigraphOracleFamily = (*DirSteinerFamily)(nil)
)

// NewPredicateOracle returns a per-worker arena-backed evaluator of the
// Theorem 4.4 predicate (2-dominating set of weight at most 2).
func (f *TwoMDSFamily) NewPredicateOracle() lbfamily.PredicateOracle {
	return &powerMDSOracle{dist: 2, budget: 2}
}

// NewPredicateOracle returns a per-worker arena-backed evaluator of the
// Theorem 4.5 predicate (k-dominating set of weight at most 2).
func (f *KMDSFamily) NewPredicateOracle() lbfamily.PredicateOracle {
	return &powerMDSOracle{dist: f.Dist, budget: 2}
}

// powerMDSOracle evaluates "k-dominating set of weight at most budget" on
// graphs whose edge set is fixed across calls (the kmdslb contract —
// inputs drive vertex weights only, which Verify's conditions 2-3 check
// independently): the k-th power graph is built once and reused with
// refreshed vertex weights, and the capped MDS search runs in a reusable
// arena, so steady-state evaluation allocates nothing. The oracle keeps a
// copy of the adjacency lists the power graph was built from and compares
// every graph against it, so any edge change, on the same graph object or
// another, rebuilds the power graph.
type powerMDSOracle struct {
	dist   int
	budget int64

	// The power graph's source: vertex v's neighbours are to[off[v]:off[v+1]].
	off, to []int
	power   *graph.Graph
	o       solver.MDSOracle
}

func (p *powerMDSOracle) Eval(g *graph.Graph) (bool, error) {
	if p.power == nil || !p.sameEdges(g) {
		p.power = g.Power(p.dist)
		p.keepEdges(g)
	} else {
		for v := 0; v < g.N(); v++ {
			if err := p.power.SetVertexWeight(v, g.VertexWeight(v)); err != nil {
				return false, err
			}
		}
	}
	return p.o.HasDominatingSetOfWeight(p.power, p.budget)
}

// sameEdges reports whether g's adjacency lists equal the kept copy, in
// O(n + m).
func (p *powerMDSOracle) sameEdges(g *graph.Graph) bool {
	n := g.N()
	if len(p.off) != n+1 {
		return false
	}
	for v := 0; v < n; v++ {
		kept := p.to[p.off[v]:p.off[v+1]]
		nbrs := g.Neighbors(v)
		if len(nbrs) != len(kept) {
			return false
		}
		for i, h := range nbrs {
			if h.To != kept[i] {
				return false
			}
		}
	}
	return true
}

// keepEdges copies g's adjacency lists, reusing the copy's storage.
func (p *powerMDSOracle) keepEdges(g *graph.Graph) {
	n := g.N()
	p.off, p.to = append(p.off[:0], 0), p.to[:0]
	for v := 0; v < n; v++ {
		for _, h := range g.Neighbors(v) {
			p.to = append(p.to, h.To)
		}
		p.off = append(p.off, len(p.to))
	}
}

// NewDigraphPredicateOracle returns a per-worker arena-backed evaluator of
// the Theorem 4.7 predicate (directed Steiner tree of weight at most 2
// rooted at R spanning all terminals).
func (f *DirSteinerFamily) NewDigraphPredicateOracle() lbfamily.DigraphPredicateOracle {
	return &dirSteinerPredOracle{root: f.Inner.Root(), terminals: f.Terminals()}
}

type dirSteinerPredOracle struct {
	o         solver.DirSteinerOracle
	root      int
	terminals []int
}

func (p *dirSteinerPredOracle) Eval(d *graph.Digraph) (bool, error) {
	return p.o.HasDirectedSteinerWithin(d, p.root, p.terminals, 2)
}
