package steinerlb

import (
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

var (
	_ lbfamily.DeltaFamily  = (*Family)(nil)
	_ lbfamily.OracleFamily = (*Family)(nil)
)

// NewPredicateOracle returns a per-worker arena-backed evaluator of the
// Theorem 2.7 predicate (Steiner tree with at most 4k + 16·log k + 1
// edges), with the terminal list computed once instead of per pair.
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle {
	return &predicateOracle{terminals: f.Terminals(), target: f.TargetEdges()}
}

type predicateOracle struct {
	o         solver.SteinerOracle
	terminals []int
	target    int
}

func (p *predicateOracle) Eval(g *graph.Graph) (bool, error) {
	return p.o.HasSteinerTreeWithEdges(g, p.terminals, p.target)
}
