package mdslb

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
// Theorem 2.1 predicate (dominating set of size 4·log k + 2).
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle {
	return &predicateOracle{target: f.TargetSize()}
}

type predicateOracle struct {
	o      solver.MDSOracle
	target int
}

func (p *predicateOracle) Eval(g *graph.Graph) (bool, error) {
	return p.o.HasDominatingSetOfSize(g, p.target)
}
