package maxcutlb

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
// Theorem 2.8 predicate (cut of weight at least M), on MaxCutOracle's
// branch-and-bound decision mode.
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle {
	return &predicateOracle{target: f.Target()}
}

type predicateOracle struct {
	o      solver.MaxCutOracle
	target int64
}

func (p *predicateOracle) Eval(g *graph.Graph) (bool, error) {
	return p.o.HasCutOfWeight(g, p.target)
}
