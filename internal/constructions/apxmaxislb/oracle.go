package apxmaxislb

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
// Theorem 4.3 predicate (maximum IS weight >= 8ℓ+4t).
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle {
	return &predicateOracle{target: f.YesWeight()}
}

type predicateOracle struct {
	o      solver.MaxISOracle
	target int64
}

func (p *predicateOracle) Eval(g *graph.Graph) (bool, error) {
	return p.o.HasWeightAtLeast(g, p.target, false)
}
