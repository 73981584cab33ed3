package mvclb

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
// predicate τ(G) <= M, i.e. α(G) >= Z.
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle {
	return &predicateOracle{target: f.CoverTarget()}
}

type predicateOracle struct {
	o      solver.MaxISOracle
	target int
}

func (p *predicateOracle) Eval(g *graph.Graph) (bool, error) {
	return p.o.HasWeightAtLeast(g, int64(g.N()-p.target), true) // α(G) >= n - M
}
