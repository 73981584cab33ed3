package hamlb

import (
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

var (
	_ lbfamily.DeltaDigraphFamily  = (*Family)(nil)
	_ lbfamily.DigraphOracleFamily = (*Family)(nil)
)

// NewDigraphPredicateOracle returns a per-worker arena-backed evaluator of
// the Theorem 2.2 predicate (directed Hamiltonian path, necessarily from
// start to end since start has no in-arcs and end no out-arcs).
func (f *Family) NewDigraphPredicateOracle() lbfamily.DigraphPredicateOracle {
	return &pathOracle{start: f.Start(), end: f.End()}
}

type pathOracle struct {
	o          solver.HamiltonOracle
	start, end int
}

func (p *pathOracle) Eval(d *graph.Digraph) (bool, error) {
	return p.o.HasDirectedHamiltonianPathFrom(d, p.start, p.end)
}
