package boundedlb

import (
	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

var (
	_ lbfamily.Family       = (*Family)(nil)
	_ lbfamily.DeltaFamily  = (*Family)(nil)
	_ lbfamily.OracleFamily = (*Family)(nil)
)

// Family implements lbfamily.Family by delegating to its mvclb base. The
// pipeline's derived graphs G'_{x,y} vary in vertex count with the inputs,
// so Definition 1.1 does not apply to them verbatim — the Section 3 result
// is proved by the direct two-party simulation of Claim 3.6 on top of the
// base family's hardness. Exhaustive verification of a boundedlb family
// therefore targets the base G_{x,y} (exactly what experiment E8 checks
// before applying the pipeline); the delegation below, with the delta
// derived from it, makes that verification delta-driven and oracle-backed
// like every other Section 2-4 construction.

// Name returns "bounded-maxis".
func (f *Family) Name() string { return "bounded-maxis" }

// K returns the base family's input length k².
func (f *Family) K() int { return f.Base.K() }

// Func returns ¬DISJ.
func (f *Family) Func() comm.Function { return f.Base.Func() }

// Build constructs the base instance G_{x,y} (use BuildInstance for the
// derived bounded-degree G'_{x,y}).
func (f *Family) Build(x, y comm.Bits) (*graph.Graph, error) { return f.Base.Build(x, y) }

// AliceSide returns the base partition.
func (f *Family) AliceSide() []bool { return f.Base.AliceSide() }

// Predicate decides the base predicate τ(G) <= M; Corollary 3.1 transfers
// the answer to the derived instance via α(G') = α(G) + AlphaShift.
func (f *Family) Predicate(g *graph.Graph) (bool, error) { return f.Base.Predicate(g) }

// NewPredicateOracle returns the base family's arena-backed evaluator.
func (f *Family) NewPredicateOracle() lbfamily.PredicateOracle {
	return f.Base.NewPredicateOracle()
}
