package lbfamily

import (
	"context"
	"math/rand"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
)

// DeltaDigraphFamily is the directed analogue of DeltaFamily: G_{x,y} is a
// fixed arc skeleton (BuildBase, the all-zeros instance) plus a bounded
// set of arcs attached to each input bit, so the sweeps can walk the
// 2^(2K) input pairs in Gray-code order and update one mutable instance
// digraph in O(delta) per pair. The in-repo directed families get both
// methods by embedding a Delta, which derives them from Build.
//
// Contract: ApplyBit(d, player, bit, val) transforms the instance of an
// input whose (player, bit) is !val into the instance where it is val,
// mutating arcs only (no vertex additions or weight changes) and only
// through ToggleArc, so the digraph's arc-mutation journal captures the
// delta; it rejects a player other than PlayerX and PlayerY and a bit
// outside [0,K). VerifyDigraph and CertifyDigraph trust the surface only
// after the consistency gate (GatedDelta) has matched it against Build,
// and rebuild every pair otherwise. Exhaustive pair-for-pair agreement of
// the two paths is asserted by the package's differential tests for the
// in-repo directed families.
type DeltaDigraphFamily interface {
	DigraphFamily
	// BuildBase constructs the all-zeros instance G_{0,0}.
	BuildBase() (*graph.Digraph, error)
	// ApplyBit applies the change of one input bit to val.
	ApplyBit(d *graph.Digraph, player, bit int, val bool) error
}

// DigraphPredicateOracle is the directed analogue of PredicateOracle: a
// reusable predicate evaluator a verification worker holds across many
// pairs so predicate evaluation stops paying per-call allocation.
type DigraphPredicateOracle interface {
	Eval(d *graph.Digraph) (bool, error)
}

// DigraphOracleFamily is implemented by directed families whose predicate
// can be evaluated through a reusable per-worker oracle. The oracle's
// verdicts (and errors) must match Predicate exactly.
type DigraphOracleFamily interface {
	DigraphFamily
	NewDigraphPredicateOracle() DigraphPredicateOracle
}

// VerifyDigraph is Verify for directed families (exhaustive; K <= 12).
// Families implementing DeltaDigraphFamily are verified delta-driven,
// toggling only the changed bit's arcs between pairs; the checks, the
// first-error choice and its message are those of the undirected
// verifier, with "arcs" for "edges".
func VerifyDigraph(fam DigraphFamily) error { return VerifyDigraphCtx(context.Background(), fam) }

// VerifyDigraphCtx is VerifyDigraph with cancellation, like VerifyCtx.
func VerifyDigraphCtx(ctx context.Context, fam DigraphFamily) error {
	inputs, err := exhaustiveInputs(fam.K(), "VerifySampledDigraph")
	if err != nil {
		return err
	}
	return verify(ctx, fam, arcKind, inputs, inputs, false)
}

// VerifySampledDigraph checks Definition 1.1 for a directed family on up
// to trials distinct random input pairs plus the all-zeros and all-ones
// corners (random draws are deduplicated, like VerifySampled's).
// Structural conditions (1-3) are checked pairwise across the sample.
func VerifySampledDigraph(fam DigraphFamily, rng *rand.Rand, trials int) error {
	return VerifySampledDigraphCtx(context.Background(), fam, rng, trials)
}

// VerifySampledDigraphCtx is VerifySampledDigraph with cancellation, like
// VerifyDigraphCtx.
func VerifySampledDigraphCtx(ctx context.Context, fam DigraphFamily, rng *rand.Rand, trials int) error {
	inputs := sampledInputs(fam.K(), rng, trials)
	return verify(ctx, fam, arcKind, inputs, inputs, false)
}

// MeasureDigraphStats builds the all-zeros instance of a directed family
// and reports its parameters.
func MeasureDigraphStats(fam DigraphFamily) (Stats, error) {
	zero := comm.NewBits(fam.K())
	d, err := fam.Build(zero, zero)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		N:       d.N(),
		M:       d.M(),
		CutSize: len(d.CutArcs(fam.AliceSide())),
		K:       fam.K(),
	}, nil
}
