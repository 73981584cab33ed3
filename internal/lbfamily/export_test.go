package lbfamily

import (
	"context"
	"errors"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
)

// OutcomeForTest is the exported projection of a pairOutcome, so external
// differential tests can compare the delta and rebuild phase-1 paths
// pair for pair.
type OutcomeForTest struct {
	N                     int
	CutHash, AHash, BHash uint64
	Got                   bool
	BuildErr, PredErr     error
}

// collectForTest runs verification phase 1 over xs × ys — in
// delta-with-fallback mode (rebuild = false) or forced rebuild mode —
// and returns the row-major outcomes plus whether the delta path
// produced them. The sweep's earliest build error or panic lands in
// its pair's BuildErr.
func collectForTest[G Instance[G]](fam family[G], kd kind[G], xs, ys []comm.Bits, rebuild bool) ([]OutcomeForTest, bool, error) {
	side, err := AliceSideOf(fam)
	if err != nil {
		return nil, false, err
	}
	outcomes, res, delta := verifyPairs(context.Background(), fam, kd, side, xs, ys, rebuild)
	views := make([]OutcomeForTest, len(outcomes))
	for i, o := range outcomes {
		views[i] = OutcomeForTest{
			N: o.n, CutHash: o.h.cut, AHash: o.h.a, BHash: o.h.b,
			Got: o.got, PredErr: o.predErr,
		}
		if i == res.First && !errors.Is(res.Err, errPairFailed) {
			views[i].BuildErr = res.Err
		}
	}
	return views, delta, nil
}

// CollectOutcomesForTest is collectForTest for undirected families.
func CollectOutcomesForTest(fam Family, xs, ys []comm.Bits, forceRebuild bool) ([]OutcomeForTest, bool, error) {
	return collectForTest[*graph.Graph](fam, edgeKind, xs, ys, forceRebuild)
}

// CollectDigraphOutcomesForTest is collectForTest for directed families.
func CollectDigraphOutcomesForTest(fam DigraphFamily, xs, ys []comm.Bits, forceRebuild bool) ([]OutcomeForTest, bool, error) {
	return collectForTest[*graph.Digraph](fam, arcKind, xs, ys, forceRebuild)
}

// VerifyRebuild is Verify with the delta path disabled; differential tests
// compare its first error byte for byte against the delta path's.
func VerifyRebuild(fam Family) error {
	inputs, err := exhaustiveInputs(fam.K(), "VerifySampled")
	if err != nil {
		return err
	}
	return verify(context.Background(), fam, edgeKind, inputs, inputs, true)
}

// VerifyDigraphRebuild is VerifyRebuild for directed families.
func VerifyDigraphRebuild(fam DigraphFamily) error {
	inputs, err := exhaustiveInputs(fam.K(), "VerifySampledDigraph")
	if err != nil {
		return err
	}
	return verify(context.Background(), fam, arcKind, inputs, inputs, true)
}
