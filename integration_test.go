package main_test

import (
	"math/rand"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/limits"
	"congesthard/internal/reduction"
	"congesthard/internal/solver"
)

// TestIntegrationExactAlgorithmDecidesFamilyPredicate closes the loop the
// paper's lower bounds are about: the generic O(m + D)-round
// collect-and-solve CONGEST algorithm decides the MDS family predicate
// correctly on sampled instances — demonstrating the upper bound that the
// Ω̃(n²) lower bound nearly matches.
func TestIntegrationExactAlgorithmDecidesFamilyPredicate(t *testing.T) {
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		x := comm.RandomBits(4, rng)
		y := comm.RandomBits(4, rng)
		g, err := fam.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		res, err := algorithms.CollectAndSolve(g, func(gg *graph.Graph) (interface{}, error) {
			return solver.HasDominatingSetOfSize(gg, fam.TargetSize())
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Answer.(bool); got != x.Intersects(y) {
			t.Fatalf("collect-and-solve decided %v, want %v", got, x.Intersects(y))
		}
		// The upper bound shape: O(m + D) rounds.
		if res.Rounds > 4*g.N()+g.M() {
			t.Errorf("rounds %d above the O(m + D) budget", res.Rounds)
		}
	}
}

// TestIntegrationTheoremOneOneAccounting runs a real CONGEST program over
// the max-cut family with the cut metered and checks the Theorem 1.1
// inequality that powers every lower bound in the paper:
// bits across the cut <= 2 * rounds * |E_cut| * B.
func TestIntegrationTheoremOneOneAccounting(t *testing.T) {
	fam, err := maxcutlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	x := comm.NewBits(4)
	x.Set(2, true)
	const budget = 9
	factory := func(local congest.Local) congest.Node {
		best := int64(local.ID)
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				for _, m := range inbox {
					if m.Payload < best {
						best = m.Payload
					}
				}
				if round >= budget {
					return nil, true
				}
				var out []congest.Message
				for port := range local.Neighbors {
					out = append(out, congest.Message{Port: port, Payload: best})
				}
				return out, false
			},
			OutputFunc: func() interface{} { return best },
		}
	}
	res, err := lbfamily.SimulateTwoParty(fam, x, x, factory)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := lbfamily.MeasureStats(fam)
	if err != nil {
		t.Fatal(err)
	}
	budgetBits := int64(2*res.Rounds*stats.CutSize) * int64(res.BandwidthBits)
	if res.CutBits > budgetBits {
		t.Fatalf("cut bits %d exceed Theorem 1.1 budget %d", res.CutBits, budgetBits)
	}
	if res.CutBits == 0 {
		t.Fatal("no cut traffic metered")
	}
	// The flooding program must still be correct: everyone learns id 0.
	for v, out := range res.Outputs {
		if out.(int64) != 0 {
			t.Fatalf("vertex %d output %v", v, out)
		}
	}
}

// TestIntegrationLowerAndUpperBoundsBracket demonstrates the paper's
// overall landscape on one family: the implied round lower bound is below
// the collect-everything upper bound (they bracket the true complexity),
// and the Section 5 protocol sits far below both for the approximate
// problem.
func TestIntegrationLowerAndUpperBoundsBracket(t *testing.T) {
	fam, err := mdslb.New(4)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := lbfamily.MeasureStats(fam)
	if err != nil {
		t.Fatal(err)
	}
	lower, err := lbfamily.ImpliedLowerBound(stats, fam.Func())
	if err != nil {
		t.Fatal(err)
	}
	upper := float64(stats.M + 3*stats.N) // collect-and-solve round budget
	if !(lower < upper) {
		t.Fatalf("implied lower bound %v not below upper bound %v", lower, upper)
	}
	x := comm.NewBits(fam.K())
	x.Set(7, true)
	g, err := fam.Build(x, x)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := limits.TwoApproxMDS(g, fam.AliceSide())
	if err != nil {
		t.Fatal(err)
	}
	// The approximation protocol's bit cost corresponds to O(1) rounds of
	// cut traffic — far below the exact problem's quadratic demands.
	perRound := int64(2*stats.CutSize) * int64(congest.DefaultBandwidth(stats.N))
	if proto.Bits > 8*perRound {
		t.Errorf("2-approx protocol cost %d bits is not O(1) rounds worth (%d/round)", proto.Bits, perRound)
	}
}

// TestIntegrationCertifyPipeline composes all three prior layers — the
// zero-alloc simulator with its cut meter, the delta-driven family
// builders, and the solver oracles — into the reduction engine: Certify
// runs a real CONGEST algorithm over family input pairs, meters the
// two-party cut traffic, spot-checks the Theorem 1.1 simulation invariant
// by transcript replay, and flags approximate baselines that do not
// decide the predicate.
func TestIntegrationCertifyPipeline(t *testing.T) {
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := reduction.Certify(fam, reduction.CollectMDS(fam), reduction.Config{
		Seed: 1, Pairs: 10, TranscriptChecks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Errorf("exact collect misdecided %d/%d pairs", rep.Mismatches, len(rep.Pairs))
	}
	for _, p := range rep.Pairs {
		if p.CutBits > 2*int64(p.Rounds)*int64(rep.Bandwidth)*int64(rep.Stats.CutSize) {
			t.Errorf("pair (%s,%s) exceeds the Theorem 1.1 bound", p.X, p.Y)
		}
	}
	mvc, err := mvclb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := reduction.Certify(mvc, reduction.MatchingMVC(mvc), reduction.Config{Seed: 1, Pairs: 12})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Mismatches == 0 {
		t.Error("2-approximate matching cover decided every pair — the baseline gap vanished")
	}
}
