package limits

import (
	"math/rand"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

func randomSide(n int, rng *rand.Rand) []bool {
	side := make([]bool, n)
	for v := range side {
		side[v] = rng.Intn(2) == 1
	}
	return side
}

func TestTwoApproxMDSOnFamily(t *testing.T) {
	// Run the Claim 5.8 protocol on the actual MDS lower-bound family —
	// the point of Section 5.1: the framework cannot push past factor 2.
	fam, _ := mdslb.New(2)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		x := comm.RandomBits(4, rng)
		y := comm.RandomBits(4, rng)
		g, err := fam.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		res, err := TwoApproxMDS(g, fam.AliceSide())
		if err != nil {
			t.Fatal(err)
		}
		if res.Ratio > 2 {
			t.Fatalf("ratio %v > 2", res.Ratio)
		}
		// Cost must be cut-bound, not graph-bound.
		if res.Bits > int64(g.M())*10 {
			t.Error("protocol cost not cut-bound")
		}
	}
}

func TestTwoApproxMDSRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(10, 0.3, rng)
		res, err := TwoApproxMDS(g, randomSide(10, rng))
		if err != nil {
			t.Fatal(err)
		}
		if res.Value < res.Optimal {
			t.Fatal("protocol beat the optimum?")
		}
	}
}

func TestHalfApproxMaxIS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(12, 0.3, rng)
		res, err := HalfApproxMaxIS(g, randomSide(12, rng))
		if err != nil {
			t.Fatal(err)
		}
		if res.Value > res.Optimal {
			t.Fatal("protocol beat the optimum?")
		}
		if res.Bits > 100 {
			t.Error("half-approx should cost O(log n) bits")
		}
	}
}

func TestMVC32(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(12, 0.3, rng)
		res, err := MVC32(g, randomSide(12, rng))
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimal > 0 && res.Ratio > 1.5 {
			t.Fatalf("trial %d: ratio %v > 1.5", trial, res.Ratio)
		}
	}
}

func TestWeightedMaxCut23OnFamily(t *testing.T) {
	fam, _ := maxcutlb.New(2)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		x := comm.RandomBits(4, rng)
		y := comm.RandomBits(4, rng)
		g, err := fam.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		res, err := WeightedMaxCut23(g, fam.AliceSide())
		if err != nil {
			t.Fatal(err)
		}
		if res.Ratio < 2.0/3 {
			t.Fatalf("ratio %v below 2/3", res.Ratio)
		}
	}
}

func TestWeightedMaxCut23Random(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		g := graph.GnpWeighted(12, 0.4, 9, rng)
		res, err := WeightedMaxCut23(g, randomSide(12, rng))
		if err != nil {
			t.Fatal(err)
		}
		if res.Value > res.Optimal {
			t.Fatal("beat optimum")
		}
	}
}

func TestBoundedDegreeEps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		// Bounded-degree graph: random 3-regular.
		g, err := graph.RandomRegular(12, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		side := randomSide(12, rng)
		for _, problem := range []BoundedProblem{ProblemMVC, ProblemMDS, ProblemMaxIS} {
			res, err := BoundedDegreeEps(g, side, 0.5, problem)
			if err != nil {
				t.Fatalf("problem %d: %v", problem, err)
			}
			if res.Bits <= 0 {
				t.Error("no cost reported")
			}
		}
	}
	if _, err := BoundedDegreeEps(graph.Path(4), []bool{true, true, false, false}, 1.5, ProblemMVC); err == nil {
		t.Error("eps out of range accepted")
	}
}

func TestFlowWitnessProtocols(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		d := graph.RandomDigraph(8, 0.35, rng)
		for _, a := range d.Arcs() {
			// Re-weight arcs to random capacities.
			_ = a
		}
		s, tt := 0, 7
		value, _, err := solver.MaxFlow(d, s, tt)
		if err != nil {
			t.Fatal(err)
		}
		side := randomSide(8, rng)
		if value >= 1 {
			w, ok, err := ProveFlowAtLeast(d, s, tt, value)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("prover failed at true value")
			}
			accept, bits, err := VerifyFlowAtLeast(d, s, tt, value, w, side)
			if err != nil {
				t.Fatal(err)
			}
			if !accept {
				t.Fatal("valid flow witness rejected")
			}
			if bits <= 0 {
				t.Error("no cost")
			}
			// Soundness: same witness must fail for k = value+1.
			accept, _, err = VerifyFlowAtLeast(d, s, tt, value+1, w, side)
			if err != nil {
				t.Fatal(err)
			}
			if accept {
				t.Fatal("witness accepted above the max flow")
			}
		}
		// Cut witness for k = value+1.
		cut, ok, err := ProveFlowLessThan(d, s, tt, value+1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("cut prover failed")
		}
		accept, _, err := VerifyFlowLessThan(d, s, tt, value+1, cut, side)
		if err != nil {
			t.Fatal(err)
		}
		if !accept {
			t.Fatal("valid cut witness rejected")
		}
		// Soundness: cut witness cannot prove MF < value.
		accept, _, err = VerifyFlowLessThan(d, s, tt, value, cut, side)
		if err != nil {
			t.Fatal(err)
		}
		if accept {
			t.Fatal("cut witness accepted below the max flow")
		}
	}
}

func TestProveFlowAtLeastRefusesTooMuch(t *testing.T) {
	d := graph.NewDigraph(2)
	d.MustAddWeightedArc(0, 1, 3)
	_, ok, err := ProveFlowAtLeast(d, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("prover claimed flow above capacity")
	}
}

func TestMatchingWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(9, 0.3, rng)
		nu, _, err := solver.MaxMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		side := randomSide(9, rng)
		atLeast, ok, bits, err := MatchingWitnesses(g, nu, side)
		if err != nil {
			t.Fatal(err)
		}
		if !atLeast || !ok {
			t.Fatalf("nu=%d witness for k=nu failed", nu)
		}
		if bits <= 0 {
			t.Error("no cost")
		}
		atLeast, ok, _, err = MatchingWitnesses(g, nu+1, side)
		if err != nil {
			t.Fatal(err)
		}
		if atLeast {
			t.Fatal("claimed matching above nu")
		}
		if !ok {
			t.Fatal("Tutte-Berge certificate invalid")
		}
	}
}
