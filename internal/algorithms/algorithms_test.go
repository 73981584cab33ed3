package algorithms

import (
	"math/rand"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

func TestCollectAndSolveExactMDS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(10, 0.4, rng)
		if !g.IsConnected() {
			continue
		}
		res, err := CollectAndSolve(g, func(gg *graph.Graph) (interface{}, error) {
			w, _, err := solver.MinDominatingSet(gg)
			return w, err
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := solver.MinDominatingSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Answer.(int64) != want {
			t.Fatalf("collect answer %v, want %d", res.Answer, want)
		}
		// Round cost is O(m + D): here bounded by 3*diameter + m.
		if res.Rounds > 3*g.N()+g.M() {
			t.Errorf("rounds = %d too large", res.Rounds)
		}
	}
}

func TestCollectAndSolveDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	if _, err := CollectAndSolve(g, func(*graph.Graph) (interface{}, error) { return nil, nil }); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestMaxCutApproxQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(16, 0.5, rng)
		opt, _, err := solver.MaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		if opt == 0 {
			continue
		}
		res, err := MaxCutApprox(g, 0.8, rng)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.AchievedValue) / float64(opt)
		if ratio < 0.75 {
			t.Errorf("trial %d: achieved ratio %.3f < 0.75 at p=0.8", trial, ratio)
		}
		if res.AchievedValue > opt {
			t.Error("achieved more than optimum?")
		}
	}
}

func TestMaxCutApproxSamplingEverything(t *testing.T) {
	// p = 1 must recover the exact optimum.
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(12, 0.5, rng)
	opt, _, err := solver.MaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxCutApprox(g, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedValue != opt {
		t.Errorf("p=1 achieved %d, want %d", res.AchievedValue, opt)
	}
	if _, err := MaxCutApprox(g, 0, rng); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestMaxCutApproxRoundsScaleWithSample(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Complete(20) // m = 190
	sparse, err := MaxCutApprox(g, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := MaxCutApprox(g, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Rounds >= dense.Rounds {
		t.Errorf("sampling should reduce rounds: %d vs %d", sparse.Rounds, dense.Rounds)
	}
}

func TestRandomCutHalfApprox(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Complete(12)
	total := int64(0)
	const trials = 50
	for i := 0; i < trials; i++ {
		_, w := RandomCut(g, rng)
		total += w
	}
	avg := float64(total) / trials
	expected := float64(g.M()) / 2
	if avg < 0.8*expected || avg > 1.2*expected {
		t.Errorf("random cut average %.1f far from m/2 = %.1f", avg, expected)
	}
}

func TestMaximalMatchingVC(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(14, 0.3, rng)
		res, err := congest.Run(g, MaximalMatchingVCFactory(int64(trial), 60), congest.Options{MaxRounds: 2*60 + 6})
		if err != nil {
			t.Fatal(err)
		}
		cover := MatchedVertices(res)
		if !solver.IsVertexCover(g, cover) {
			t.Fatalf("trial %d: output is not a vertex cover", trial)
		}
		opt, _, err := solver.MinVertexCoverSize(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(cover) > 2*opt {
			t.Fatalf("trial %d: cover %d exceeds 2*opt = %d", trial, len(cover), 2*opt)
		}
	}
}

func TestGreedyMDS(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(14, 0.3, rng)
		set, rounds, err := GreedyMDS(g)
		if err != nil {
			t.Fatal(err)
		}
		if !solver.IsDominatingSet(g, set) {
			t.Fatalf("trial %d: greedy not dominating", trial)
		}
		if rounds <= 0 {
			t.Error("rounds not reported")
		}
		opt, _, err := solver.MinDominatingSet(unitWeights(g))
		if err != nil {
			t.Fatal(err)
		}
		// ln(n)+1 greedy guarantee, generously checked.
		if int64(len(set)) > 4*opt {
			t.Fatalf("trial %d: greedy %d vs opt %d", trial, len(set), opt)
		}
	}
}

func unitWeights(g *graph.Graph) *graph.Graph {
	c := g.Clone()
	for v := 0; v < c.N(); v++ {
		_ = c.SetVertexWeight(v, 1)
	}
	return c
}
