package aggregate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/solver"
)

// fold aggregates values with f, as a vertex folds its inbox.
func fold(f Func, values []int64) int64 {
	acc := f.Identity()
	for _, v := range values {
		acc = f.Combine(acc, v)
	}
	return acc
}

func TestFoldBasics(t *testing.T) {
	if fold(Max{}, []int64{3, 9, 1}) != 9 {
		t.Error("max fold wrong")
	}
	if fold(Max{}, nil) != math.MinInt64 {
		t.Error("empty max fold wrong")
	}
}

// Definition 4.1's splitting property: f(X) = φ(f(X1), f(X2)) for any
// partition of the inputs.
func TestQuickSplittingProperty(t *testing.T) {
	var fn Func = Max{}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		values := make([]int64, n)
		for i := range values {
			values[i] = rng.Int63n(1000) - 500
		}
		split := rng.Intn(n + 1)
		whole := fold(fn, values)
		parts := fn.Combine(fold(fn, values[:split]), fold(fn, values[split:]))
		return whole == parts
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("%s: %v", fn.Name(), err)
	}
}

func TestGreedyDominatingSetOnKnownGraphs(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
	}{
		{name: "path", build: func() *graph.Graph { return graph.Path(7) }},
		{name: "star", build: func() *graph.Graph { return graph.Star(6) }},
		{name: "complete", build: func() *graph.Graph { return graph.Complete(5) }},
		{name: "isolated", build: func() *graph.Graph { return graph.New(4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			res, err := Run(g, GreedyDominatingSet{})
			if err != nil {
				t.Fatal(err)
			}
			var set []int
			for v, out := range res.Outputs {
				if out == 1 {
					set = append(set, v)
				}
			}
			if !solver.IsDominatingSet(g, set) {
				t.Errorf("greedy output %v not dominating", set)
			}
		})
	}
}

func TestGreedyDominatingSetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		g := graph.Gnp(12, 0.25, rng)
		res, err := Run(g, GreedyDominatingSet{})
		if err != nil {
			t.Fatal(err)
		}
		var set []int
		for v, out := range res.Outputs {
			if out == 1 {
				set = append(set, v)
			}
		}
		if !solver.IsDominatingSet(g, set) {
			t.Fatalf("trial %d: not dominating", trial)
		}
	}
}

// TestTheorem48Simulation runs the greedy aggregate algorithm on the
// Figure 7 construction and checks the two-party bit accounting: the cost
// is O(rounds * (l + crossEdges) * log n) — crucially linear in l even
// though the shared elements have degree Θ(T).
func TestTheorem48Simulation(t *testing.T) {
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	fam, err := kmdslb.NewRestricted(kmdslb.Params{Collection: c, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := comm.NewBits(4)
	x.Set(0, true)
	g, err := fam.Build(x, x)
	if err != nil {
		t.Fatal(err)
	}
	side := make([]byte, g.N())
	alice, bob := fam.Sides()
	for _, v := range alice {
		side[v] = OwnerAlice
	}
	for _, v := range bob {
		side[v] = OwnerBob
	}
	for _, v := range fam.SharedElements() {
		side[v] = OwnerShared
	}
	const wordBits = 16
	res, err := SimulateTwoParty(g, GreedyDominatingSet{}, side, wordBits)
	if err != nil {
		t.Fatal(err)
	}
	l := int64(len(fam.SharedElements()))
	// Exclusive-to-exclusive edges: only R-a (R is Bob's, a is Alice's).
	wantPerRound := (2*l + 2*1) * wordBits
	if res.TwoPartyBits != int64(res.Rounds)*wantPerRound {
		t.Errorf("bits = %d, want rounds*%d = %d", res.TwoPartyBits, wantPerRound, int64(res.Rounds)*wantPerRound)
	}
	// The greedy must still produce a dominating set here.
	var set []int
	for v, out := range res.Outputs {
		if out == 1 {
			set = append(set, v)
		}
	}
	if !solver.IsDominatingSet(g, set) {
		t.Error("greedy output not dominating on Figure 7 graph")
	}
}

func TestSimulatePartitionValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := SimulateTwoParty(g, GreedyDominatingSet{}, []byte{0}, 8); err == nil {
		t.Error("short partition accepted")
	}
}
