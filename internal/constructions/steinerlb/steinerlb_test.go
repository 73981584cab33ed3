package steinerlb

import (
	"math/rand"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

func TestStructure(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 2*f.MDS.N() {
		t.Errorf("N = %d, want %d", f.N(), 2*f.MDS.N())
	}
	if f.TargetEdges() != 4*2+16*1+1 {
		t.Errorf("target = %d, want 25", f.TargetEdges())
	}
	if got := len(f.Terminals()); got != f.MDS.N() {
		t.Errorf("terminals = %d, want %d", got, f.MDS.N())
	}
	zero := comm.NewBits(4)
	g, err := f.Build(zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	// Terminals form an independent set (used in the Claim 2.8 proof).
	if !solver.IsIndependentSet(g, f.Terminals()) {
		t.Error("terminals are not independent")
	}
	// Identity edges present.
	if !g.HasEdge(0, f.Tilde(0)) {
		t.Error("identity edge missing")
	}
}

func TestCutIsLogarithmic(t *testing.T) {
	f, _ := New(4)
	stats, err := lbfamily.MeasureStats(f)
	if err != nil {
		t.Fatal(err)
	}
	// Cut: 2 copies of each of the O(log k) original cut edges plus the 2
	// crossing edges.
	innerStats, err := lbfamily.MeasureStats(f.MDS)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*innerStats.CutSize + 2
	if stats.CutSize != want {
		t.Errorf("cut = %d, want %d", stats.CutSize, want)
	}
}

// TestClaim28Exhaustive machine-checks Claim 2.8 at k=2 over all 256 input
// pairs: the derived graph has a Steiner tree with 4k+16logk+1 edges iff
// DISJ(x,y) = FALSE, with Definition 1.1's structural conditions.
func TestClaim28Exhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive Steiner verification is slow")
	}
	f, _ := New(2)
	if err := lbfamily.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestWitnessTree checks the YES direction constructively: the proof's
// tree is a valid Steiner tree of exactly the target size.
func TestWitnessTree(t *testing.T) {
	f, _ := New(2)
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for trial := 0; trial < 40 && checked < 12; trial++ {
		x := comm.RandomBits(4, rng)
		y := comm.RandomBits(4, rng)
		if !x.Intersects(y) {
			continue
		}
		checked++
		g, err := f.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := f.WitnessSteinerTree(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree) != f.TargetEdges() {
			t.Fatalf("witness has %d edges, want %d", len(tree), f.TargetEdges())
		}
		weight, ok := solver.IsSteinerTree(g, f.Terminals(), tree)
		if !ok {
			t.Fatalf("witness is not a Steiner tree (x=%s y=%s)", x, y)
		}
		if weight != int64(len(tree)) {
			t.Fatalf("unexpected weight %d", weight)
		}
	}
	if checked == 0 {
		t.Fatal("no intersecting samples drawn")
	}
}

// TestConverseExtraction checks the NO->dominating-set direction: from the
// witness tree (any valid tree of target size) the extracted vertex set
// dominates the inner MDS graph with at most 4logk+2 vertices.
func TestConverseExtraction(t *testing.T) {
	f, _ := New(2)
	x := comm.NewBits(4)
	y := comm.NewBits(4)
	x.Set(2, true)
	y.Set(2, true)
	tree, err := f.WitnessSteinerTree(x, y)
	if err != nil {
		t.Fatal(err)
	}
	set := f.DominatingSetFromSteinerTree(tree)
	if len(set) > f.MDS.TargetSize() {
		t.Fatalf("extracted set has %d vertices, want <= %d", len(set), f.MDS.TargetSize())
	}
	inner, err := f.MDS.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !solver.IsDominatingSet(inner, set) {
		t.Error("extracted set does not dominate the MDS graph")
	}
}

func TestWitnessRejectsDisjoint(t *testing.T) {
	f, _ := New(2)
	if _, err := f.WitnessSteinerTree(comm.NewBits(4), comm.NewBits(4)); err == nil {
		t.Error("witness produced for disjoint inputs")
	}
}

// TestWarmSteinerOracleAllocatesNothing pins the Verify hot path: once a
// SteinerOracle has seen a k=2 instance, deciding the predicate on a YES
// pair and on a NO pair allocates nothing, and neither does a NO pair that
// the NO carry answers: (0, 0) after (1111, 0), the largest NO instance of
// its column, which dominates it. The same pairs padded with 25 isolated
// vertices (65 in all, same verdicts) pin the two-word search.
func TestWarmSteinerOracleAllocatesNothing(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	terminals, target := f.Terminals(), f.TargetEdges()
	zero, ones := comm.NewBits(f.K()), comm.OnesBits(f.K())
	build := func(x, y comm.Bits, pad int) *graph.Graph {
		built, err := f.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New(built.N() + pad)
		for _, e := range built.Edges() {
			g.MustAddEdge(e.U, e.V)
		}
		g.Freeze()
		return g
	}
	var o solver.SteinerOracle
	for _, tc := range []struct {
		name    string
		x, y    comm.Bits
		pad     int
		want    bool
		carried bool // decide (1111, y) first
	}{
		{"yes", ones, ones, 0, true, false},
		{"no", zero, zero, 0, false, false},
		{"carried no", zero, zero, 0, false, true},
		{"two-word yes", ones, ones, 25, true, false},
		{"two-word no", zero, zero, 25, false, false},
		{"two-word carried no", zero, zero, 25, false, true},
	} {
		if tc.carried {
			if got, err := o.HasSteinerTreeWithEdges(build(ones, tc.y, tc.pad), terminals, target); err != nil || got {
				t.Fatalf("%s: the column's largest NO instance answers %v (err %v)", tc.name, got, err)
			}
		}
		g := build(tc.x, tc.y, tc.pad)
		var got bool
		allocs := testing.AllocsPerRun(20, func() {
			got, err = o.HasSteinerTreeWithEdges(g, terminals, target)
		})
		if err != nil || got != tc.want {
			t.Fatalf("%s pair: got %v (err %v), want %v", tc.name, got, err, tc.want)
		}
		if allocs != 0 {
			t.Errorf("%s pair: warm oracle allocates %.1f per call, want 0", tc.name, allocs)
		}
	}
}

// TestClaim28SampledK4 checks the family at k = 4 (K = 16, n = 80, the
// two-word search): a sampled Definition 1.1 verification, then the
// oracle on two disjoint pairs (x, x̄), which must be NO, and two
// intersecting pairs, which must be YES.
func TestClaim28SampledK4(t *testing.T) {
	if testing.Short() {
		t.Skip("k = 4 decides dozens of 80-vertex Steiner instances")
	}
	f, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := lbfamily.VerifySampled(f, rng, 4); err != nil {
		t.Fatal(err)
	}
	var o solver.SteinerOracle
	for i := 0; i < 4; i++ {
		x, y := comm.RandomBits(f.K(), rng), comm.NewBits(f.K())
		for j := 0; j < f.K(); j++ {
			y.Set(j, !x.Get(j))
		}
		if intersect := i >= 2; intersect {
			j := rng.Intn(f.K())
			x.Set(j, true)
			y.Set(j, true)
		}
		g, err := f.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.HasSteinerTreeWithEdges(g, f.Terminals(), f.TargetEdges())
		if err != nil {
			t.Fatal(err)
		}
		if want := x.Intersects(y); got != want {
			t.Fatalf("x=%v y=%v: predicate %v, want %v", x, y, got, want)
		}
	}
}
