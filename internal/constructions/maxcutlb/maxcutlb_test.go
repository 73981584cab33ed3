package maxcutlb

import (
	"math/rand"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

func TestNewValidation(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		if _, err := New(k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

func TestStructureAndWeights(t *testing.T) {
	f, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 4*2+8*1+5 {
		t.Errorf("N = %d, want 21", f.N())
	}
	if f.Heavy() != 16 {
		t.Errorf("heavy = %d, want 16", f.Heavy())
	}
	// M = 16*12 + 8*8 + 16 + 8 = 280 at k=2.
	if f.Target() != 280 {
		t.Errorf("target = %d, want 280", f.Target())
	}
	zero := comm.NewBits(4)
	g, err := f.Build(zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy spine present.
	if w, _ := g.EdgeWeight(f.CA(), f.NA()); w != 16 {
		t.Errorf("CA-NA weight = %d", w)
	}
	if w, _ := g.EdgeWeight(f.CABar(), f.CB()); w != 16 {
		t.Errorf("CABar-CB weight = %d", w)
	}
	// With all-zero x, every complement edge exists with weight 1 and the
	// normalizing weights are 0.
	if w, ok := g.EdgeWeight(f.Row(SetA1, 0), f.Row(SetA2, 1)); !ok || w != 1 {
		t.Errorf("complement edge weight = %d, ok=%v", w, ok)
	}
	if w, _ := g.EdgeWeight(f.Row(SetA1, 0), f.NA()); w != 0 {
		t.Errorf("NA weight = %d, want 0", w)
	}
}

func TestRowBudgetInvariant(t *testing.T) {
	// The construction's normalizing trick: for every row vertex a₁^i, the
	// total weight of edges to A2 ∪ {N_A} is exactly k, whatever x is.
	f, _ := New(4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		x := comm.RandomBits(16, rng)
		y := comm.RandomBits(16, rng)
		g, err := f.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			var total int64
			for j := 0; j < 4; j++ {
				if w, ok := g.EdgeWeight(f.Row(SetA1, i), f.Row(SetA2, j)); ok {
					total += w
				}
			}
			w, _ := g.EdgeWeight(f.Row(SetA1, i), f.NA())
			total += w
			if total != 4 {
				t.Fatalf("row budget for a1[%d] = %d, want k=4", i, total)
			}
		}
	}
}

func TestCutIsLogarithmic(t *testing.T) {
	f, _ := New(8)
	stats, err := lbfamily.MeasureStats(f)
	if err != nil {
		t.Fatal(err)
	}
	// 2 crossing edges per heavy 4-cycle (2 log k cycles) plus C̄A-CB.
	want := 4*f.logK + 1
	if stats.CutSize != want {
		t.Errorf("cut = %d, want %d", stats.CutSize, want)
	}
}

// TestLemma24Exhaustive machine-checks Lemma 2.4 at k=2 over all 256 input
// pairs with the exact max-cut solver.
func TestLemma24Exhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive max-cut verification is slow")
	}
	f, _ := New(2)
	if err := lbfamily.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestWitnessCutAchievesTarget checks the YES direction constructively:
// the proof's cut has weight exactly M.
func TestWitnessCutAchievesTarget(t *testing.T) {
	f, _ := New(2)
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for trial := 0; trial < 60 && checked < 15; trial++ {
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
		side, err := f.WitnessCut(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if w := g.CutWeight(side); w < f.Target() {
			t.Fatalf("witness cut weight %d < target %d (x=%s y=%s)", w, f.Target(), x, y)
		}
	}
	if checked == 0 {
		t.Fatal("no intersecting samples")
	}
}

// TestMaxCutExactValueOnIntersecting: on intersecting inputs the maximum
// cut is exactly M (Claim 2.12 + Lemma 2.4).
func TestMaxCutExactValueOnIntersecting(t *testing.T) {
	f, _ := New(2)
	x := comm.NewBits(4)
	x.Set(3, true)
	y := comm.NewBits(4)
	y.Set(3, true)
	g, err := f.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := solver.MaxCut(g)
	if err != nil {
		t.Fatal(err)
	}
	if best != f.Target() {
		t.Errorf("max cut = %d, want exactly M = %d", best, f.Target())
	}
}

func TestWitnessRejectsDisjoint(t *testing.T) {
	f, _ := New(2)
	if _, err := f.WitnessCut(comm.NewBits(4), comm.NewBits(4)); err == nil {
		t.Error("witness produced for disjoint inputs")
	}
}

func TestBuildRejectsWrongLength(t *testing.T) {
	f, _ := New(2)
	if _, err := f.Build(comm.NewBits(4), comm.NewBits(5)); err == nil {
		t.Error("wrong input length accepted")
	}
}

// TestLemma24SampledK4 checks the family at k = 4 (K = 16, n = 37): a
// sampled Definition 1.1 verification, then the oracle on four disjoint
// pairs (x, x̄), which must be NO, and four intersecting pairs, which must
// be YES. On each, the
// oracle's maximization must find a cut of weight exactly M on the
// intersecting pairs (Claim 2.12 + Lemma 2.4) and below M on the others.
func TestLemma24SampledK4(t *testing.T) {
	if testing.Short() {
		t.Skip("k = 4 decides hundreds of 37-vertex max-cut instances")
	}
	f, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := lbfamily.VerifySampled(f, rng, 12); err != nil {
		t.Fatal(err)
	}
	var o solver.MaxCutOracle
	for i := 0; i < 8; i++ {
		x, y := comm.RandomBits(f.K(), rng), comm.NewBits(f.K())
		for j := 0; j < f.K(); j++ {
			y.Set(j, !x.Get(j))
		}
		if intersect := i >= 4; intersect {
			j := rng.Intn(f.K())
			x.Set(j, true)
			y.Set(j, true)
		}
		g, err := f.Build(x, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.HasCutOfWeight(g, f.Target())
		if err != nil {
			t.Fatal(err)
		}
		want := x.Intersects(y)
		if got != want {
			t.Fatalf("x=%v y=%v: predicate %v, want %v", x, y, got, want)
		}
		best, side, err := o.MaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		if best != g.CutWeight(side) || (best == f.Target()) != want || best > f.Target() {
			t.Fatalf("x=%v y=%v: max cut %d (side realizes %d), M = %d, intersecting %v", x, y, best, g.CutWeight(side), f.Target(), want)
		}
	}
}
