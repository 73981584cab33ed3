package kmdslb

import (
	"math/rand"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

func testParams(t *testing.T) Params {
	t.Helper()
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	return Params{Collection: c, R: 2}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewTwoMDS(Params{}); err == nil {
		t.Error("empty params accepted")
	}
	p := testParams(t)
	p.R = 1
	if _, err := NewTwoMDS(p); err == nil {
		t.Error("r=1 accepted")
	}
}

func TestTwoMDSStructure(t *testing.T) {
	p := testParams(t)
	f, err := NewTwoMDS(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 2*12+2*4+3 {
		t.Errorf("N = %d, want 35", f.N())
	}
	zero := comm.NewBits(4)
	g, err := f.Build(zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexWeight(f.Root()) != 0 {
		t.Error("root weight must be 0")
	}
	if g.VertexWeight(f.SVertex(0)) != p.Alpha() {
		t.Error("x=0 set weight must be alpha")
	}
	ones := comm.NewBits(4)
	for i := 0; i < 4; i++ {
		ones.Set(i, true)
	}
	g1, err := f.Build(ones, zero)
	if err != nil {
		t.Fatal(err)
	}
	if g1.VertexWeight(f.SVertex(0)) != 1 {
		t.Error("x=1 set weight must be 1")
	}
	// Edges must be input-independent.
	if g.Signature() == g1.Signature() {
		t.Error("weights should differ between inputs")
	}
	if len(g.Edges()) != len(g1.Edges()) {
		t.Error("edge set changed with input")
	}
}

func TestCutIsElements(t *testing.T) {
	p := testParams(t)
	f, _ := NewTwoMDS(p)
	stats, err := lbfamily.MeasureStats(f)
	if err != nil {
		t.Fatal(err)
	}
	// a_j - b_j edges plus R - a.
	if stats.CutSize != p.Collection.L+1 {
		t.Errorf("cut = %d, want %d", stats.CutSize, p.Collection.L+1)
	}
}

// TestLemma43Exhaustive machine-checks the 2-MDS family over all 256
// input pairs (T = 4).
func TestLemma43Exhaustive(t *testing.T) {
	f, err := NewTwoMDS(testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := lbfamily.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestLemma43Gap confirms the full gap: weight exactly 2 on intersecting
// inputs and strictly above r otherwise.
func TestLemma43Gap(t *testing.T) {
	p := testParams(t)
	f, _ := NewTwoMDS(p)
	x := comm.NewBits(4)
	x.Set(1, true)
	g, err := f.Build(x, x)
	if err != nil {
		t.Fatal(err)
	}
	w, err := f.GapWeights(g)
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("intersecting 2-MDS weight = %d, want 2", w)
	}
	zero := comm.NewBits(4)
	g0, err := f.Build(zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := f.GapWeights(g0)
	if err != nil {
		t.Fatal(err)
	}
	if w0 <= int64(p.R) {
		t.Errorf("disjoint 2-MDS weight = %d, want > r = %d", w0, p.R)
	}
}

// TestTheorem45KMDS machine-checks the k = 3 subdivision variant on
// sampled inputs plus structural facts.
func TestTheorem45KMDS(t *testing.T) {
	p := testParams(t)
	f, err := NewKMDS(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewKMDS(p, 1); err == nil {
		t.Error("k=1 accepted")
	}
	// n grows by one interior vertex per set-element edge at k=3.
	if f.N() != f.Inner.N()+12*4 {
		t.Errorf("N = %d, want inner+48", f.N())
	}
	if err := lbfamily.VerifySampled(f, rand.New(rand.NewSource(3)), 20); err != nil {
		t.Fatal(err)
	}
}

func TestKMDSAtK2MatchesTwoMDS(t *testing.T) {
	p := testParams(t)
	f2, _ := NewTwoMDS(p)
	fk, err := NewKMDS(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := comm.NewBits(4)
	x.Set(0, true)
	g2, err := f2.Build(x, x)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := fk.Build(x, x)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Signature() != gk.Signature() {
		t.Error("k=2 family differs from the 2-MDS family")
	}
}

// TestTheorem46NodeSteiner machine-checks the node-weighted Steiner
// variant exhaustively.
func TestTheorem46NodeSteiner(t *testing.T) {
	f, err := NewNodeSteiner(testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := lbfamily.Verify(f); err != nil {
		t.Fatal(err)
	}
}

// TestNodeSteinerGap confirms weight 2 vs > r via the exact enumerator.
func TestNodeSteinerGap(t *testing.T) {
	p := testParams(t)
	f, _ := NewNodeSteiner(p)
	x := comm.NewBits(4)
	x.Set(2, true)
	g, err := f.Build(x, x)
	if err != nil {
		t.Fatal(err)
	}
	w, err := solver.NodeWeightedSteinerEnum(g, f.Terminals())
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("intersecting node-Steiner weight = %d, want 2", w)
	}
	zero := comm.NewBits(4)
	g0, err := f.Build(zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := solver.NodeWeightedSteinerEnum(g0, f.Terminals())
	if err != nil {
		t.Fatal(err)
	}
	if w0 <= int64(p.R) {
		t.Errorf("disjoint node-Steiner weight = %d, want > %d", w0, p.R)
	}
}

// TestTheorem47DirSteiner machine-checks the directed variant
// exhaustively.
func TestTheorem47DirSteiner(t *testing.T) {
	f, err := NewDirSteiner(testParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := lbfamily.VerifyDigraph(f); err != nil {
		t.Fatal(err)
	}
}

// TestRestrictedFamilyGap checks Lemma 4.7 on the Figure 7 construction.
func TestRestrictedFamilyGap(t *testing.T) {
	p := testParams(t)
	f, err := NewRestricted(p)
	if err != nil {
		t.Fatal(err)
	}
	x := comm.NewBits(4)
	x.Set(3, true)
	g, err := f.Build(x, x)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := f.Predicate(g)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("intersecting inputs: no weight-2 MDS found")
	}
	w, _, err := solver.MinDominatingSet(g)
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("intersecting MDS weight = %d, want 2", w)
	}
	zero := comm.NewBits(4)
	g0, err := f.Build(zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	w0, _, err := solver.MinDominatingSet(g0)
	if err != nil {
		t.Fatal(err)
	}
	if w0 <= int64(p.R) {
		t.Errorf("disjoint MDS weight = %d, want > %d", w0, p.R)
	}
}

// TestRestrictedFamilyExhaustive checks the iff over all input pairs.
func TestRestrictedFamilyExhaustive(t *testing.T) {
	p := testParams(t)
	f, _ := NewRestricted(p)
	err := comm.AllBits(4, func(x comm.Bits) {
		xx := x.Clone()
		innerErr := comm.AllBits(4, func(y comm.Bits) {
			g, err := f.Build(xx, y)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Predicate(g)
			if err != nil {
				t.Fatal(err)
			}
			if want := xx.Intersects(y); got != want {
				t.Fatalf("restricted predicate %v, want %v (x=%s y=%s)", got, want, xx, y)
			}
		})
		if innerErr != nil {
			t.Fatal(innerErr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPowerOracleSeesEdgeChangesInPlace toggles one graph object in
// place from the path P7 into K4 plus three isolated vertices, which has
// the same edge count. The reused oracle must rebuild its power graph:
// P7 has a 2-dominating set of weight 2 ({1, 5}), K4 + 3 isolated
// vertices has none, and a fresh MDSOracle on g.Power(2) agrees.
func TestPowerOracleSeesEdgeChangesInPlace(t *testing.T) {
	g := graph.Path(7)
	o := &powerMDSOracle{dist: 2, budget: 2}
	if got, err := o.Eval(g); err != nil || !got {
		t.Fatalf("P7: got %v (err %v), want true", got, err)
	}
	for _, e := range [][2]int{{3, 4}, {4, 5}, {5, 6}, {0, 2}, {0, 3}, {1, 3}} {
		if _, err := g.ToggleEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	if g.M() != 6 {
		t.Fatalf("K4 + 3 isolated has %d edges, want 6", g.M())
	}
	var fresh solver.MDSOracle
	want, err := fresh.HasDominatingSetOfWeight(g.Power(2), 2)
	if err != nil || want {
		t.Fatalf("fresh oracle on K4 + 3 isolated: %v (err %v), want false", want, err)
	}
	if got, err := o.Eval(g); err != nil || got != want {
		t.Fatalf("K4 + 3 isolated: got %v (err %v), want %v", got, err, want)
	}
}
