package lbfamily

import (
	"strings"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// toyFamily is a minimal correct family used to test the verifier: K = 1,
// two vertices per player; Alice adds her internal edge iff x_0 = 1, Bob
// his iff y_0 = 1; the fixed cut is one edge. Predicate: the graph has at
// least 2 + (x AND y... ) — we use "both internal edges present", i.e.
// m = 3, which equals AND(x,y); with f = AND expressed via ¬DISJ on K=1.
type toyFamily struct {
	breakCondition int // 0 = correct; 1..4 break Definition 1.1 conditions
}

func (t *toyFamily) Name() string { return "toy" }

func (t *toyFamily) K() int { return 1 }

func (t *toyFamily) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }

func (t *toyFamily) AliceSide() []bool { return []bool{true, true, false, false} }

func (t *toyFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	n := 4
	if t.breakCondition == 1 && x.Get(0) {
		n = 5 // vertex count varies: breaks condition 1
	}
	g := graph.New(n)
	g.MustAddEdge(1, 2) // fixed cut edge
	if t.breakCondition == 3 && y.Get(0) {
		g.MustAddEdge(0, 1) // Alice's side changed by y: breaks condition 3
	} else if x.Get(0) {
		g.MustAddEdge(0, 1)
	}
	if t.breakCondition == 2 && x.Get(0) {
		g.MustAddEdge(2, 3) // Bob's side changed by x: breaks condition 2
	} else if y.Get(0) {
		g.MustAddEdge(2, 3)
	}
	if t.breakCondition == 5 && x.Get(0) && y.Get(0) {
		g.MustAddEdge(0, 3) // extra cut edge appears: cut not fixed
	}
	return g, nil
}

func (t *toyFamily) Predicate(g *graph.Graph) (bool, error) {
	if t.breakCondition == 4 {
		return g.M() >= 1, nil // wrong predicate: breaks condition 4
	}
	return g.HasEdge(0, 1) && g.HasEdge(2, 3), nil
}

func TestVerifyAcceptsCorrectFamily(t *testing.T) {
	if err := Verify(&toyFamily{}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	cases := []struct {
		breakCondition int
		wantSubstring  string
	}{
		{breakCondition: 1, wantSubstring: "condition 1"},
		{breakCondition: 2, wantSubstring: "condition 2"},
		{breakCondition: 3, wantSubstring: "condition 3"},
		{breakCondition: 4, wantSubstring: "condition 4"},
		{breakCondition: 5, wantSubstring: "cut"},
	}
	for _, tc := range cases {
		err := Verify(&toyFamily{breakCondition: tc.breakCondition})
		if err == nil {
			t.Errorf("break %d: verifier accepted a broken family", tc.breakCondition)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSubstring) {
			t.Errorf("break %d: error %q does not mention %q", tc.breakCondition, err, tc.wantSubstring)
		}
	}
}

func TestVerifyRejectsHugeK(t *testing.T) {
	// K > 12 must be refused by the exhaustive verifier.
	big := &toyFamilyWithK{inner: &toyFamily{}, k: 13}
	if err := Verify(big); err == nil {
		t.Error("K=13 exhaustive verification accepted")
	}
}

type toyFamilyWithK struct {
	inner *toyFamily
	k     int
}

func (t *toyFamilyWithK) Name() string                               { return "toy-k" }
func (t *toyFamilyWithK) K() int                                     { return t.k }
func (t *toyFamilyWithK) Func() comm.Function                        { return t.inner.Func() }
func (t *toyFamilyWithK) AliceSide() []bool                          { return t.inner.AliceSide() }
func (t *toyFamilyWithK) Build(x, y comm.Bits) (*graph.Graph, error) { return t.inner.Build(x, y) }
func (t *toyFamilyWithK) Predicate(g *graph.Graph) (bool, error)     { return t.inner.Predicate(g) }

func TestMeasureStatsAndImpliedBound(t *testing.T) {
	fam := &toyFamily{}
	stats, err := MeasureStats(fam)
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 4 || stats.CutSize != 1 || stats.K != 1 {
		t.Errorf("stats = %+v", stats)
	}
	lb, err := ImpliedLowerBound(stats, fam.Func())
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Errorf("implied bound %v", lb)
	}
	if _, err := ImpliedLowerBound(stats, untabled{}); err == nil {
		t.Error("unknown function accepted")
	}
}

// untabled is a two-party function the complexity table does not know.
type untabled struct{}

func (untabled) Eval(x, y comm.Bits) bool { return x.Intersects(y) }
func (untabled) Name() string             { return "UNTABLED" }

func TestSimulateTwoParty(t *testing.T) {
	fam := &toyFamily{}
	x, _ := comm.BitsFromUint64(1, 1)
	y, _ := comm.BitsFromUint64(1, 1)
	// A trivial 3-round chatter program: everyone floods its id.
	factory := func(local congest.Local) congest.Node {
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				if round >= 3 {
					return nil, true
				}
				var out []congest.Message
				for port := range local.Neighbors {
					out = append(out, congest.Message{Port: port, Payload: int64(local.ID)})
				}
				return out, false
			},
		}
	}
	res, err := SimulateTwoParty(fam, x, y, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 1.1 accounting: cut bits <= 2 * rounds * |E_cut| * B.
	maxBits := int64(2*res.Rounds*1) * int64(res.BandwidthBits)
	if res.CutBits > maxBits {
		t.Errorf("cut bits %d exceed the Theorem 1.1 budget %d", res.CutBits, maxBits)
	}
	if res.CutBits == 0 {
		t.Error("no cut traffic metered on a chattering program")
	}
}

func TestDerivedFamily(t *testing.T) {
	inner := &toyFamily{}
	derived := &DerivedFamily{
		Inner:      inner,
		FamilyName: "toy-squared",
		Transform: func(g *graph.Graph, aliceSide []bool) (*graph.Graph, []bool, error) {
			// Identity transform with one pendant vertex on Bob's side.
			out := g.Clone()
			v := out.AddVertex()
			out.MustAddEdge(v, 3)
			side := append(append([]bool(nil), aliceSide...), false)
			return out, side, nil
		},
		Pred: func(g *graph.Graph) (bool, error) {
			return g.HasEdge(0, 1) && g.HasEdge(2, 3), nil
		},
	}
	if err := Verify(derived); err != nil {
		t.Fatal(err)
	}
	if derived.Name() != "toy-squared" || derived.K() != 1 {
		t.Error("metadata wrong")
	}
}

func TestVerifyErrorIsDeterministic(t *testing.T) {
	// break 4 makes the predicate wrong at many (x, y) pairs at once. The
	// parallel verifier must always blame the row-major-first violating
	// pair, independent of worker scheduling.
	var first string
	for trial := 0; trial < 20; trial++ {
		err := Verify(&toyFamily{breakCondition: 4})
		if err == nil {
			t.Fatal("broken family accepted")
		}
		if trial == 0 {
			first = err.Error()
			if !strings.Contains(first, "(x=0, y=0)") {
				t.Fatalf("error %q does not blame the first pair", first)
			}
			continue
		}
		if err.Error() != first {
			t.Fatalf("nondeterministic error: %q vs %q", err.Error(), first)
		}
	}
}
