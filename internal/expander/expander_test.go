package expander

import (
	"testing"

	"congesthard/internal/graph"
)

func TestGadgetSmall(t *testing.T) {
	for d := 1; d <= 5; d++ {
		g, dist, err := Gadget(d, 1)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if len(dist) != d {
			t.Fatalf("d=%d: %d distinguished", d, len(dist))
		}
		if g.MaxDegree() > 4 {
			t.Errorf("d=%d: max degree %d > 4", d, g.MaxDegree())
		}
		ok, err := VerifyCutProperty(g, dist)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("d=%d: cut property violated", d)
		}
	}
	if _, _, err := Gadget(0, 1); err == nil {
		t.Error("d=0 accepted")
	}
}

func TestGadgetLargeStructure(t *testing.T) {
	g, dist, err := Gadget(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 8 {
		t.Fatalf("distinguished = %d", len(dist))
	}
	if g.N() != 8*(2*LeavesPerTree-1) {
		t.Errorf("N = %d", g.N())
	}
	if g.MaxDegree() > 4 {
		t.Errorf("max degree %d > 4", g.MaxDegree())
	}
	for _, v := range dist {
		if g.Degree(v) != 2 {
			t.Errorf("distinguished vertex degree %d, want 2", g.Degree(v))
		}
	}
	if !g.IsConnected() {
		t.Error("gadget disconnected")
	}
	// Diameter O(log d): generous cap.
	if diam := g.Diameter(); diam > 40 {
		t.Errorf("diameter %d unexpectedly large", diam)
	}
}

func TestGadgetDeterministic(t *testing.T) {
	g1, _, err := Gadget(6, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := Gadget(6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Signature() != g2.Signature() {
		t.Error("gadget not deterministic for fixed seed")
	}
}

func TestVerifyCutPropertyDetectsFailure(t *testing.T) {
	// Two distinguished vertices with NO path between them: the cut
	// separating them crosses zero edges but min = 1.
	g := graph.New(2)
	ok, err := VerifyCutProperty(g, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("disconnected distinguished pair passed")
	}
	if _, err := VerifyCutProperty(graph.New(30), []int{0}); err == nil {
		t.Error("oversized exhaustive check accepted")
	}
}

func TestCubicExpansionRejectsDisconnected(t *testing.T) {
	g := graph.New(8)
	// Two disjoint K4s are 3-regular but disconnected.
	for _, base := range []int{0, 4} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.MustAddEdge(base+i, base+j)
			}
		}
	}
	if cubicExpansionOK(g) {
		t.Error("disconnected cubic graph accepted")
	}
}

func TestSecondEigenvalueOnCycle(t *testing.T) {
	// C8 is bipartite: spectrum 2cos(2πk/8) includes λₙ = -2, so the
	// estimate of max(|λ₂|, |λₙ|) should be ~2 (x1.02 safety margin).
	cyc, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	lambda := secondEigenvalueEstimate(cyc, 500)
	if lambda < 1.9 || lambda > 2.2 {
		t.Errorf("lambda estimate %.3f, want ~2.04", lambda)
	}
	// C5 is non-bipartite: max |λ| below 2 is 2cos(2π/5) ≈ 0.618... no:
	// eigenvalues 2cos(2πk/5) = {2, 0.618, -1.618}; max abs = 1.618.
	c5, err := graph.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	l5 := secondEigenvalueEstimate(c5, 500)
	if l5 < 1.5 || l5 > 1.8 {
		t.Errorf("C5 lambda estimate %.3f, want ~1.618", l5)
	}
}
