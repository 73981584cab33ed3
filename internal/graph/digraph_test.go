package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestDigraphBasics(t *testing.T) {
	d := NewDigraph(3)
	if err := d.AddWeightedArc(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.AddArc(1, 0); err != nil {
		t.Fatal(err) // antiparallel arcs are allowed
	}
	if !d.HasArc(0, 1) || !d.HasArc(1, 0) {
		t.Error("arcs missing")
	}
	if d.HasArc(0, 2) {
		t.Error("phantom arc")
	}
	if w, ok := d.ArcWeight(0, 1); !ok || w != 4 {
		t.Errorf("ArcWeight(0,1) = %d,%v", w, ok)
	}
	if d.M() != 2 {
		t.Errorf("M = %d, want 2", d.M())
	}
	if d.OutDegree(0) != 1 || d.InDegree(0) != 1 {
		t.Error("degree bookkeeping wrong")
	}
}

func TestDigraphErrors(t *testing.T) {
	d := NewDigraph(2)
	if err := d.AddArc(0, 0); err == nil {
		t.Error("self loop accepted")
	}
	if err := d.AddArc(0, 2); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := d.AddArc(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddArc(0, 1); err == nil {
		t.Error("duplicate arc accepted")
	}
}

func TestDigraphArcsSorted(t *testing.T) {
	d := NewDigraph(3)
	d.MustAddArc(2, 0)
	d.MustAddArc(0, 1)
	d.MustAddArc(0, 2)
	arcs := d.Arcs()
	want := []Arc{{0, 1, 1}, {0, 2, 1}, {2, 0, 1}}
	for i := range want {
		if arcs[i] != want[i] {
			t.Errorf("arcs[%d] = %+v, want %+v", i, arcs[i], want[i])
		}
	}
}

func TestDigraphCloneIndependence(t *testing.T) {
	d := NewDigraph(2)
	d.MustAddArc(0, 1)
	c := d.Clone()
	c.MustAddArc(1, 0)
	if d.M() != 1 {
		t.Error("clone mutation leaked")
	}
}

func TestUnderlying(t *testing.T) {
	d := NewDigraph(3)
	d.MustAddWeightedArc(0, 1, 2)
	d.MustAddWeightedArc(1, 0, 9) // antiparallel collapses
	d.MustAddArc(1, 2)
	g := d.Underlying()
	if g.M() != 2 {
		t.Errorf("underlying M = %d, want 2", g.M())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 2 {
		t.Errorf("underlying weight = %d, want first-seen 2", w)
	}
}

func TestSplitDirected(t *testing.T) {
	d := NewDigraph(2)
	d.MustAddArc(0, 1)
	g := d.SplitDirected()
	if g.N() != 6 {
		t.Fatalf("split N = %d, want 6", g.N())
	}
	// v_in - v_mid - v_out chains.
	for v := 0; v < 2; v++ {
		if !g.HasEdge(3*v, 3*v+1) || !g.HasEdge(3*v+1, 3*v+2) {
			t.Errorf("chain for vertex %d missing", v)
		}
	}
	// Arc (0,1) becomes {0_out, 1_in} = {2, 3}.
	if !g.HasEdge(2, 3) {
		t.Error("arc edge missing")
	}
	if g.M() != 2*2+1 {
		t.Errorf("split M = %d, want 5", g.M())
	}
}

func TestRandomDigraphDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := RandomDigraph(10, 1, rng)
	if d.M() != 90 {
		t.Errorf("p=1 digraph has %d arcs, want 90", d.M())
	}
	d0 := RandomDigraph(10, 0, rng)
	if d0.M() != 0 {
		t.Errorf("p=0 digraph has %d arcs", d0.M())
	}
}

func TestDigraphVertexWeights(t *testing.T) {
	d := NewDigraph(2)
	if d.VertexWeight(1) != 1 {
		t.Error("default digraph vertex weight should be 1")
	}
	if err := d.SetVertexWeight(1, 10); err != nil {
		t.Fatal(err)
	}
	if d.VertexWeight(1) != 10 {
		t.Error("vertex weight not stored")
	}
	if err := d.SetVertexWeight(5, 1); err == nil {
		t.Error("out-of-range vertex weight accepted")
	}
}

func TestDigraphRecycleMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var d Digraph
	for _, n := range []int{7, 13, 2, 13, 5} {
		want := RandomDigraph(n, 0.3, rng)
		d.Recycle(n)
		for _, a := range want.Arcs() {
			d.MustAddWeightedArc(a.From, a.To, a.Weight)
		}
		if fmt.Sprint(d.N(), d.Arcs()) != fmt.Sprint(want.N(), want.Arcs()) {
			t.Fatalf("n=%d: recycled digraph %v, fresh %v", n, d.Arcs(), want.Arcs())
		}
		for v := 0; v < n; v++ {
			if d.InDegree(v) != want.InDegree(v) || d.VertexWeight(v) != 1 {
				t.Fatalf("n=%d: vertex %d in-degree %d weight %d, fresh %d and 1", n, v, d.InDegree(v), d.VertexWeight(v), want.InDegree(v))
			}
		}
		d.Freeze()
		if err := d.SetVertexWeight(0, 3); err != nil {
			t.Fatal(err)
		}
	}
}
