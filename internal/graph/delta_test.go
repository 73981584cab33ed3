package graph

import (
	"math/rand"
	"testing"
)

// randomToggleSequence drives ToggleEdge with random edge toggles and weight
// updates and cross-checks the patchable snapshot against a freshly built
// dense snapshot after every step.
func TestToggleEdgePatchesSnapshotInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 12
	g := New(n)
	// Seed with a random base graph.
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				g.MustAddWeightedEdge(u, v, int64(rng.Intn(5)+1))
			}
		}
	}
	patched := g.FreezePatchable()
	for step := 0; step < 500; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 && g.HasEdge(u, v) {
			if err := g.SetEdgeWeight(u, v, int64(rng.Intn(9)+1)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := g.ToggleEdge(u, v, int64(rng.Intn(5)+1)); err != nil {
			t.Fatal(err)
		}
		if g.patched == nil {
			t.Fatal("patchable snapshot dropped by ToggleEdge")
		}
		patched = g.patched // overflow may have rebuilt it
		fresh := buildCSR(g)
		for a := 0; a < n; a++ {
			if patched.Degree(a) != fresh.Degree(a) {
				t.Fatalf("step %d: degree(%d) = %d, want %d", step, a, patched.Degree(a), fresh.Degree(a))
			}
			nbr, wt := patched.Window(a)
			fnbr, fwt := fresh.Window(a)
			for i := range fnbr {
				if nbr[i] != fnbr[i] || wt[i] != fwt[i] {
					t.Fatalf("step %d: window(%d) diverged", step, a)
				}
			}
		}
		pe, fe := patched.Edges(), fresh.Edges()
		if len(pe) != len(fe) {
			t.Fatalf("step %d: %d edges, want %d", step, len(pe), len(fe))
		}
		for i := range fe {
			if pe[i] != fe[i] {
				t.Fatalf("step %d: edge %d = %+v, want %+v", step, i, pe[i], fe[i])
			}
		}
	}
}

func TestToggleEdgeSemantics(t *testing.T) {
	g := New(4)
	added, err := g.ToggleEdge(0, 1, 7)
	if err != nil || !added {
		t.Fatalf("first toggle: added=%v err=%v", added, err)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 7 {
		t.Fatalf("edge weight %d, %v", w, ok)
	}
	added, err = g.ToggleEdge(1, 0, 99)
	if err != nil || added {
		t.Fatalf("second toggle: added=%v err=%v", added, err)
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge survived removal toggle")
	}
	if _, err := g.ToggleEdge(2, 2, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if _, err := g.ToggleEdge(0, 9, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

// TestIncrementalHashMaintenance is the contract the delta verifier relies
// on: folding journaled EdgeDeltas into a previously computed hash yields
// exactly the from-scratch hash of the mutated graph.
func TestIncrementalHashMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 14
	g := New(n)
	side := make([]bool, n)
	other := make([]bool, n)
	for v := range side {
		side[v] = v%2 == 0
		other[v] = !side[v]
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				g.MustAddWeightedEdge(u, v, int64(rng.Intn(6)+1))
			}
		}
	}
	cut := g.CutHash(side)
	within := g.HashWithin(side)
	other64 := g.HashWithin(other)
	g.StartJournal()
	for step := 0; step < 300; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 && g.HasEdge(u, v) {
			if err := g.SetEdgeWeight(u, v, int64(rng.Intn(9)+1)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := g.ToggleEdge(u, v, int64(rng.Intn(6)+1)); err != nil {
			t.Fatal(err)
		}
		for _, d := range g.Journal() {
			h := EdgeHash(d.U, d.V, d.W)
			switch {
			case side[d.U] != side[d.V]:
				cut ^= h
			case side[d.U]:
				within ^= h
			default:
				other64 ^= h
			}
		}
		g.ClearJournal()
		if cut != g.CutHash(side) {
			t.Fatalf("step %d: incremental CutHash diverged", step)
		}
		if within != g.HashWithin(side) {
			t.Fatalf("step %d: incremental HashWithin(side) diverged", step)
		}
		if other64 != g.HashWithin(other) {
			t.Fatalf("step %d: incremental HashWithin(other) diverged", step)
		}
	}
}

func TestToggleEdgeSteadyStateDoesNotAllocate(t *testing.T) {
	g := New(8)
	for v := 1; v < 8; v++ {
		g.MustAddEdge(0, v)
	}
	g.FreezePatchable()
	g.StartJournal()
	// Warm up: reach peak degree so window slack is settled, and let the
	// journal backing array grow.
	for i := 0; i < 4; i++ {
		g.ToggleEdge(1, 2, 1)
		g.ClearJournal()
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := g.ToggleEdge(1, 2, 1); err != nil {
			t.Fatal(err)
		}
		g.ClearJournal()
	})
	if allocs > 0 {
		t.Fatalf("steady-state ToggleEdge allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestVertexWeightJournal covers the vertex-weight side of the delta
// machinery: SetVertexWeight journals remove/add pairs that fold into
// HashWithin exactly.
func TestVertexWeightJournal(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	if err := g.SetVertexWeight(2, 9); err != nil {
		t.Fatal(err)
	}
	side := []bool{true, true, false, false}
	aH := g.HashWithin(side)
	bH := g.HashWithin([]bool{false, false, true, true})
	g.StartJournal()
	steps := [][2]int64{{0, 5}, {2, 1}, {2, 4}, {3, 3}}
	for _, s := range steps {
		if err := g.SetVertexWeight(int(s[0]), s[1]); err != nil {
			t.Fatal(err)
		}
	}
	// An equal-weight set must not journal.
	before := len(g.VertexJournal())
	if err := g.SetVertexWeight(3, 3); err != nil {
		t.Fatal(err)
	}
	if len(g.VertexJournal()) != before {
		t.Fatal("no-op SetVertexWeight was journaled")
	}
	for _, d := range g.VertexJournal() {
		h := VertexHash(d.V, d.W)
		if side[d.V] {
			aH ^= h
		} else {
			bH ^= h
		}
	}
	if aH != g.HashWithin(side) || bH != g.HashWithin([]bool{false, false, true, true}) {
		t.Fatal("vertex-weight journal fold diverged from recomputed hashes")
	}
	g.ClearJournal()
	if len(g.VertexJournal()) != 0 {
		t.Fatal("ClearJournal kept vertex entries")
	}
}
