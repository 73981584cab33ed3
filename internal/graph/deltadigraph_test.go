package graph

import (
	"math/rand"
	"testing"
)

func TestToggleArcSemantics(t *testing.T) {
	d := NewDigraph(4)
	added, err := d.ToggleArc(0, 1, 5)
	if err != nil || !added {
		t.Fatalf("first toggle: added=%v err=%v", added, err)
	}
	if w, ok := d.ArcWeight(0, 1); !ok || w != 5 {
		t.Fatalf("arc weight %d ok=%v", w, ok)
	}
	if d.HasArc(1, 0) {
		t.Fatal("reverse arc must not exist")
	}
	// The in-adjacency must track the toggle.
	if d.InDegree(1) != 1 || d.OutDegree(0) != 1 {
		t.Fatal("in/out degree wrong after add")
	}
	added, err = d.ToggleArc(0, 1, 9)
	if err != nil || added {
		t.Fatalf("second toggle: added=%v err=%v", added, err)
	}
	if d.HasArc(0, 1) || d.InDegree(1) != 0 {
		t.Fatal("arc not removed")
	}
	if _, err := d.ToggleArc(2, 2, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if _, err := d.ToggleArc(-1, 2, 1); err == nil {
		t.Fatal("out-of-range tail accepted")
	}
	if _, err := d.ToggleArc(0, 99, 1); err == nil {
		t.Fatal("out-of-range head accepted")
	}
}

func TestToggleArcPatchesSnapshotInPlace(t *testing.T) {
	d := NewDigraph(5)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 2)
	d.MustAddArc(2, 0)
	c := d.Freeze()
	if d.Freeze() != c {
		t.Fatal("Freeze rebuilt an existing snapshot")
	}
	if _, err := d.ToggleArc(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if d.Freeze() != c {
		t.Fatal("in-slack toggle replaced the snapshot")
	}
	if !d.HasArc(0, 3) {
		t.Fatal("snapshot missed spliced arc")
	}
	if w, ok := d.ArcWeight(0, 3); !ok || w != 2 {
		t.Fatalf("spliced arc weight %d ok=%v", w, ok)
	}
	if _, err := d.ToggleArc(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if d.HasArc(0, 3) {
		t.Fatal("snapshot kept removed arc")
	}
	// Random toggles on a larger digraph, enough to overflow windows past
	// their slack: the snapshot must rebuild where it overflows and equal
	// a fresh build after every toggle.
	rng := rand.New(rand.NewSource(3))
	d = NewDigraph(12)
	first := d.Freeze()
	for step := 0; step < 300; step++ {
		u, v := rng.Intn(12), rng.Intn(12)
		if u == v {
			continue
		}
		if _, err := d.ToggleArc(u, v, int64(rng.Intn(4)+1)); err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, step, d.csr.Load(), d.out)
	}
	if d.Freeze() == first {
		t.Fatal("no toggle overflowed a window: the rebuild path went untested")
	}
	// Arcs() stays canonical while frozen.
	arcs := d.Arcs()
	for i := 1; i < len(arcs); i++ {
		if arcs[i-1].From > arcs[i].From ||
			(arcs[i-1].From == arcs[i].From && arcs[i-1].To >= arcs[i].To) {
			t.Fatal("Arcs not sorted")
		}
	}
	// Mutators other than ToggleArc drop the snapshot.
	d2 := NewDigraph(3)
	d2.MustAddArc(0, 1)
	d2.Freeze()
	d2.MustAddArc(1, 2)
	if d2.csr.Load() != nil {
		t.Fatal("AddArc kept the snapshot")
	}
	if !d2.HasArc(1, 2) || !d2.HasArc(0, 1) {
		t.Fatal("AddArc after Freeze lost arcs")
	}
}

func TestDigraphJournalRecordsToggles(t *testing.T) {
	d := NewDigraph(3)
	d.MustAddArc(0, 1)
	d.StartJournal()
	if _, err := d.ToggleArc(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ToggleArc(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	j := d.Journal()
	want := []EdgeDelta{
		{U: 1, V: 2, W: 3, Add: true},
		{U: 0, V: 1, W: 1, Add: false},
	}
	if len(j) != len(want) {
		t.Fatalf("journal %v, want %v", j, want)
	}
	for i := range want {
		if j[i] != want[i] {
			t.Fatalf("journal[%d] = %+v, want %+v", i, j[i], want[i])
		}
	}
	d.ClearJournal()
	if len(d.Journal()) != 0 {
		t.Fatal("ClearJournal kept entries")
	}
	d.MustAddArc(2, 0) // AddArc journals too
	if len(d.Journal()) != 1 || !d.Journal()[0].Add {
		t.Fatalf("AddArc journal = %v", d.Journal())
	}
}

// TestDigraphIncrementalHashMaintenance is the contract the directed
// delta-driven verifier rests on: folding ArcHash of each journaled delta
// into CutHash/HashWithin reproduces the recomputed hashes.
func TestDigraphIncrementalHashMaintenance(t *testing.T) {
	d := NewDigraph(6)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 3)
	d.MustAddWeightedArc(3, 4, 2)
	d.MustAddArc(4, 5)
	side := []bool{true, true, true, false, false, false}
	bob := []bool{false, false, false, true, true, true}
	cutH, aH, bH := d.CutHash(side), d.HashWithin(side), d.HashWithin(bob)
	d.StartJournal()
	toggles := [][3]int64{{0, 2, 1}, {1, 3, 1}, {3, 5, 9}, {0, 2, 1}, {4, 3, 1}}
	for _, tg := range toggles {
		if _, err := d.ToggleArc(int(tg[0]), int(tg[1]), tg[2]); err != nil {
			t.Fatal(err)
		}
		for _, a := range d.Journal() {
			h := ArcHash(a.U, a.V, a.W)
			switch {
			case side[a.U] != side[a.V]:
				cutH ^= h
			case side[a.U]:
				aH ^= h
			default:
				bH ^= h
			}
		}
		d.ClearJournal()
		if cutH != d.CutHash(side) || aH != d.HashWithin(side) || bH != d.HashWithin(bob) {
			t.Fatalf("incremental hashes diverged after toggle %v", tg)
		}
	}
}

func TestToggleArcSteadyStateDoesNotAllocate(t *testing.T) {
	d := NewDigraph(16)
	for v := 0; v < 15; v++ {
		d.MustAddArc(v, v+1)
	}
	d.Freeze()
	d.StartJournal()
	// Warm up slice capacities (journal, adjacency high-water marks).
	for i := 0; i < 4; i++ {
		if _, err := d.ToggleArc(0, 8, 1); err != nil {
			t.Fatal(err)
		}
		d.ClearJournal()
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.ToggleArc(0, 8, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ToggleArc(0, 8, 1); err != nil {
			t.Fatal(err)
		}
		d.ClearJournal()
	})
	if allocs > 0 {
		t.Errorf("steady-state ToggleArc allocates %.1f/run, want 0", allocs)
	}
}

// TestPatchableSnapshotPanicPaths covers the index.go panic branches: a
// splice against an edge the snapshot does not hold is an internal
// invariant violation and must panic rather than corrupt windows.
func TestPatchableSnapshotPanicPaths(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	c := g.Freeze()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("spliceRemove(missing)", func() { c.spliceRemove(0, 3) })
	mustPanic("setWeight(missing)", func() { c.setWeight(2, 3, 5) })
}

// TestMustAddArcPanics: MustAddArc must propagate the underlying AddArc
// error as a panic (duplicate arc, out-of-range endpoint, self loop).
func TestMustAddArcPanics(t *testing.T) {
	d := NewDigraph(3)
	d.MustAddArc(0, 1)
	for name, fn := range map[string]func(){
		"duplicate":    func() { d.MustAddArc(0, 1) },
		"out-of-range": func() { d.MustAddArc(0, 7) },
		"self-loop":    func() { d.MustAddArc(2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustAddArc %s did not panic", name)
				}
			}()
			fn()
		}()
	}
	// The antiparallel arc is legal and must not panic.
	d.MustAddArc(1, 0)
	if !d.HasArc(1, 0) {
		t.Fatal("antiparallel arc missing")
	}
}
