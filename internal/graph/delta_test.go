package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// sameAsFresh fails unless c, the snapshot a graph kept through its
// mutations, equals a fresh build of adj window for window.
func sameAsFresh(t *testing.T, step int, c *CSR, adj [][]Half) {
	t.Helper()
	if c == nil {
		t.Fatalf("step %d: the mutation dropped the snapshot", step)
	}
	fresh := newCSR(adj, initialSlack)
	if c.N() != fresh.N() {
		t.Fatalf("step %d: snapshot has %d vertices, want %d", step, c.N(), fresh.N())
	}
	for a := range fresh.N() {
		nbr, wt := c.Window(a)
		fnbr, fwt := fresh.Window(a)
		if !slices.Equal(nbr, fnbr) || !slices.Equal(wt, fwt) {
			t.Fatalf("step %d: window(%d) = %v %v, want %v %v", step, a, nbr, wt, fnbr, fwt)
		}
	}
}

// TestToggleEdgePatchesSnapshotInPlace drives ToggleEdge and
// SetEdgeWeight with random toggles and reweights and checks the spliced
// Freeze snapshot, and the edge list read off it, against fresh builds
// after every step.
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
	first := g.Freeze()
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
		sameAsFresh(t, step, g.csr.Load(), g.adj) // overflow may have rebuilt it
		if got, want := g.Edges(), g.Clone().Edges(); !slices.Equal(got, want) {
			t.Fatalf("step %d: snapshot edges %v, want %v", step, got, want)
		}
	}
	if g.Freeze() == first {
		t.Fatal("no toggle overflowed a window: the rebuild path went untested")
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
	g.Freeze()
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

// TestConcurrentSnapshotReaders runs concurrent readers (Freeze and every
// query the snapshot answers) on a graph and a digraph whose snapshots
// were spliced by a toggle sequence, and on unfrozen clones whose first
// Freeze the readers race to build. Run it under -race: a reader that
// wrote to the shared snapshot, or a Freeze that published it unsafely,
// shows up there.
func TestConcurrentSnapshotReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, readers = 10, 4
	g, d := New(n), NewDigraph(n)
	g.Freeze()
	d.Freeze()
	for step := 0; step < 200; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		w := int64(rng.Intn(5) + 1)
		if _, err := g.ToggleEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ToggleArc(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	wantEdges, wantArcs := g.Clone().Edges(), d.Clone().Arcs()
	for _, fresh := range []bool{false, true} {
		g, d := g, d
		if fresh {
			g, d = g.Clone(), d.Clone()
		}
		errs := make(chan string, 2*readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				c := g.Freeze()
				for u := range n {
					nbr, wt := c.Window(u)
					for i, v := range nbr {
						if got, ok := g.EdgeWeight(u, int(v)); !ok || got != wt[i] || !g.HasEdge(int(v), u) {
							errs <- "graph window disagrees with EdgeWeight/HasEdge"
							return
						}
					}
				}
				if !slices.Equal(g.Edges(), wantEdges) {
					errs <- "graph Edges disagrees with its adjacency"
				}
			}()
			go func() {
				defer wg.Done()
				c := d.Freeze()
				arcs := 0
				for u := range n {
					nbr, wt := c.Window(u)
					for i, v := range nbr {
						if got, ok := d.ArcWeight(u, int(v)); !ok || got != wt[i] || !d.HasArc(u, int(v)) {
							errs <- "digraph window disagrees with ArcWeight/HasArc"
							return
						}
					}
					arcs += len(nbr)
				}
				if arcs != len(wantArcs) || !slices.Equal(d.Arcs(), wantArcs) {
					errs <- "digraph snapshot disagrees with its arcs"
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("fresh=%v: %s", fresh, e)
		}
	}
}

// TestFreezeAllocationsIndependentOfN pins newCSR's allocations: one
// Freeze makes the snapshot and its four arrays whatever the vertex
// count, since the windows are sorted in place.
func TestFreezeAllocationsIndependentOfN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{40, 160} {
		g := Gnp(n, 0.3, rng)
		edges := g.Edges()
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		allocs := testing.AllocsPerRun(20, func() {
			g.Recycle(n)
			for _, e := range edges { // shuffled, so windows arrive unsorted
				g.MustAddWeightedEdge(e.U, e.V, e.Weight)
			}
			g.Freeze()
		})
		if allocs > 5 {
			t.Fatalf("Recycle, AddEdge and Freeze of a %d-vertex graph allocate %.1f times, want at most 5", n, allocs)
		}
		sameAsFresh(t, 0, g.Freeze(), g.adj)
	}
}

// TestSortWindow checks sortWindow against slices.Sort on windows of
// every length up to 40, weights travelling with their neighbors.
func TestSortWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 40; n++ {
		nbr := make([]int32, n)
		wt := make([]int64, n)
		for i, v := range rng.Perm(3 * n)[:n] {
			nbr[i], wt[i] = int32(v), int64(v)*10+1
		}
		want := slices.Clone(nbr)
		slices.Sort(want)
		sortWindow(nbr, wt)
		if !slices.Equal(nbr, want) {
			t.Fatalf("n=%d: sorted to %v, want %v", n, nbr, want)
		}
		for i, v := range nbr {
			if wt[i] != int64(v)*10+1 {
				t.Fatalf("n=%d: weight %d travelled apart from neighbor %d", n, wt[i], v)
			}
		}
	}
}
