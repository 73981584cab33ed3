package solver

import (
	"math/rand"
	"testing"

	"congesthard/internal/graph"
)

func TestHamiltonianPathKnown(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
		want  bool
	}{
		{name: "path", build: func() *graph.Graph { return graph.Path(6) }, want: true},
		{name: "cycle", build: func() *graph.Graph { c, _ := graph.Cycle(5); return c }, want: true},
		{name: "complete", build: func() *graph.Graph { return graph.Complete(6) }, want: true},
		{name: "star big", build: func() *graph.Graph { return graph.Star(5) }, want: false},
		{name: "disconnected", build: func() *graph.Graph {
			g := graph.New(4)
			g.MustAddEdge(0, 1)
			g.MustAddEdge(2, 3)
			return g
		}, want: false},
		{name: "K2,3 near-balanced", build: func() *graph.Graph { return graph.CompleteBipartite(2, 3) }, want: true},
		{name: "K2,4 unbalanced", build: func() *graph.Graph { return graph.CompleteBipartite(2, 4) }, want: false},
		{name: "K3,3 balanced", build: func() *graph.Graph { return graph.CompleteBipartite(3, 3) }, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			path, found, err := HamiltonianPath(g)
			if err != nil {
				t.Fatal(err)
			}
			if found != tc.want {
				t.Errorf("found = %v, want %v", found, tc.want)
			}
			if found {
				d := graph.NewDigraph(g.N())
				for _, e := range g.Edges() {
					d.MustAddArc(e.U, e.V)
					d.MustAddArc(e.V, e.U)
				}
				if !IsDirectedHamiltonianPath(d, path) {
					t.Errorf("returned path invalid: %v", path)
				}
			}
		})
	}
}

func TestHamiltonianPathAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		g := graph.Gnp(9, 0.3, rng)
		want, err := BruteHamiltonianPath(g)
		if err != nil {
			t.Fatal(err)
		}
		_, found, err := HamiltonianPath(g)
		if err != nil {
			t.Fatal(err)
		}
		if found != want {
			t.Fatalf("trial %d: solver %v, brute %v", trial, found, want)
		}
	}
}

func TestHamiltonianCycle(t *testing.T) {
	cyc, _ := graph.Cycle(7)
	cycle, found, err := HamiltonianCycle(cyc)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("cycle graph has no Hamiltonian cycle?")
	}
	if !IsHamiltonianCycle(cyc, cycle) {
		t.Errorf("returned cycle invalid: %v", cycle)
	}
	_, found, err = HamiltonianCycle(graph.Path(5))
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("path has a Hamiltonian cycle?")
	}
	// Petersen-like check: K4 minus an edge still has a Ham cycle.
	g := graph.Complete(4)
	_, found, err = HamiltonianCycle(g)
	if err != nil || !found {
		t.Errorf("K4 cycle: %v %v", found, err)
	}
}

func TestHamiltonianCyclePlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g, _ := graph.HamiltonianGnp(14, 0.1, rng)
		cycle, found, err := HamiltonianCycle(g)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatal("planted Hamiltonian cycle not found")
		}
		if !IsHamiltonianCycle(g, cycle) {
			t.Fatal("returned cycle invalid")
		}
	}
}

func TestDirectedHamiltonianPathFrom(t *testing.T) {
	// Directed path 0 -> 1 -> 2 -> 3.
	d := graph.NewDigraph(4)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 2)
	d.MustAddArc(2, 3)
	path, found, err := DirectedHamiltonianPathFrom(d, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !found || !IsDirectedHamiltonianPath(d, path) {
		t.Errorf("directed path not found: %v %v", path, found)
	}
	// Wrong direction: no path starting at 3.
	_, found, err = DirectedHamiltonianPathFrom(d, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("path against arc directions found")
	}
	if _, _, err := DirectedHamiltonianPathFrom(d, -1, 0); err == nil {
		t.Error("bad endpoint accepted")
	}
}

func TestDirectedHamiltonianCycle(t *testing.T) {
	d := graph.NewDigraph(4)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 2)
	d.MustAddArc(2, 3)
	_, found, err := DirectedHamiltonianCycle(d)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("open path reported as cycle")
	}
	d.MustAddArc(3, 0)
	cycle, found, err := DirectedHamiltonianCycle(d)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("directed 4-cycle not found")
	}
	if len(cycle) != 4 || !d.HasArc(cycle[3], cycle[0]) {
		t.Errorf("cycle malformed: %v", cycle)
	}
}

func TestDirectedHamPathSingleVertex(t *testing.T) {
	d := graph.NewDigraph(1)
	path, found, err := DirectedHamiltonianPathFrom(d, 0, -1)
	if err != nil || !found || len(path) != 1 {
		t.Errorf("single vertex: %v %v %v", path, found, err)
	}
}

func TestSplitDirectedReductionAgreement(t *testing.T) {
	// Lemma 2.2's reduction: directed Ham cycle in D iff (undirected) Ham
	// cycle in SplitDirected(D).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		d := graph.RandomDigraph(6, 0.35, rng)
		_, wantCycle, err := DirectedHamiltonianCycle(d)
		if err != nil {
			t.Fatal(err)
		}
		split := d.SplitDirected()
		_, gotCycle, err := HamiltonianCycle(split)
		if err != nil {
			t.Fatal(err)
		}
		if wantCycle != gotCycle {
			t.Fatalf("trial %d: directed HC %v but split HC %v", trial, wantCycle, gotCycle)
		}
	}
}

func TestIsHamiltonianCycleValidation(t *testing.T) {
	cyc, _ := graph.Cycle(4)
	if !IsHamiltonianCycle(cyc, []int{0, 1, 2, 3}) {
		t.Error("valid cycle rejected")
	}
	if IsHamiltonianCycle(cyc, []int{0, 2, 1, 3}) {
		t.Error("non-adjacent sequence accepted")
	}
	if IsHamiltonianCycle(cyc, []int{0, 1, 2}) {
		t.Error("short sequence accepted")
	}
	if IsHamiltonianCycle(cyc, []int{0, 1, 2, 2}) {
		t.Error("repeat accepted")
	}
}

// TestHamiltonOracleMatchesBrute cross-checks the oracle's decision and
// the path it returns against BruteDirectedHamiltonianPath on random
// digraphs, for fixed-end, free-end and start == end queries. The path
// comes from the search at a forced width, 1 to 64 words in turn.
func TestHamiltonOracleMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var o, wide HamiltonOracle
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(11)
		d := graph.RandomDigraph(n, 0.2+0.4*rng.Float64(), rng)
		start := rng.Intn(n)
		end := rng.Intn(n+1) - 1 // -1 means any endpoint
		want, err := BruteDirectedHamiltonianPath(d, start, end)
		if err != nil {
			t.Fatal(err)
		}
		path, found, err := wide.pathFrom(d, start, end, 1<<(trial%7))
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.HasDirectedHamiltonianPathFrom(d, start, end)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || found != want {
			t.Fatalf("trial %d (n=%d start=%d end=%d): oracle %v, %d-word search %v, brute %v",
				trial, n, start, end, got, 1<<(trial%7), found, want)
		}
		if found && (!IsDirectedHamiltonianPath(d, path) || path[0] != start || (end >= 0 && path[n-1] != end)) {
			t.Fatalf("trial %d (n=%d start=%d end=%d): returned %v", trial, n, start, end, path)
		}
	}
}

// TestHamiltonOracleLargeFallback exercises the oracle's two-word search
// above 64 vertices, the path it returns, and one oracle reused across
// widths 2 -> 1 -> 2.
func TestHamiltonOracleLargeFallback(t *testing.T) {
	var o HamiltonOracle
	big := graph.NewDigraph(70)
	for v := 0; v < 69; v++ {
		big.MustAddArc(v, v+1)
	}
	big.MustAddArc(68, 3) // a back arc the search must not take
	path, found, err := o.DirectedHamiltonianPathFrom(big, 0, 69)
	if err != nil || !found {
		t.Fatalf("70-vertex directed path: found=%v err=%v", found, err)
	}
	if !IsDirectedHamiltonianPath(big, path) || path[0] != 0 || path[69] != 69 {
		t.Fatalf("70-vertex directed path: returned %v", path)
	}
	found, err = o.HasDirectedHamiltonianPathFrom(big, 1, 69)
	if err != nil || found {
		t.Fatalf("path skipping vertex 0 reported: found=%v err=%v", found, err)
	}
	small := graph.NewDigraph(3)
	small.MustAddArc(0, 1)
	small.MustAddArc(1, 2)
	found, err = o.HasDirectedHamiltonianPathFrom(small, 0, 2)
	if err != nil || !found {
		t.Fatalf("oracle reuse after resize: found=%v err=%v", found, err)
	}
	if _, err := o.HasDirectedHamiltonianPathFrom(small, 5, 2); err == nil {
		t.Error("out-of-range start accepted")
	}
	path, found, err = o.DirectedHamiltonianPathFrom(big, 0, -1)
	if err != nil || !found || !IsDirectedHamiltonianPath(big, path) || path[0] != 0 {
		t.Fatalf("70-vertex path after the one-word search: %v found=%v err=%v", path, found, err)
	}
	if _, err := o.HasDirectedHamiltonianPathFrom(graph.NewDigraph(4097), 0, -1); err == nil ||
		err.Error() != "hamiltonian search limited to 4096 vertices, got 4097" {
		t.Errorf("4097 vertices: error %v", err)
	}
}

// TestHamiltonOracleSteadyStateDoesNotAllocate: repeated decisions on the
// same digraph must reuse the arena.
func TestHamiltonOracleSteadyStateDoesNotAllocate(t *testing.T) {
	d := graph.NewDigraph(12)
	for v := 0; v < 11; v++ {
		d.MustAddArc(v, v+1)
	}
	d.MustAddArc(3, 1)
	var o HamiltonOracle
	if _, err := o.HasDirectedHamiltonianPathFrom(d, 0, 11); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := o.HasDirectedHamiltonianPathFrom(d, 0, 11); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state oracle decision allocates %.1f/run, want 0", allocs)
	}
}
