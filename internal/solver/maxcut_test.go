package solver

import (
	"math/rand"
	"slices"
	"testing"

	"congesthard/internal/graph"
)

func TestMaxCutKnown(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
		want  int64
	}{
		{name: "single edge", build: func() *graph.Graph { return graph.Path(2) }, want: 1},
		{name: "path4", build: func() *graph.Graph { return graph.Path(4) }, want: 3},
		{name: "cycle4", build: func() *graph.Graph { c, _ := graph.Cycle(4); return c }, want: 4},
		{name: "cycle5 odd", build: func() *graph.Graph { c, _ := graph.Cycle(5); return c }, want: 4},
		{name: "K4", build: func() *graph.Graph { return graph.Complete(4) }, want: 4},
		{name: "K3,3 bipartite", build: func() *graph.Graph { return graph.CompleteBipartite(3, 3) }, want: 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			got, side, err := MaxCut(g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("max cut = %d, want %d", got, tc.want)
			}
			if w := g.CutWeight(side); w != got {
				t.Errorf("returned side realizes %d, reported %d", w, got)
			}
		})
	}
}

// TestMaxCutAgainstBrute checks MaxCut's value against BruteMaxCut, its
// side vector against the value, and the side vector against the tie
// rule: the optimum of smallest mask Σ_{side[v]} 2^(v−1) with vertex 0 on
// side false, found here by enumerating the masks in order. Unit weights
// make ties common; some trials negate every third edge.
func TestMaxCutAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g := graph.GnpWeighted(12, 0.4, []int64{10, 1}[trial%2], rng)
		if trial%4 >= 2 {
			for i, e := range g.Edges() {
				if i%3 == 0 {
					if err := g.SetEdgeWeight(e.U, e.V, -e.Weight); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		want, err := BruteMaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		got, side, err := MaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: MaxCut = %d, brute = %d", trial, got, want)
		}
		if w := g.CutWeight(side); w != got {
			t.Fatalf("trial %d: returned side realizes %d, reported %d", trial, w, got)
		}
		if first := smallestMaskOptimum(g, want); !slices.Equal(side, first) {
			t.Fatalf("trial %d: returned side %v, smallest-mask optimum %v", trial, side, first)
		}
	}
}

// smallestMaskOptimum returns the first side vector of weight opt in the
// order of the masks Σ_{side[v]} 2^(v−1), vertex 0 on side false.
func smallestMaskOptimum(g *graph.Graph, opt int64) []bool {
	n := g.N()
	side := make([]bool, n)
	for mask := 0; mask < 1<<(n-1); mask++ {
		for v := 1; v < n; v++ {
			side[v] = mask>>(v-1)&1 == 1
		}
		if g.CutWeight(side) == opt {
			return side
		}
	}
	return nil
}

func TestMaxCutEdgeCases(t *testing.T) {
	got, _, err := MaxCut(graph.New(0))
	if err != nil || got != 0 {
		t.Errorf("empty graph: %d, %v", got, err)
	}
	got, _, err = MaxCut(graph.New(1))
	if err != nil || got != 0 {
		t.Errorf("single vertex: %d, %v", got, err)
	}
	// No size cap: 40 isolated vertices cut nothing, all on side false.
	got, side, err := MaxCut(graph.New(40))
	if err != nil || got != 0 || slices.Contains(side, true) {
		t.Errorf("40 isolated vertices: %d %v, %v", got, side, err)
	}
}

func TestHasCutOfWeight(t *testing.T) {
	g := graph.CompleteBipartite(2, 3)
	ok, err := HasCutOfWeight(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("bipartite cut of weight 6 exists")
	}
	ok, err = HasCutOfWeight(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("cut of weight 7 claimed with only 6 edges")
	}
}
