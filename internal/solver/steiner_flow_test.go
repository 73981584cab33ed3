package solver

import (
	"math/rand"
	"testing"

	"congesthard/internal/graph"
)

func TestIsSteinerTree(t *testing.T) {
	g := graph.Star(5)
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}}
	w, ok := IsSteinerTree(g, []int{1, 2}, edges)
	if !ok || w != 2 {
		t.Errorf("valid tree rejected: w=%d ok=%v", w, ok)
	}
	// Cycle rejected.
	cyc, _ := graph.Cycle(3)
	bad := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}
	if _, ok := IsSteinerTree(cyc, []int{0, 1}, bad); ok {
		t.Error("cycle accepted as tree")
	}
	// Terminal not spanned.
	if _, ok := IsSteinerTree(g, []int{1, 3}, edges); ok {
		t.Error("unspanned terminal accepted")
	}
	// Edge not in graph.
	if _, ok := IsSteinerTree(g, []int{1, 2}, []graph.Edge{{U: 1, V: 2}}); ok {
		t.Error("phantom edge accepted")
	}
}

// TestSteinerDecisionCountsDistinctTerminals pins that a repeated
// terminal does not eat into the non-terminal budget: on the path 0-1-2
// the terminals {0, 2, 2} need exactly the 2-edge path, and {0, 0} the
// empty tree. With no terminals the empty tree answers any budget of at
// least 0 and no negative one, before the subset guard.
func TestSteinerDecisionCountsDistinctTerminals(t *testing.T) {
	path, empty := graph.Path(3), graph.New(100)
	for _, tc := range []struct {
		g         *graph.Graph
		terminals []int
		maxEdges  int
		want      bool
	}{
		{path, []int{0, 2, 2}, 2, true},
		{path, []int{0, 2, 2}, 1, false},
		{path, []int{0, 0}, 0, true},
		{path, []int{2, 0, 2, 0}, 2, true},
		{path, nil, -1, false},
		{path, nil, 0, true},
		{empty, nil, 10, true},
	} {
		if tc.g.N() <= 16 {
			brute, err := BruteSteinerTree(tc.g, tc.terminals)
			if err != nil {
				t.Fatal(err)
			}
			if want := brute <= int64(tc.maxEdges); want != tc.want {
				t.Fatalf("terminals %v: brute %d disagrees with the expected %v at %d edges", tc.terminals, brute, tc.want, tc.maxEdges)
			}
		}
		got, err := HasSteinerTreeWithEdges(tc.g, tc.terminals, tc.maxEdges)
		if err != nil || got != tc.want {
			t.Errorf("n=%d terminals %v, maxEdges %d: package function %v (err %v), want %v", tc.g.N(), tc.terminals, tc.maxEdges, got, err, tc.want)
		}
		for _, words := range []int{1, 2} {
			got, err := new(SteinerOracle).decide(tc.g, tc.terminals, tc.maxEdges, words)
			if err != nil || got != tc.want {
				t.Errorf("n=%d terminals %v, maxEdges %d (words=%d): %v (err %v), want %v", tc.g.N(), tc.terminals, tc.maxEdges, words, got, err, tc.want)
			}
		}
	}
}

// TestSteinerOracleMultiWordAgreesWithBrute covers what the fuzzer's
// graphs (at most 20 vertices) cannot: graphs of 65 to 80 vertices, with
// terminals and non-terminals on both sides of a word boundary, at every
// width from 2 to 64 words. Ten non-terminals keep BruteSteinerTree cheap;
// each terminal links to one or two of them and rarely to another
// terminal, so the cover bound is exercised. One oracle is reused across
// the varying sizes and widths; the package function runs the narrowest.
// Past 64 words, at 4097 vertices, the oracle returns its size error.
func TestSteinerOracleMultiWordAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var o SteinerOracle
	for trial := 0; trial < 12; trial++ {
		n := 65 + rng.Intn(16)
		perm := rng.Perm(n)
		others, terminals := perm[:10], perm[10:]
		g := graph.New(n)
		for i, u := range others {
			for _, v := range others[i+1:] {
				if rng.Float64() < 0.25 {
					g.MustAddEdge(u, v)
				}
			}
		}
		for i, u := range terminals {
			a := rng.Intn(len(others))
			g.MustAddEdge(u, others[a])
			if rng.Intn(2) == 0 {
				g.MustAddEdge(u, others[(a+1+rng.Intn(len(others)-1))%len(others)])
			}
			for _, v := range terminals[i+1:] {
				if rng.Float64() < 0.02 {
					g.MustAddEdge(u, v)
				}
			}
		}
		brute, errBrute := BruteSteinerTree(g, terminals)
		for _, maxEdges := range []int{int(brute) - 1, int(brute), n - 1} {
			want := errBrute == nil && brute <= int64(maxEdges)
			if got, err := HasSteinerTreeWithEdges(g, terminals, maxEdges); err != nil || got != want {
				t.Fatalf("trial %d (n=%d, maxEdges=%d): package function %v (err %v), brute %d (err %v)", trial, n, maxEdges, got, err, brute, errBrute)
			}
			for words := 2; words <= 64; words *= 2 {
				got, err := o.decide(g, terminals, maxEdges, words)
				if err != nil || got != want {
					t.Fatalf("trial %d (n=%d, maxEdges=%d, words=%d): oracle %v (err %v), brute %d (err %v)", trial, n, maxEdges, words, got, err, brute, errBrute)
				}
			}
		}
	}
	if _, err := o.HasSteinerTreeWithEdges(graph.New(4097), []int{0}, 0); err == nil ||
		err.Error() != "steiner search limited to 4096 vertices, got 4097" {
		t.Errorf("4097 vertices: error %v", err)
	}
}

// TestSteinerTerminalOutOfRange checks that every Steiner entry point
// rejects a terminal outside the graph with an error instead of a panic.
func TestSteinerTerminalOutOfRange(t *testing.T) {
	const want = "terminal 5 out of range"
	g := graph.Path(3)
	d := graph.NewDigraph(3)
	d.MustAddWeightedArc(0, 1, 1)
	var dirOracle DirSteinerOracle
	for name, call := range map[string]func() error{
		"HasSteinerTreeWithEdges": func() error { _, err := HasSteinerTreeWithEdges(g, []int{0, 5}, 2); return err },
		"NodeWeightedSteinerEnum": func() error { _, err := NodeWeightedSteinerEnum(g, []int{5}); return err },
		"HasNodeSteinerWithin":    func() error { _, err := HasNodeSteinerWithin(g, []int{5}, 1); return err },
		"HasDirectedSteinerWithin": func() error {
			_, err := HasDirectedSteinerWithin(d, 0, []int{5}, 1)
			return err
		},
		"DirSteinerOracle.HasDirectedSteinerWithin": func() error {
			_, err := dirOracle.HasDirectedSteinerWithin(d, 0, []int{5}, 1)
			return err
		},
		"DirectedSteinerEnum": func() error { _, err := DirectedSteinerEnum(d, 0, []int{5}); return err },
	} {
		if err := call(); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
	if _, err := DirectedSteinerEnum(d, 3, nil); err == nil {
		t.Error("DirectedSteinerEnum accepted an out-of-range root")
	}
}

func TestNodeWeightedSteinerEnum(t *testing.T) {
	// Terminals 0 and 2 (weight 0) joined either directly via vertex 1
	// (weight 5) or via vertices 3,4 (weight 1 each).
	g := graph.New(5)
	for v := 0; v < 5; v++ {
		if err := g.SetVertexWeight(v, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetVertexWeight(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexWeight(3, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetVertexWeight(4, 1); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 2)
	w, err := NodeWeightedSteinerEnum(g, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if w != 2 {
		t.Errorf("node-weighted steiner = %d, want 2", w)
	}
}

func TestDirectedSteinerEnum(t *testing.T) {
	// root 0; terminal 3 reachable via expensive arc (0,3) w=5 or free
	// path through 1 with one weight-1 arc.
	d := graph.NewDigraph(4)
	d.MustAddWeightedArc(0, 3, 5)
	d.MustAddWeightedArc(0, 1, 1)
	d.MustAddWeightedArc(1, 3, 0)
	w, err := DirectedSteinerEnum(d, 0, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 {
		t.Errorf("directed steiner = %d, want 1", w)
	}
	if _, err := DirectedSteinerEnum(d, 3, []int{0}); err == nil {
		t.Error("unreachable terminal accepted")
	}
}

func TestMaxFlowKnown(t *testing.T) {
	// Classic diamond: 0 -> {1,2} -> 3 with capacities.
	d := graph.NewDigraph(4)
	d.MustAddWeightedArc(0, 1, 3)
	d.MustAddWeightedArc(0, 2, 2)
	d.MustAddWeightedArc(1, 3, 2)
	d.MustAddWeightedArc(2, 3, 3)
	flow, _, err := MaxFlow(d, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 4 {
		t.Errorf("max flow = %d, want 4", flow)
	}
}

func TestMaxFlowWithAugmentingPath(t *testing.T) {
	// Requires flow rerouting through the middle arc.
	d := graph.NewDigraph(4)
	d.MustAddWeightedArc(0, 1, 1)
	d.MustAddWeightedArc(0, 2, 1)
	d.MustAddWeightedArc(1, 2, 1)
	d.MustAddWeightedArc(1, 3, 1)
	d.MustAddWeightedArc(2, 3, 1)
	flow, _, err := MaxFlow(d, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if flow != 2 {
		t.Errorf("max flow = %d, want 2", flow)
	}
}

func TestMaxFlowErrors(t *testing.T) {
	d := graph.NewDigraph(2)
	if _, _, err := MaxFlow(d, 0, 0); err == nil {
		t.Error("s == t accepted")
	}
	if _, _, err := MaxFlow(d, 0, 5); err == nil {
		t.Error("out-of-range sink accepted")
	}
	if _, _, err := MaxFlow(d, 0, 1); err != nil {
		t.Error("disconnected flow should be 0, not error")
	}
}

func TestMaxMatchingKnown(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
		want  int
	}{
		{name: "path4", build: func() *graph.Graph { return graph.Path(4) }, want: 2},
		{name: "path5", build: func() *graph.Graph { return graph.Path(5) }, want: 2},
		{name: "K4", build: func() *graph.Graph { return graph.Complete(4) }, want: 2},
		{name: "star", build: func() *graph.Graph { return graph.Star(6) }, want: 1},
		{name: "C5", build: func() *graph.Graph { c, _ := graph.Cycle(5); return c }, want: 2},
		{name: "K3,3", build: func() *graph.Graph { return graph.CompleteBipartite(3, 3) }, want: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			size, edges, err := MaxMatching(g)
			if err != nil {
				t.Fatal(err)
			}
			if size != tc.want {
				t.Errorf("nu = %d, want %d", size, tc.want)
			}
			if !IsMatching(g, edges) || len(edges) != size {
				t.Errorf("matching invalid: %v", edges)
			}
		})
	}
}

func TestMaxMatchingAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	trials := 0
	for trials < 20 {
		g := graph.Gnp(9, 0.3, rng)
		if g.M() > 20 {
			continue
		}
		trials++
		want, err := BruteMaxMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := MaxMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("matching solver %d, brute %d", got, want)
		}
	}
}

func TestTutteBergeCertificate(t *testing.T) {
	// Star K1,4: removing the center leaves 4 odd components, so
	// deficiency(center) = 4 - 1 = 3 and matching = (5-3)/2 = 1.
	g := graph.Star(5)
	if d := TutteBergeDeficiency(g, []int{0}); d != 3 {
		t.Errorf("deficiency = %d, want 3", d)
	}
	if !VerifyMatchingUpperBoundWitness(g, []int{0}, 1) {
		t.Error("certificate for nu <= 1 rejected")
	}
	if VerifyMatchingUpperBoundWitness(g, []int{0}, 0) {
		t.Error("certificate for nu <= 0 accepted (nu is 1)")
	}
}

// Tutte-Berge formula consistency: for random graphs the maximum over
// sampled U of the bound equals the true matching number at U = best.
func TestTutteBergeNeverBelowMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 15; trial++ {
		g := graph.Gnp(8, 0.4, rng)
		nu, _, err := MaxMatching(g)
		if err != nil {
			t.Fatal(err)
		}
		// For every subset U, (n - deficiency(U))/2 >= nu.
		for mask := 0; mask < 1<<8; mask++ {
			u := maskToSet(mask, 8)
			d := TutteBergeDeficiency(g, u)
			if (g.N()-d)/2 < nu {
				t.Fatalf("Tutte-Berge violated at U=%v: bound %d < nu %d", u, (g.N()-d)/2, nu)
			}
		}
	}
}

func TestTwoECSS(t *testing.T) {
	cyc, _ := graph.Cycle(5)
	ok, err := HasTwoECSSWithEdges(cyc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("cycle is its own 2-ECSS with n edges")
	}
	ok, err = HasTwoECSSWithEdges(graph.Path(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("path has no 2-ECSS")
	}
	// K4 has a 2-ECSS with 4 edges (a 4-cycle) and with 5.
	k4 := graph.Complete(4)
	ok, err = HasTwoECSSWithEdges(k4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("K4 should have a 5-edge 2-ECSS")
	}
}

func TestTwoSpanner(t *testing.T) {
	g := graph.Complete(4)
	star := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}
	if !IsTwoSpanner(g, star) {
		t.Error("star is a 2-spanner of K4")
	}
	if IsTwoSpanner(g, star[:2]) {
		t.Error("partial star accepted as 2-spanner")
	}
	w, err := MinTwoSpannerWeight(g)
	if err != nil {
		t.Fatal(err)
	}
	if w != 3 {
		t.Errorf("min 2-spanner of K4 = %d, want 3 (a star)", w)
	}
}
