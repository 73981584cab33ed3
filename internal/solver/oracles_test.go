package solver

import (
	"math/rand"
	"testing"

	"congesthard/internal/graph"
)

// TestOraclesReusedAcrossSizesAgreeWithFreshCalls drives one oracle of
// each kind across random graphs of varying sizes — the arena-reuse
// pattern the verification workers rely on — and checks every verdict
// against a freshly constructed package-level call, or for the Steiner
// oracle against BruteSteinerTree.
func TestOraclesReusedAcrossSizesAgreeWithFreshCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var mds MDSOracle
	var cut MaxCutOracle
	var mis MaxISOracle
	var steiner SteinerOracle
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		g := graph.Gnp(n, 0.4, rng)
		for v := 0; v < n; v++ {
			if err := g.SetVertexWeight(v, int64(rng.Intn(3)+1)); err != nil {
				t.Fatal(err)
			}
		}

		size := 1 + rng.Intn(n)
		gotMDS, err := mds.HasDominatingSetOfSize(g, size)
		if err != nil {
			t.Fatal(err)
		}
		wantMDS, err := HasDominatingSetOfSize(g, size)
		if err != nil {
			t.Fatal(err)
		}
		if gotMDS != wantMDS {
			t.Fatalf("trial %d: MDS oracle %v, fresh %v (n=%d size=%d)", trial, gotMDS, wantMDS, n, size)
		}

		best, _, err := MaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []int64{best - 1, best, best + 1} {
			gotCut, err := cut.HasCutOfWeight(g, target)
			if err != nil {
				t.Fatal(err)
			}
			if want := best >= target; gotCut != want {
				t.Fatalf("trial %d: cut oracle(target=%d) %v, want %v (best %d)", trial, target, gotCut, want, best)
			}
		}

		wWant, _, err := MaxWeightIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		wGot, _, err := mis.MaxWeightIndependentSet(g)
		if err != nil {
			t.Fatal(err)
		}
		if wGot != wWant {
			t.Fatalf("trial %d: MaxIS oracle %d, fresh %d", trial, wGot, wWant)
		}
		aWant, _, err := MaxIndependentSetSize(g)
		if err != nil {
			t.Fatal(err)
		}
		aGot, _, err := mis.MaxIndependentSetSize(g)
		if err != nil {
			t.Fatal(err)
		}
		if aGot != aWant {
			t.Fatalf("trial %d: alpha oracle %d, fresh %d", trial, aGot, aWant)
		}

		terminals := []int{0, n - 1, n / 2}
		maxEdges := 1 + rng.Intn(n)
		gotST, err := steiner.HasSteinerTreeWithEdges(g, terminals, maxEdges)
		if err != nil {
			t.Fatal(err)
		}
		brute, errBrute := BruteSteinerTree(g, terminals) // Gnp edges weigh 1
		if wantST := errBrute == nil && brute <= int64(maxEdges); gotST != wantST {
			t.Fatalf("trial %d: steiner oracle %v at %d edges, brute %d (err %v)", trial, gotST, maxEdges, brute, errBrute)
		}
	}
}

// TestDirSteinerOracleAgreesWithFreshCalls drives one DirSteinerOracle
// across random sparse digraphs of varying sizes (mixed zero- and
// positive-weight arcs, like the Figure 6 instances) and checks every
// verdict against DirectedSteinerEnum. Digraphs with more positive arcs
// than the enumeration takes are drawn again, so 60 trials are checked.
func TestDirSteinerOracleAgreesWithFreshCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var oracle DirSteinerOracle
	for trial := 0; trial < 60; {
		n := 4 + rng.Intn(8)
		d := graph.NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.25 {
					w := int64(rng.Intn(3)) // weights 0..2, many free arcs
					d.MustAddWeightedArc(u, v, w)
				}
			}
		}
		root := rng.Intn(n)
		terminals := []int{rng.Intn(n), rng.Intn(n)}
		budget := int64(rng.Intn(4))
		best, errEnum := DirectedSteinerEnum(d, root, terminals)
		if errEnum != nil && errEnum.Error() != "terminals not reachable from root" {
			continue // more positive arcs than the enumeration takes
		}
		got, err := oracle.HasDirectedSteinerWithin(d, root, terminals, budget)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := errEnum == nil && best <= budget; got != want {
			t.Fatalf("trial %d: oracle %v, enumeration %d (err %v) (n=%d root=%d terms=%v budget=%d)",
				trial, got, best, errEnum, n, root, terminals, budget)
		}
		trial++
	}
	if _, err := oracle.HasDirectedSteinerWithin(graph.NewDigraph(3), 7, nil, 1); err == nil {
		t.Error("out-of-range root accepted")
	}
}

// TestDirectedSteinerNegativeBudget: no subgraph weighs less than 0, so a
// negative budget is NO even when zero-weight arcs reach every terminal.
func TestDirectedSteinerNegativeBudget(t *testing.T) {
	d := graph.NewDigraph(2)
	d.MustAddWeightedArc(0, 1, 0)
	for budget, want := range map[int64]bool{-1: false, 0: true} {
		if got, err := HasDirectedSteinerWithin(d, 0, []int{1}, budget); err != nil || got != want {
			t.Errorf("budget %d: %v (err %v), want %v", budget, got, err, want)
		}
	}
}

// TestNodeSteinerNegativeBudget: the empty terminal list needs the empty
// subgraph, which weighs 0, so it fits any budget of at least 0 and no
// negative one.
func TestNodeSteinerNegativeBudget(t *testing.T) {
	g := graph.Path(2)
	for budget, want := range map[int64]bool{-1: false, 0: true} {
		if got, err := HasNodeSteinerWithin(g, nil, budget); err != nil || got != want {
			t.Errorf("budget %d: %v (err %v), want %v", budget, got, err, want)
		}
	}
}

// TestNodeSteinerWithinAgreesWithEnum checks HasNodeSteinerWithin against
// the reference enumeration NodeWeightedSteinerEnum on random graphs with
// vertex weights 0..2 and one to three terminals, repeats allowed (a
// repeated terminal is paid for once), at every budget from -1 to 6.
// Terminals that no subgraph connects answer NO at every budget.
func TestNodeSteinerWithinAgreesWithEnum(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(11)
		g := graph.Gnp(n, 0.2+0.4*rng.Float64(), rng)
		for v := 0; v < n; v++ {
			if err := g.SetVertexWeight(v, int64(rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
		terminals := make([]int, 1+rng.Intn(3))
		for i := range terminals {
			terminals[i] = rng.Intn(n)
		}
		best, err := NodeWeightedSteinerEnum(g, terminals)
		connectable := err == nil
		for budget := int64(-1); budget <= 6; budget++ {
			got, err := HasNodeSteinerWithin(g, terminals, budget)
			if err != nil {
				t.Fatal(err)
			}
			if want := connectable && best <= budget; got != want {
				t.Fatalf("trial %d (n=%d edges=%v weights=%v terminals=%v) budget %d: %v, enumeration minimum %d (connectable %v)",
					trial, n, g.Edges(), vertexWeights(g), terminals, budget, got, best, connectable)
			}
		}
	}
}

func vertexWeights(g *graph.Graph) []int64 {
	w := make([]int64, g.N())
	for v := range w {
		w[v] = g.VertexWeight(v)
	}
	return w
}
