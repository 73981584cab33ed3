package algorithms

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// runCollect runs the gossip collect program on g and returns the summed
// root values plus the run result.
func runCollect(t *testing.T, g *graph.Graph, spec CollectSpec) (int64, *congest.Result) {
	t.Helper()
	factory, budget, err := CollectFactory(g, 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := congest.Run(g, factory, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != budget+1 {
		t.Errorf("rounds = %d, want budget+1 = %d", res.Rounds, budget+1)
	}
	total, err := CollectTotal(res)
	if err != nil {
		t.Fatal(err)
	}
	return total, res
}

func TestCollectReconstructsGraphExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*graph.Graph{graph.Path(9), graph.Star(8), graph.Complete(7)}
	for n := 6; n <= 14; n += 4 {
		g := graph.Gnp(n, 0.4, rng)
		for !g.IsConnected() {
			g = graph.Gnp(n, 0.4, rng)
		}
		cases = append(cases, g)
		w := graph.GnpWeighted(n, 0.5, 1000, rng)
		for !w.IsConnected() {
			w = graph.GnpWeighted(n, 0.5, 1000, rng)
		}
		cases = append(cases, w)
	}
	for i, g := range cases {
		want := g.Signature()
		total, _ := runCollect(t, g, CollectSpec{
			Eval: func(collected *graph.Graph) (int64, error) {
				// A connected graph has one root whose component is the
				// whole graph, reindexed by the identity.
				if collected.Signature() == want {
					return 1, nil
				}
				return 0, nil
			},
		})
		if total != 1 {
			t.Errorf("case %d (%v): root reconstruction differs from the input graph", i, g)
		}
	}
}

func TestCollectDisconnectedComponents(t *testing.T) {
	// Two components: a triangle {0,1,2} and an edge {3,4}, plus the
	// isolated vertex 5. Each component's minimum-id vertex evaluates its
	// own component; the values (here, vertex counts) sum to n.
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(3, 4)
	total, res := runCollect(t, g, CollectSpec{
		Eval: func(component *graph.Graph) (int64, error) {
			return int64(component.N()), nil
		},
	})
	if total != 6 {
		t.Errorf("component sizes sum to %d, want 6", total)
	}
	roots := 0
	for v, out := range res.Outputs {
		if c, ok := out.(collectOutput); ok && c.root {
			roots++
			if v != 0 && v != 3 && v != 5 {
				t.Errorf("vertex %d claims root status", v)
			}
		}
	}
	if roots != 3 {
		t.Errorf("%d roots, want 3 (one per component)", roots)
	}
}

func TestCollectKeepFilter(t *testing.T) {
	// Keep only even-weight edges of a weighted graph: the sole root must
	// see exactly the filtered edge set, while messages still travel over
	// all edges of the communication graph.
	rng := rand.New(rand.NewSource(3))
	g := graph.GnpWeighted(10, 0.6, 50, rng)
	for !g.IsConnected() {
		g = graph.GnpWeighted(10, 0.6, 50, rng)
	}
	keep := func(u, v int, w int64) bool { return w%2 == 0 }
	wantKept := 0
	for _, e := range g.Edges() {
		if keep(e.U, e.V, e.Weight) {
			wantKept++
		}
	}
	total, _ := runCollect(t, g, CollectSpec{
		Keep: keep,
		Eval: func(collected *graph.Graph) (int64, error) {
			if collected.M() != wantKept {
				return 0, nil
			}
			for _, e := range collected.Edges() {
				w, exists := g.EdgeWeight(e.U, e.V)
				if !exists || w != e.Weight || !keep(e.U, e.V, e.Weight) {
					return 0, nil
				}
			}
			return 1, nil
		},
	})
	if total != 1 {
		t.Error("filtered collection does not match the kept edge set")
	}
}

func TestCollectRejectsBadInputs(t *testing.T) {
	keepAll := func(int, int, int64) bool { return true }
	if _, _, err := CollectFactory(graph.New(0), 0, CollectSpec{}); err == nil {
		t.Error("empty graph accepted")
	}
	disconnected := graph.New(4)
	disconnected.MustAddEdge(0, 1)
	if _, _, err := CollectFactory(disconnected, 0, CollectSpec{Keep: keepAll}); err == nil {
		t.Error("disconnected graph accepted for filtered collection")
	}
	if _, _, err := CollectFactory(graph.Path(20), 3, CollectSpec{}); err == nil {
		t.Error("bandwidth too small for edge ids accepted")
	}
	neg := graph.New(2)
	neg.MustAddWeightedEdge(0, 1, -5)
	if _, _, err := CollectFactory(neg, 0, CollectSpec{}); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestCollectFactoriesRejectUnsupportedBandwidth(t *testing.T) {
	// A bandwidth the simulators would reject fails the factory with the
	// simulators' own error, whatever the instance.
	g, d := graph.Path(5), graph.NewDigraph(5)
	d.MustAddArc(0, 1)
	factories := []struct {
		name  string
		build func(bw int) error
	}{
		{"collect", func(bw int) error { _, _, err := CollectFactory(g, bw, CollectSpec{}); return err }},
		{"collect-retry", func(bw int) error { _, _, err := CollectRetryFactory(g, bw, CollectSpec{}); return err }},
		{"directed collect", func(bw int) error { _, _, err := DiCollectFactory(d, bw, DiCollectSpec{}); return err }},
	}
	for _, f := range factories {
		for _, bw := range []int{-1, 63, 64, 70} {
			want := fmt.Sprintf("bandwidth %d out of supported range [1,62]", bw)
			if err := f.build(bw); err == nil || err.Error() != want {
				t.Errorf("%s at bandwidth %d: error %v, want %q", f.name, bw, err, want)
			}
		}
		if err := f.build(62); err != nil {
			t.Errorf("%s at bandwidth 62: %v", f.name, err)
		}
	}
}

func TestCollectHashedKeySetDecidesAlike(t *testing.T) {
	// At 24 bits a 40-vertex path's key universe needs 2^18 bitset words
	// against 128 hashed slots, so its vertices dedup in hash sets; at the
	// default bandwidth they use bitsets. Both decide the same value.
	g := graph.Path(40)
	eval := func(collected *graph.Graph) (int64, error) {
		return int64(collected.M())*1000 + int64(collected.N()), nil
	}
	var totals []int64
	for _, bw := range []int{0, 24} {
		ws := new(Workspace)
		factory, _, err := CollectFactory(g, bw, CollectSpec{Eval: eval, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		res, err := congest.Run(g, factory, congest.Options{BandwidthBits: bw})
		if err != nil {
			t.Fatal(err)
		}
		if dense := ws.collectNodes[0].keys.shift == 0; dense != (bw == 0) {
			t.Errorf("bandwidth %d: dense key sets = %v", bw, dense)
		}
		total, err := CollectTotal(res)
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, total)
	}
	if totals[0] != 39040 || totals[1] != totals[0] {
		t.Errorf("decided %v at the default bandwidth and at 24 bits, want 39040 at both", totals)
	}
}

func TestCollectFactoryOnLargerGraph(t *testing.T) {
	// A factory driven on a graph other than its own seeds its vertices
	// beyond the reservation with keys outside the bitset's universe.
	// Dedup takes them without panicking, and the simulator rejects the
	// first one sent.
	factory, _, err := CollectFactory(graph.Path(3), 0, CollectSpec{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = congest.Run(graph.Complete(30), factory, congest.Options{BandwidthBits: 4})
	if err == nil || !strings.Contains(err.Error(), "exceeds 4-bit bandwidth") {
		t.Errorf("run on a larger graph: error %v, want a payload beyond the bandwidth", err)
	}
}

// referenceLayout is the frame layout scan the collect factories ran
// before frameLayout: over the sorted edge (arc) list, stopping at the
// first kept negative weight.
func referenceLayout(edges []graph.Arc, keep func(u, v int, w int64) bool, chunkBits int) (records, wchunks int, neg graph.Arc, ok bool) {
	var maxW int64
	weighted := false
	for _, e := range edges {
		if keep != nil && !keep(e.From, e.To, e.Weight) {
			continue
		}
		if e.Weight < 0 {
			return 0, 0, e, false
		}
		records++
		if e.Weight != 1 {
			weighted = true
		}
		if e.Weight > maxW {
			maxW = e.Weight
		}
	}
	if weighted {
		wchunks = (bits.Len64(uint64(maxW)) + chunkBits - 1) / chunkBits
		if wchunks == 0 {
			wchunks = 1
		}
	}
	return records, wchunks, graph.Arc{}, true
}

func TestFrameLayoutMatchesSortedScan(t *testing.T) {
	// Random weights — unit, zero, wide and a few negative ones — under
	// no filter and a hashed filter, on undirected and directed
	// instances: the adjacency-order scan must give the sorted scan's
	// shape and name the same negative record.
	rng := rand.New(rand.NewSource(11))
	weight := func() int64 {
		switch r := rng.Intn(20); {
		case r == 0:
			return -1 - rng.Int63n(9)
		case r < 10:
			return 1
		case r < 12:
			return 0
		default:
			return rng.Int63n(1 << uint(1+rng.Intn(50)))
		}
	}
	filters := []func(u, v int, w int64) bool{nil, func(u, v int, w int64) bool { return (u*31+v*17)%3 != 0 }}
	negatives, shapes := 0, 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		p := 0.2 + 0.6*rng.Float64()
		chunkBits := 1 + rng.Intn(40)
		// Records are added in shuffled order, so adjacency lists are not
		// sorted by neighbor.
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < p {
					pairs = append(pairs, [2]int{u, v})
				}
			}
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		g := graph.New(n)
		d := graph.NewDigraph(n)
		for _, e := range pairs {
			d.MustAddWeightedArc(e[0], e[1], weight())
			if e[0] < e[1] {
				g.MustAddWeightedEdge(e[0], e[1], weight())
			}
		}
		var edges []graph.Arc
		for _, e := range g.Edges() {
			edges = append(edges, graph.Arc{From: e.U, To: e.V, Weight: e.Weight})
		}
		for fi, keep := range filters {
			for _, tc := range []struct {
				name string
				got  func() (int, int, graph.Arc, bool)
				want func() (int, int, graph.Arc, bool)
			}{
				{"graph", func() (int, int, graph.Arc, bool) {
					return frameLayout(n, g.Neighbors, canonical(keep), chunkBits)
				}, func() (int, int, graph.Arc, bool) { return referenceLayout(edges, keep, chunkBits) }},
				{"digraph", func() (int, int, graph.Arc, bool) {
					return frameLayout(n, d.OutNeighbors, keep, chunkBits)
				}, func() (int, int, graph.Arc, bool) { return referenceLayout(d.Arcs(), keep, chunkBits) }},
			} {
				gr, gw, gn, gok := tc.got()
				wr, ww, wn, wok := tc.want()
				if gr != wr || gw != ww || gn != wn || gok != wok {
					t.Fatalf("trial %d %s filter %d: frameLayout (%d, %d, %+v, %v), sorted scan (%d, %d, %+v, %v)",
						trial, tc.name, fi, gr, gw, gn, gok, wr, ww, wn, wok)
				}
				if wok {
					shapes++
				} else {
					negatives++
				}
			}
		}
	}
	t.Logf("%d shapes, %d negative records", shapes, negatives)
	if negatives == 0 || shapes == 0 {
		t.Errorf("%d shapes and %d negative records: the trials no longer exercise both", shapes, negatives)
	}
}

// TestCollectTotalReportsCrashedVertex pins the diagnosis of a crashed
// vertex: the simulator leaves its output nil, and CollectTotal names the
// crash instead of claiming the vertex ran some other program. It stays
// an error for every collect program, because a crashed component root
// would leave its component unevaluated.
func TestCollectTotalReportsCrashedVertex(t *testing.T) {
	plan := &faults.Plan{Crashes: []faults.Crash{{Node: 3, Round: 5}}}
	eval := func(*graph.Graph) (int64, error) { return 1, nil }
	g := graph.Path(6)
	d := graph.NewDigraph(6)
	for v := 0; v+1 < 6; v++ {
		d.MustAddArc(v, v+1)
	}
	runs := map[string]func() (*congest.Result, error){
		"collect": func() (*congest.Result, error) {
			factory, budget, err := CollectFactory(g, 0, CollectSpec{Eval: eval})
			if err != nil {
				return nil, err
			}
			return congest.Run(g, factory, congest.Options{MaxRounds: budget + 2, Faults: plan})
		},
		"collect-retry": func() (*congest.Result, error) {
			bw := CollectRetryMinBandwidth(g.N())
			factory, budget, err := CollectRetryFactory(g, bw, CollectSpec{Eval: eval})
			if err != nil {
				return nil, err
			}
			return congest.Run(g, factory, congest.Options{BandwidthBits: bw, MaxRounds: budget + 2, Faults: plan})
		},
		"directed collect": func() (*congest.Result, error) {
			factory, budget, err := DiCollectFactory(d, 0, DiCollectSpec{Eval: func(*graph.Digraph) (int64, error) { return 1, nil }})
			if err != nil {
				return nil, err
			}
			return dicongest.Run(d, factory, dicongest.Options{MaxRounds: budget + 2, Faults: plan})
		},
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Outputs[3] != nil {
			t.Fatalf("%s: crashed vertex 3 has output %v, want nil", name, res.Outputs[3])
		}
		_, err = CollectTotal(res)
		if want := "vertex 3 crashed and produced no output"; err == nil || err.Error() != want {
			t.Errorf("%s: CollectTotal error %v, want %q", name, err, want)
		}
	}
}
