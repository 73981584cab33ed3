package algorithms

import (
	"fmt"
	"reflect"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/cover"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
)

// The test in this file drives one Workspace through a sequence of
// instances whose vertex, record and link counts grow and shrink, under
// every fault plan of the election tests, with all three collect programs
// taking turns on it. Every Result must equal the one a factory with a
// fresh workspace gives; all Results are compared only after the whole
// sequence has run, so a later run that wrote into an earlier Result's
// memory fails too.

// familyBits returns the k-bit inputs with the given values.
func familyBits(t *testing.T, k int, x, y uint64) (comm.Bits, comm.Bits) {
	t.Helper()
	bx, err := comm.BitsFromUint64(k, x)
	if err != nil {
		t.Fatal(err)
	}
	by, err := comm.BitsFromUint64(k, y)
	if err != nil {
		t.Fatal(err)
	}
	return bx, by
}

// workspaceGraphs are undirected instances in an order that makes the
// sizes jump both ways: the MDS family's instances around the election
// fixtures.
func workspaceGraphs(t *testing.T) []namedGraph {
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(x, y uint64) *graph.Graph {
		bx, by := familyBits(t, fam.K(), x, y)
		g, err := fam.Build(bx, by)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	fixtures := electionGraphs()
	out := []namedGraph{{"mdslb/1010,0110", build(0b1010, 0b0110)}}
	for i, ng := range fixtures {
		out = append(out, ng)
		if i == 2 {
			out = append(out, namedGraph{"mdslb/0000,0000", build(0, 0)})
		}
	}
	return append(out, namedGraph{"mdslb/1111,0001", build(0b1111, 0b0001)})
}

// workspaceDigraphs are the directed counterparts: the Hamiltonian path
// family and the directed Steiner family, whose weights need a weight
// chunk per frame, around the election fixtures.
func workspaceDigraphs(t *testing.T) []namedDigraph {
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	steiner, err := kmdslb.NewDirSteiner(kmdslb.Params{Collection: c, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	hx, hy := familyBits(t, ham.K(), 0b1001, 0b0011)
	hd, err := ham.Build(hx, hy)
	if err != nil {
		t.Fatal(err)
	}
	sx, sy := familyBits(t, steiner.K(), 0b0101, 0b0011)
	sd, err := steiner.Build(sx, sy)
	if err != nil {
		t.Fatal(err)
	}
	fixtures := electionDigraphs()
	out := []namedDigraph{{"hamlb", hd}}
	for i, nd := range fixtures {
		out = append(out, nd)
		if i == 1 {
			out = append(out, namedDigraph{"dir-steiner", sd})
		}
	}
	return append(out, namedDigraph{"hamlb-again", hd})
}

func TestWorkspaceReuseMatchesFreshFactory(t *testing.T) {
	type run struct {
		name   string
		result interface{}
		fresh  func() (interface{}, error)
	}
	var runs []run
	ws := new(Workspace)
	graphs, digraphs := workspaceGraphs(t), workspaceDigraphs(t)
	for i := 0; i < len(graphs) || i < len(digraphs); i++ {
		for _, p := range electionPlans {
			if i < len(graphs) {
				ng := graphs[i]
				for _, prog := range undirectedPrograms {
					name := fmt.Sprintf("%s/%s/%s", prog.name, ng.name, p.name)
					exec := func(ws *Workspace) (interface{}, error) {
						factory, opts, err := prog.build(ng.g, CollectSpec{Eval: graphDigest, Workspace: ws})
						if err != nil {
							return nil, err
						}
						opts.Faults = p.plan
						return congest.Run(ng.g, factory, opts)
					}
					res, err := exec(ws)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					runs = append(runs, run{name, res, func() (interface{}, error) { return exec(nil) }})
				}
			}
			if i < len(digraphs) {
				nd := digraphs[i]
				name := fmt.Sprintf("dicollect/%s/%s", nd.name, p.name)
				exec := func(ws *Workspace) (interface{}, error) {
					factory, budget, err := DiCollectFactory(nd.d, 0, DiCollectSpec{Eval: digraphDigest, Workspace: ws})
					if err != nil {
						return nil, err
					}
					return dicongest.Run(nd.d, factory, dicongest.Options{MaxRounds: budget + 2, Faults: p.plan})
				}
				res, err := exec(ws)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				runs = append(runs, run{name, res, func() (interface{}, error) { return exec(nil) }})
			}
		}
	}
	for _, r := range runs {
		want, err := r.fresh()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !reflect.DeepEqual(r.result, want) {
			t.Errorf("%s: the reused workspace gave %+v, a fresh factory %+v", r.name, r.result, want)
		}
	}
	t.Logf("%d runs on one workspace", len(runs))
}

// Component-root allocation pins: each collect program on a warm
// workspace and a warm arena, on an instance with two 6-vertex
// components, so that two roots each rebuild their collection and then
// their component, both into the workspace's graphs. A warm run allocates
// nothing: its Result is the arena's and its root values come pre-boxed.
// A root that copies out its component, labels the components of its
// rebuild or boxes its output, a directed root that copies out the
// underlying graph, or a non-root that rebuilds anything trips them.
const (
	collectRootAllocs   = 0 // measured 0; 42 with induced component copies
	retryRootAllocs     = 0 // measured 0; 42 with induced component copies
	diCollectRootAllocs = 0 // measured 0; 44 with induced component copies
)

func TestCollectComponentRootAllocations(t *testing.T) {
	g := graph.New(12)
	d := graph.NewDigraph(12)
	for c := 0; c < 12; c += 6 {
		for i := 0; i < 6; i++ {
			g.MustAddEdge(c+i, c+(i+1)%6)
			d.MustAddArc(c+i, c+(i+1)%6)
		}
	}
	countEdges := func(g *graph.Graph) (int64, error) { return int64(g.M()), nil }
	countArcs := func(d *graph.Digraph) (int64, error) { return int64(d.M()), nil }
	ws, arena := new(Workspace), new(congest.Arena)
	undirected := func(prog undirectedProgram) func() (*congest.Result, error) {
		return func() (*congest.Result, error) {
			factory, opts, err := prog.build(g, CollectSpec{Eval: countEdges, Workspace: ws})
			if err != nil {
				return nil, err
			}
			opts.Arena = arena
			return congest.Run(g, factory, opts)
		}
	}
	for _, tc := range []struct {
		name string
		pin  int
		run  func() (*congest.Result, error)
	}{
		{"collect", collectRootAllocs, undirected(undirectedPrograms[0])},
		{"collect-retry", retryRootAllocs, undirected(undirectedPrograms[1])},
		{"dicollect", diCollectRootAllocs, func() (*congest.Result, error) {
			factory, budget, err := DiCollectFactory(d, 0, DiCollectSpec{Eval: countArcs, Workspace: ws})
			if err != nil {
				return nil, err
			}
			return dicongest.Run(d, factory, dicongest.Options{MaxRounds: budget + 2, Arena: arena})
		}},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			res, err := tc.run()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if total, err := CollectTotal(res); err != nil || total != 12 {
				t.Fatalf("%s: total %d (%v), want 12 from two roots", tc.name, total, err)
			}
		})
		t.Logf("%s: %.0f allocs per warm run", tc.name, allocs)
		if allocs > float64(tc.pin) {
			t.Errorf("%s: a warm run on two components allocates %.0f times, want at most %d", tc.name, allocs, tc.pin)
		}
	}
}
