package algorithms

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// The tests in this file compare union-find root election against a
// reference: the finish every vertex ran before it, which reconstructs the
// whole collected graph at every vertex and reads root status off its
// components. A probe wraps each node and, when the node finishes, runs
// the reference on the same records, so the two decisions see identical
// views — including the partial and garbled views that drops and
// blackouts leave behind.

// referenceFinish is the full-reconstruction finish of the undirected
// collect programs.
func referenceFinish(c *collectCore) collectOutput {
	collected := graph.New(c.n)
	for _, rec := range c.records {
		u, v := c.decode(rec.key)
		if err := collected.AddWeightedEdge(u, v, rec.w); err != nil {
			if c.local.ID == 0 {
				return collectOutput{root: true, err: fmt.Errorf("reconstructing collected graph: %w", err)}
			}
			return collectOutput{}
		}
	}
	if c.spec.Keep != nil {
		if c.local.ID != 0 {
			return collectOutput{}
		}
		value, err := c.spec.Eval(collected)
		return collectOutput{root: true, value: value, err: err}
	}
	comp, _ := collected.Components()
	mine := comp[c.local.ID]
	for v := 0; v < c.local.ID; v++ {
		if comp[v] == mine {
			return collectOutput{}
		}
	}
	component, _ := collected.InducedSubgraph(func(v int) bool { return comp[v] == mine })
	value, err := c.spec.Eval(component)
	return collectOutput{root: true, value: value, err: err}
}

// referenceDiFinish is the full-reconstruction finish of the directed
// collect program.
func referenceDiFinish(c *diCollectNode) diCollectOutput {
	collected := graph.NewDigraph(c.n)
	for _, rec := range c.records {
		from, to := c.decode(rec.key)
		if err := collected.AddWeightedArc(from, to, rec.w); err != nil {
			if c.local.ID == 0 {
				return diCollectOutput{root: true, err: fmt.Errorf("reconstructing collected digraph: %w", err)}
			}
			return diCollectOutput{}
		}
	}
	if c.spec.Keep != nil {
		if c.local.ID != 0 {
			return diCollectOutput{}
		}
		value, err := c.spec.Eval(collected)
		return diCollectOutput{root: true, value: value, err: err}
	}
	comp, _ := collected.Underlying().Components()
	mine := comp[c.local.ID]
	for v := 0; v < c.local.ID; v++ {
		if comp[v] == mine {
			return diCollectOutput{}
		}
	}
	component, _ := collected.InducedSubdigraph(func(v int) bool { return comp[v] == mine })
	value, err := c.spec.Eval(component)
	return diCollectOutput{root: true, value: value, err: err}
}

// probe runs the reference finish next to a node's own, and also notes
// what the naive rule "a smaller id appears among my records" would say.
type probe[I, M any] struct {
	inner interface {
		Round(round int, inbox []I) ([]M, bool)
		Output() interface{}
	}
	store     *recordStore
	id        int
	reference func() outcome
	want      *expected
}

// expected is the reference outcome of one vertex, plus whether the naive
// rule would have ruled the vertex out.
type expected struct {
	outcome
	naiveNonRoot bool
}

func (p *probe[I, M]) Round(round int, inbox []I) ([]M, bool) {
	out, done := p.inner.Round(round, inbox)
	if done {
		*p.want = expected{outcome: p.reference(), naiveNonRoot: smallerIDSeen(p.store, p.id)}
	}
	return out, done
}

func (p *probe[I, M]) Output() interface{} { return p.inner.Output() }

// smallerIDSeen is the naive election rule: any valid record with an
// endpoint below id rules id out. It is wrong when a partial view holds
// such a record without the records that connect it to id.
func smallerIDSeen(s *recordStore, id int) bool {
	for _, rec := range s.records {
		u, v := s.decode(rec.key)
		if u >= 0 && u < s.n && v >= 0 && u != v && (u < id || v < id) {
			return true
		}
	}
	return false
}

// outcome is a vertex's output in comparable form.
type outcome struct {
	root  bool
	value int64
	err   string
}

func newOutcome(root bool, value int64, err error) outcome {
	o := outcome{root: root, value: value}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

func outcomeOf(out interface{}) outcome {
	switch o := out.(type) {
	case collectOutput:
		return newOutcome(o.root, o.value, o.err)
	case diCollectOutput:
		return newOutcome(o.root, o.value, o.err)
	}
	return outcome{err: fmt.Sprintf("unexpected output %T", out)}
}

// errSingleton gives single-vertex components an error, so the error
// string is compared too.
var errSingleton = errors.New("singleton component")

// graphDigest scores a collected graph by hashing its signature.
func graphDigest(g *graph.Graph) (int64, error) {
	if g.N() == 1 {
		return 0, errSingleton
	}
	h := fnv.New64a()
	h.Write([]byte(g.Signature()))
	return int64(h.Sum64() >> 1), nil
}

// digraphDigest scores a collected digraph by hashing its arc list.
func digraphDigest(d *graph.Digraph) (int64, error) {
	if d.N() == 1 {
		return 0, errSingleton
	}
	h := fnv.New64a()
	fmt.Fprint(h, d.N(), d.Arcs())
	return int64(h.Sum64() >> 1), nil
}

// electionPlans are the fault plans of the differential tests. The drop
// and blackout plans leave vertices with partial views, where the naive
// election rule goes wrong; plain collect also garbles weighted frames
// under drops, which yields records the reconstruction rejects.
var electionPlans = []struct {
	name string
	plan *faults.Plan
}{
	{"fault-free", nil},
	{"drop=0.05", &faults.Plan{Seed: 5, DropProb: 0.05}},
	{"drop=0.2", &faults.Plan{Seed: 6, DropProb: 0.2}},
	{"drop=0.2/seed=16", &faults.Plan{Seed: 16, DropProb: 0.2}},
	{"drop=0.5", &faults.Plan{Seed: 26, DropProb: 0.5}},
	{"delay=3", &faults.Plan{Seed: 7, MaxDelay: 3}},
	{"drop=0.05,delay=2", &faults.Plan{Seed: 8, DropProb: 0.05, MaxDelay: 2}},
	{"blackout", &faults.Plan{Seed: 9, DropProb: 1}},
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

type namedDigraph struct {
	name string
	d    *graph.Digraph
}

// electionGraphs are random graphs, disconnected ones and graphs whose
// weights need multi-chunk frames.
func electionGraphs() []namedGraph {
	rng := rand.New(rand.NewSource(21))
	disc := graph.New(11)
	for _, e := range [][2]int{{0, 3}, {3, 6}, {6, 0}, {1, 4}, {4, 8}, {8, 9}, {2, 7}} {
		disc.MustAddEdge(e[0], e[1])
	}
	return []namedGraph{
		{"gnp12", graph.Gnp(12, 0.3, rng)},
		{"gnp16-sparse", graph.Gnp(16, 0.12, rng)},
		{"gnp24-sparse", graph.Gnp(24, 0.09, rng)},
		{"path14", graph.Path(14)},
		{"disconnected", disc},
		{"weighted", graph.GnpWeighted(10, 0.4, 1<<40, rng)},
		{"weighted-1k", graph.GnpWeighted(9, 0.25, 1000, rng)},
	}
}

// electionDigraphs are the directed counterparts.
func electionDigraphs() []namedDigraph {
	rng := rand.New(rand.NewSource(22))
	disc := graph.NewDigraph(9)
	for _, a := range [][2]int{{5, 0}, {0, 3}, {3, 5}, {4, 1}, {8, 4}, {2, 7}, {7, 2}} {
		disc.MustAddArc(a[0], a[1])
	}
	weighted := graph.NewDigraph(9)
	for u := 0; u < 9; u++ {
		for v := 0; v < 9; v++ {
			if u != v && rng.Float64() < 0.25 {
				weighted.MustAddWeightedArc(u, v, rng.Int63n(1<<40))
			}
		}
	}
	return []namedDigraph{
		{"random12", graph.RandomDigraph(12, 0.15, rng)},
		{"random16", graph.RandomDigraph(16, 0.07, rng)},
		{"disconnected", disc},
		{"weighted", weighted},
	}
}

// compareOutcomes fails on any vertex whose output differs from the
// reference. It returns the number of reference roots the naive rule
// would have ruled out, and whether vertex 0 rejected its records (the
// only vertex whose output shows a failed reconstruction).
func compareOutcomes(t *testing.T, name string, outputs []interface{}, want []expected) (naiveWrong int, rejected bool) {
	t.Helper()
	for v, out := range outputs {
		if got := outcomeOf(out); got != want[v].outcome {
			t.Errorf("%s: vertex %d output %+v, reference %+v", name, v, got, want[v].outcome)
		}
		if want[v].root && want[v].naiveNonRoot {
			naiveWrong++
		}
		rejected = rejected || strings.HasPrefix(want[v].err, "reconstructing")
	}
	return naiveWrong, rejected
}

// undirectedProgram builds one of the two undirected collect programs.
type undirectedProgram struct {
	name  string
	build func(g *graph.Graph, spec CollectSpec) (congest.Factory, congest.Options, error)
}

var undirectedPrograms = []undirectedProgram{
	{"collect", func(g *graph.Graph, spec CollectSpec) (congest.Factory, congest.Options, error) {
		f, budget, err := CollectFactory(g, 0, spec)
		return f, congest.Options{MaxRounds: budget + 2}, err
	}},
	{"collect-retry", func(g *graph.Graph, spec CollectSpec) (congest.Factory, congest.Options, error) {
		bw := CollectRetryMinBandwidth(g.N())
		f, budget, err := CollectRetryFactory(g, bw, spec)
		return f, congest.Options{BandwidthBits: bw, MaxRounds: budget + 2}, err
	}},
}

func TestRootElectionMatchesReference(t *testing.T) {
	naiveWrong, rejected := 0, 0
	count := func(w int, r bool) {
		naiveWrong += w
		if r {
			rejected++
		}
	}
	for _, ng := range electionGraphs() {
		for _, prog := range undirectedPrograms {
			for _, p := range electionPlans {
				name := fmt.Sprintf("%s/%s/%s", prog.name, ng.name, p.name)
				factory, opts, err := prog.build(ng.g, CollectSpec{Eval: graphDigest})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := make([]expected, ng.g.N())
				probed := func(local congest.Local) congest.Node {
					node := factory(local)
					var core *collectCore
					switch c := node.(type) {
					case *collectNode:
						core = &c.collectCore
					case *collectRetryNode:
						core = &c.collectCore
					}
					return &probe[congest.Incoming, congest.Message]{
						inner: node,
						store: &core.recordStore,
						id:    local.ID,
						reference: func() outcome {
							o := referenceFinish(core)
							return newOutcome(o.root, o.value, o.err)
						},
						want: &want[local.ID],
					}
				}
				opts.Faults = p.plan
				res, err := congest.Run(ng.g, probed, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				count(compareOutcomes(t, name, res.Outputs, want))
			}
		}
	}
	t.Logf("naive rule wrong at %d vertices; vertex 0 rejected its records in %d runs", naiveWrong, rejected)
	if naiveWrong == 0 || rejected == 0 {
		t.Errorf("the naive rule went wrong at %d vertices and vertex 0 rejected its records in %d runs; the fixtures no longer exercise both", naiveWrong, rejected)
	}
}

func TestDiRootElectionMatchesReference(t *testing.T) {
	naiveWrong, rejected := 0, 0
	count := func(w int, r bool) {
		naiveWrong += w
		if r {
			rejected++
		}
	}
	for _, nd := range electionDigraphs() {
		for _, p := range electionPlans {
			name := fmt.Sprintf("dicollect/%s/%s", nd.name, p.name)
			factory, budget, err := DiCollectFactory(nd.d, 0, DiCollectSpec{Eval: digraphDigest})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := make([]expected, nd.d.N())
			probed := func(local dicongest.Local) dicongest.Node {
				node := factory(local).(*diCollectNode)
				return &probe[dicongest.Incoming, dicongest.Message]{
					inner: node,
					store: &node.recordStore,
					id:    local.ID,
					reference: func() outcome {
						o := referenceDiFinish(node)
						return newOutcome(o.root, o.value, o.err)
					},
					want: &want[local.ID],
				}
			}
			res, err := dicongest.Run(nd.d, probed, dicongest.Options{MaxRounds: budget + 2, Faults: p.plan})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			count(compareOutcomes(t, name, res.Outputs, want))
		}
	}
	t.Logf("naive rule wrong at %d vertices; vertex 0 rejected its records in %d runs", naiveWrong, rejected)
	if naiveWrong == 0 || rejected == 0 {
		t.Errorf("the naive rule went wrong at %d vertices and vertex 0 rejected its records in %d runs; the fixtures no longer exercise both", naiveWrong, rejected)
	}
}
