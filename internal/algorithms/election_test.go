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

// The tests in this file compare union-find root election and the
// spanning shortcut against a reference: the finish every vertex ran
// before them, which reconstructs the whole collected graph at every
// vertex, reads root status off its components and evaluates the induced
// component. A probe wraps each node and, when the node finishes, runs the
// reference on the same records, so the two decisions see identical
// views — including the partial and garbled views that drops and
// blackouts leave behind. The probe also checks the shortcut's condition
// itself: the union-find reports a spanning collection exactly at the
// roots whose reference component is the whole graph.

// shape is what the reference saw at a vertex: whether its records
// rebuilt into a graph, and if so how many vertices its component there
// has.
type shape struct {
	rebuilt bool
	compN   int
}

// componentSize counts the vertices in v's component.
func componentSize(comp []int, v int) int {
	size := 0
	for _, c := range comp {
		if c == comp[v] {
			size++
		}
	}
	return size
}

// referenceFinish is the full-reconstruction finish of the undirected
// collect programs.
func referenceFinish(c *collectCore) (collectOutput, shape) {
	collected := graph.New(c.n)
	for _, rec := range c.records {
		u, v := c.decode(rec.key)
		if err := collected.AddWeightedEdge(u, v, rec.w); err != nil {
			if c.local.ID == 0 {
				return collectOutput{root: true, err: fmt.Errorf("reconstructing collected graph: %w", err)}, shape{}
			}
			return collectOutput{}, shape{}
		}
	}
	if c.ws.spec.Keep != nil {
		if c.local.ID != 0 {
			return collectOutput{}, shape{rebuilt: true}
		}
		value, err := c.ws.spec.Eval(collected)
		return collectOutput{root: true, value: value, err: err}, shape{rebuilt: true}
	}
	comp, _ := collected.Components()
	sh := shape{rebuilt: true, compN: componentSize(comp, c.local.ID)}
	mine := comp[c.local.ID]
	for v := 0; v < c.local.ID; v++ {
		if comp[v] == mine {
			return collectOutput{}, sh
		}
	}
	component, _ := collected.InducedSubgraph(func(v int) bool { return comp[v] == mine })
	value, err := c.ws.spec.Eval(component)
	return collectOutput{root: true, value: value, err: err}, sh
}

// referenceDiFinish is the full-reconstruction finish of the directed
// collect program.
func referenceDiFinish(c *diCollectNode) (collectOutput, shape) {
	collected := graph.NewDigraph(c.n)
	for _, rec := range c.records {
		from, to := c.decode(rec.key)
		if err := collected.AddWeightedArc(from, to, rec.w); err != nil {
			if c.local.ID == 0 {
				return collectOutput{root: true, err: fmt.Errorf("reconstructing collected digraph: %w", err)}, shape{}
			}
			return collectOutput{}, shape{}
		}
	}
	comp, _ := collected.Underlying().Components()
	sh := shape{rebuilt: true, compN: componentSize(comp, c.local.ID)}
	mine := comp[c.local.ID]
	for v := 0; v < c.local.ID; v++ {
		if comp[v] == mine {
			return collectOutput{}, sh
		}
	}
	component, _ := collected.InducedSubdigraph(func(v int) bool { return comp[v] == mine })
	value, err := c.ws.diEval(component)
	return collectOutput{root: true, value: value, err: err}, sh
}

// probe runs the reference finish next to a node's own, and also notes
// what the naive rule "a smaller id appears among my records" would say
// and whether the union-find found the records spanning.
type probe[I, M any] struct {
	inner interface {
		Round(round int, inbox []I) ([]M, bool)
		Output() interface{}
	}
	store     *recordStore
	id        int
	reference func() (outcome, shape)
	want      *expected
}

// expected is the reference outcome of one vertex, plus whether the naive
// rule would have ruled the vertex out and what the union-find reported.
type expected struct {
	outcome
	shape
	naiveNonRoot bool
	spanning     bool
}

func (p *probe[I, M]) Round(round int, inbox []I) ([]M, bool) {
	out, done := p.inner.Round(round, inbox)
	if done {
		o, sh := p.reference()
		_, spanning := p.store.elect(p.id, make([]int32, p.store.n))
		*p.want = expected{outcome: o, shape: sh, naiveNonRoot: smallerIDSeen(p.store, p.id), spanning: spanning}
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
	// A weakly connected digraph whose arcs alternate direction along a
	// path, plus random chords: the spanning shortcut's case.
	spanning := graph.NewDigraph(11)
	for v := 0; v+1 < 11; v++ {
		if v%2 == 0 {
			spanning.MustAddArc(v, v+1)
		} else {
			spanning.MustAddArc(v+1, v)
		}
	}
	chords := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		if u, v := chords.Intn(11), chords.Intn(11); u != v && !spanning.HasArc(u, v) {
			spanning.MustAddArc(u, v)
		}
	}
	return []namedDigraph{
		{"spanning11", spanning},
		{"random12", graph.RandomDigraph(12, 0.15, rng)},
		{"random16", graph.RandomDigraph(16, 0.07, rng)},
		{"disconnected", disc},
		{"weighted", weighted},
	}
}

// coverage counts the cases the fixtures drive through the comparison.
type coverage struct {
	naiveWrong  int // reference roots the naive rule would rule out
	shortcut    int // vertex-0 roots evaluated through the spanning shortcut
	partialRoot int // roots whose component is not the whole graph
	nonZeroRoot int // roots other than vertex 0
	rejected    int // runs where vertex 0 rejected its records
}

// compareOutcomes fails on any vertex whose output differs from the
// reference, and on any vertex where the union-find's spanning verdict —
// the condition of the shortcut — disagrees with the reference component:
// a rebuilt root must be spanning exactly when its component holds all n
// vertices, and no other vertex but 0 may be spanning.
func compareOutcomes(t *testing.T, name string, outputs []interface{}, want []expected, cov *coverage) {
	t.Helper()
	n, rejected := len(outputs), false
	for v, out := range outputs {
		w := want[v]
		if got := outcomeOf(out); got != w.outcome {
			t.Errorf("%s: vertex %d output %+v, reference %+v", name, v, got, w.outcome)
		}
		if w.root && w.rebuilt {
			if w.spanning != (w.compN == n) {
				t.Errorf("%s: root %d union-find spanning=%v, reference component of %d/%d vertices", name, v, w.spanning, w.compN, n)
			}
			switch {
			case w.spanning:
				cov.shortcut++
			default:
				cov.partialRoot++
			}
			if v != 0 {
				cov.nonZeroRoot++
			}
		} else if v != 0 && w.spanning {
			t.Errorf("%s: non-root %d reported spanning", name, v)
		}
		if w.root && w.naiveNonRoot {
			cov.naiveWrong++
		}
		rejected = rejected || strings.HasPrefix(w.err, "reconstructing")
	}
	if rejected {
		cov.rejected++
	}
}

// check fails unless the fixtures exercised every case.
func (cov coverage) check(t *testing.T) {
	t.Helper()
	t.Logf("%+v", cov)
	if cov.naiveWrong == 0 || cov.shortcut == 0 || cov.partialRoot == 0 || cov.nonZeroRoot == 0 || cov.rejected == 0 {
		t.Errorf("coverage %+v: the fixtures no longer exercise a wrong naive rule, the spanning shortcut, partial and non-zero roots, and rejected records", cov)
	}
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
	var cov coverage
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
						reference: func() (outcome, shape) {
							o, sh := referenceFinish(core)
							return newOutcome(o.root, o.value, o.err), sh
						},
						want: &want[local.ID],
					}
				}
				opts.Faults = p.plan
				res, err := congest.Run(ng.g, probed, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				compareOutcomes(t, name, res.Outputs, want, &cov)
			}
		}
	}
	cov.check(t)
}

func TestDiRootElectionMatchesReference(t *testing.T) {
	var cov coverage
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
					reference: func() (outcome, shape) {
						o, sh := referenceDiFinish(node)
						return newOutcome(o.root, o.value, o.err), sh
					},
					want: &want[local.ID],
				}
			}
			res, err := dicongest.Run(nd.d, probed, dicongest.Options{MaxRounds: budget + 2, Faults: p.plan})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			compareOutcomes(t, name, res.Outputs, want, &cov)
		}
	}
	cov.check(t)
}
