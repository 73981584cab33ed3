package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/reduction"
)

// A traced run times the repository's public calls from this file only:
// the family is wrapped to time its builds, toggles and oracle, and the
// algorithm's Prepare is wrapped so that its factory times every node
// and its decide function closes the pair. Spans stay in memory and are
// written as JSON lines when the run ends.

// span is one timed interval. Times are nanoseconds since the recorder
// started. Root spans ("sweep", "verify") have no parent; every other
// span's parent is the root in progress when it was recorded.
type span struct {
	ID     int64      `json:"id"`
	Parent int64      `json:"parent,omitempty"`
	Name   string     `json:"name"`
	Family string     `json:"family,omitempty"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
	Pair   *pairTimes `json:"pair,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans from the sweep workers.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	root  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	s.ID = r.ids.Add(1)
	s.Parent = r.root.Load()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// leaf records a span from start to now; use it as
// `defer r.leaf(name, family, r.now())`.
func (r *recorder) leaf(name, family string, start int64) {
	r.add(span{Name: name, Family: family, Start: start, End: r.now()})
}

// within runs fn as the root span name. Only one root is in progress at a
// time: the benchmark calls sweeps and Verify one after another.
func (r *recorder) within(name, family string, fn func() error) error {
	id := r.ids.Add(1)
	r.root.Store(id)
	start := r.now()
	err := fn()
	end := r.now()
	r.root.Store(0)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Name: name, Family: family, Start: start, End: end})
	r.mu.Unlock()
	return err
}

// write stores the spans as JSON lines in path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// familyInfo is the part of Family and DigraphFamily that does not
// depend on the graph kind.
type familyInfo interface {
	Name() string
	K() int
	Func() comm.Function
	AliceSide() []bool
}

// famCore holds the wrapped family's methods. The wrapper types below
// each add one capability on top of it, so a wrapped family has exactly
// the capability set of the family it wraps.
type famCore[G any] struct {
	rec       *recorder
	label     string
	info      familyInfo
	build     func(x, y comm.Bits) (G, error)
	predicate func(G) (bool, error)
	buildBase func() (G, error)
	applyBit  func(g G, player, bit int, val bool) error
}

type famBase[G any] struct{ c *famCore[G] }

func (f famBase[G]) Name() string        { return f.c.info.Name() }
func (f famBase[G]) K() int              { return f.c.info.K() }
func (f famBase[G]) Func() comm.Function { return f.c.info.Func() }
func (f famBase[G]) AliceSide() []bool   { return f.c.info.AliceSide() }

func (f famBase[G]) Build(x, y comm.Bits) (G, error) {
	defer f.c.rec.leaf("build", f.c.label, f.c.rec.now())
	return f.c.build(x, y)
}

func (f famBase[G]) Predicate(g G) (bool, error) {
	defer f.c.rec.leaf("predicate", f.c.label, f.c.rec.now())
	return f.c.predicate(g)
}

type famDelta[G any] struct{ c *famCore[G] }

func (f famDelta[G]) BuildBase() (G, error) {
	defer f.c.rec.leaf("build_base", f.c.label, f.c.rec.now())
	return f.c.buildBase()
}

func (f famDelta[G]) ApplyBit(g G, player, bit int, val bool) error {
	defer f.c.rec.leaf("apply", f.c.label, f.c.rec.now())
	return f.c.applyBit(g, player, bit, val)
}

// timedOracle times a per-worker predicate oracle.
type timedOracle[G any] struct {
	rec   *recorder
	label string
	eval  func(G) (bool, error)
}

func (o timedOracle[G]) Eval(g G) (bool, error) {
	defer o.rec.leaf("oracle", o.label, o.rec.now())
	return o.eval(g)
}

type famOracle struct {
	c         *famCore[*graph.Graph]
	newOracle func() lbfamily.PredicateOracle
}

func (f famOracle) NewPredicateOracle() lbfamily.PredicateOracle {
	return timedOracle[*graph.Graph]{f.c.rec, f.c.label, f.newOracle().Eval}
}

type famDiOracle struct {
	c         *famCore[*graph.Digraph]
	newOracle func() lbfamily.DigraphPredicateOracle
}

func (f famDiOracle) NewDigraphPredicateOracle() lbfamily.DigraphPredicateOracle {
	return timedOracle[*graph.Digraph]{f.c.rec, f.c.label, f.newOracle().Eval}
}

type sideChecker interface{ AliceSideChecked() ([]bool, error) }

type famChecked struct{ inner sideChecker }

func (f famChecked) AliceSideChecked() ([]bool, error) { return f.inner.AliceSideChecked() }

// wrapFamily returns fam with its builds, toggles and predicate
// evaluations recorded under label.
func wrapFamily(fam lbfamily.Family, label string, rec *recorder) lbfamily.Family {
	c := &famCore[*graph.Graph]{rec: rec, label: label, info: fam, build: fam.Build, predicate: fam.Predicate}
	b, d := famBase[*graph.Graph]{c}, famDelta[*graph.Graph]{c}
	df, delta := fam.(lbfamily.DeltaFamily)
	if delta {
		c.buildBase, c.applyBit = df.BuildBase, df.ApplyBit
	}
	var o famOracle
	of, oracle := fam.(lbfamily.OracleFamily)
	if oracle {
		o = famOracle{c, of.NewPredicateOracle}
	}
	sc, checked := fam.(sideChecker)
	k := famChecked{sc}
	type (
		base = famBase[*graph.Graph]
		delt = famDelta[*graph.Graph]
	)
	switch {
	case delta && oracle && checked:
		return struct {
			base
			delt
			famOracle
			famChecked
		}{b, d, o, k}
	case delta && oracle:
		return struct {
			base
			delt
			famOracle
		}{b, d, o}
	case delta && checked:
		return struct {
			base
			delt
			famChecked
		}{b, d, k}
	case oracle && checked:
		return struct {
			base
			famOracle
			famChecked
		}{b, o, k}
	case delta:
		return struct {
			base
			delt
		}{b, d}
	case oracle:
		return struct {
			base
			famOracle
		}{b, o}
	case checked:
		return struct {
			base
			famChecked
		}{b, k}
	default:
		return b
	}
}

// wrapDigraphFamily is wrapFamily for directed families.
func wrapDigraphFamily(fam lbfamily.DigraphFamily, label string, rec *recorder) lbfamily.DigraphFamily {
	c := &famCore[*graph.Digraph]{rec: rec, label: label, info: fam, build: fam.Build, predicate: fam.Predicate}
	b, d := famBase[*graph.Digraph]{c}, famDelta[*graph.Digraph]{c}
	df, delta := fam.(lbfamily.DeltaDigraphFamily)
	if delta {
		c.buildBase, c.applyBit = df.BuildBase, df.ApplyBit
	}
	var o famDiOracle
	of, oracle := fam.(lbfamily.DigraphOracleFamily)
	if oracle {
		o = famDiOracle{c, of.NewDigraphPredicateOracle}
	}
	sc, checked := fam.(sideChecker)
	k := famChecked{sc}
	type (
		base = famBase[*graph.Digraph]
		delt = famDelta[*graph.Digraph]
	)
	switch {
	case delta && oracle && checked:
		return struct {
			base
			delt
			famDiOracle
			famChecked
		}{b, d, o, k}
	case delta && oracle:
		return struct {
			base
			delt
			famDiOracle
		}{b, d, o}
	case delta && checked:
		return struct {
			base
			delt
			famChecked
		}{b, d, k}
	case oracle && checked:
		return struct {
			base
			famDiOracle
			famChecked
		}{b, o, k}
	case delta:
		return struct {
			base
			delt
		}{b, d}
	case oracle:
		return struct {
			base
			famDiOracle
		}{b, o}
	case checked:
		return struct {
			base
			famChecked
		}{b, k}
	default:
		return b
	}
}

// pairTimes is the per-pair context of a traced certify sweep. The
// wrapped Prepare creates it and the factory, node and decide wrappers
// capture it; all of them run on the sweep worker that owns the pair,
// so it needs no locking. The exported fields are the pair's span
// attributes, in nanoseconds:
//
//	pair     = prepare + run + decide  (Prepare start to decide end)
//	run      = setup + init + gossip + finish_nonroot + finish_root + round_self
//	setup    = Prepare end to the first Round, minus init
//
// init sums the factory calls, gossip the Rounds that did not finish a
// node, finish_* the finishing Rounds of non-roots and roots, and
// round_self is the simulator's own share of the run.
type pairTimes struct {
	Seed            int64 `json:"seed"`
	Roots           int   `json:"roots"`
	RootsNS         int64 `json:"roots_ns"`
	PrepareNS       int64 `json:"prepare_ns"`
	SetupNS         int64 `json:"setup_ns"`
	InitNS          int64 `json:"init_ns"`
	GossipNS        int64 `json:"gossip_ns"`
	FinishNonrootNS int64 `json:"finish_nonroot_ns"`
	FinishRootNS    int64 `json:"finish_root_ns"`
	RoundSelfNS     int64 `json:"round_self_ns"`
	DecideNS        int64 `json:"decide_ns"`

	rec        *recorder
	isRoot     []bool
	start      int64
	prepEnd    int64
	firstRound int64
}

// newPairTimes starts a pair. The roots are the minimum-id vertex of
// each component of the instance; computing them is kept out of the
// pair's span and recorded as RootsNS.
func newPairTimes(rec *recorder, seed int64, components func() []int) *pairTimes {
	t0 := rec.now()
	comp := components()
	pt := &pairTimes{Seed: seed, rec: rec, isRoot: make([]bool, len(comp))}
	seen := map[int]bool{}
	for v, c := range comp {
		if !seen[c] {
			seen[c] = true
			pt.isRoot[v] = true
			pt.Roots++
		}
	}
	pt.start = rec.now()
	pt.RootsNS = pt.start - t0
	return pt
}

func (pt *pairTimes) prepared() {
	pt.prepEnd = pt.rec.now()
	pt.PrepareNS = pt.prepEnd - pt.start
}

func (pt *pairTimes) factory(start int64) { pt.InitNS += pt.rec.now() - start }

func (pt *pairTimes) round(start int64, done, root bool) {
	d := pt.rec.now() - start
	if pt.firstRound == 0 {
		pt.firstRound = start
	}
	switch {
	case !done:
		pt.GossipNS += d
	case root:
		pt.FinishRootNS += d
	default:
		pt.FinishNonrootNS += d
	}
}

// decided closes the pair and records its span.
func (pt *pairTimes) decided(decideStart int64) {
	end := pt.rec.now()
	first := pt.firstRound
	if first == 0 {
		first = decideStart
	}
	pt.SetupNS = first - pt.prepEnd - pt.InitNS
	pt.RoundSelfNS = decideStart - pt.prepEnd - pt.SetupNS - pt.InitNS - pt.GossipNS - pt.FinishNonrootNS - pt.FinishRootNS
	pt.DecideNS = end - decideStart
	pt.rec.add(span{Name: "pair", Start: pt.start, End: end, Pair: pt})
}

// tracedNode times a node program's rounds; I and M are the simulator's
// incoming and outgoing message types.
type tracedNode[I, M any] struct {
	inner interface {
		Round(round int, inbox []I) ([]M, bool)
		Output() interface{}
	}
	pt   *pairTimes
	root bool
}

func (n *tracedNode[I, M]) Round(round int, inbox []I) ([]M, bool) {
	start := n.pt.rec.now()
	out, done := n.inner.Round(round, inbox)
	n.pt.round(start, done, n.root)
	return out, done
}

func (n *tracedNode[I, M]) Output() interface{} { return n.inner.Output() }

// traceAlgorithm wraps alg's Prepare, its factory, every node and its
// decide function.
func traceAlgorithm(alg reduction.Algorithm, rec *recorder) reduction.Algorithm {
	prepare := alg.Prepare
	alg.Prepare = func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
		pt := newPairTimes(rec, seed, func() []int { comp, _ := g.Components(); return comp })
		factory, decide, err := prepare(g, bandwidth, seed)
		pt.prepared()
		if err != nil {
			return nil, nil, err
		}
		timedFactory := func(local congest.Local) congest.Node {
			start := rec.now()
			node := factory(local)
			pt.factory(start)
			return &tracedNode[congest.Incoming, congest.Message]{inner: node, pt: pt, root: pt.isRoot[local.ID]}
		}
		timedDecide := func(res *congest.Result) (bool, error) {
			start := rec.now()
			defer pt.decided(start)
			return decide(res)
		}
		return timedFactory, timedDecide, nil
	}
	return alg
}

// traceDigraphAlgorithm is traceAlgorithm for directed algorithms; roots
// are taken over weak components.
func traceDigraphAlgorithm(alg reduction.DigraphAlgorithm, rec *recorder) reduction.DigraphAlgorithm {
	prepare := alg.Prepare
	alg.Prepare = func(d *graph.Digraph, bandwidth int, seed int64) (dicongest.Factory, func(*dicongest.Result) (bool, error), error) {
		pt := newPairTimes(rec, seed, func() []int { comp, _ := d.Underlying().Components(); return comp })
		factory, decide, err := prepare(d, bandwidth, seed)
		pt.prepared()
		if err != nil {
			return nil, nil, err
		}
		timedFactory := func(local dicongest.Local) dicongest.Node {
			start := rec.now()
			node := factory(local)
			pt.factory(start)
			return &tracedNode[dicongest.Incoming, dicongest.Message]{inner: node, pt: pt, root: pt.isRoot[local.ID]}
		}
		timedDecide := func(res *dicongest.Result) (bool, error) {
			start := rec.now()
			defer pt.decided(start)
			return decide(res)
		}
		return timedFactory, timedDecide, nil
	}
	return alg
}
