package reduction

import (
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// sleepCounter counts one sweep's Round calls and its jumped rounds: the
// rounds the simulator traces although no node ran in them.
type sleepCounter struct {
	calls, jumped, rounds int64
	ran                   bool // a Round call happened in the round being traced
}

func (c *sleepCounter) ObserveRound(congest.RoundTrace) {
	c.rounds++
	if !c.ran {
		c.jumped++
	}
	c.ran = false
}

// countedNode counts its program's Round calls and forwards its Wake, so
// the simulator skips and jumps exactly as it would without the wrapper.
type countedNode struct {
	congest.Node
	sleeper congest.Sleeper
	c       *sleepCounter
}

func (n *countedNode) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	n.c.calls++
	n.c.ran = true
	return n.Node.Round(round, inbox)
}

func (n *countedNode) Wake() int { return n.sleeper.Wake() }

func (c *sleepCounter) wrap(t *testing.T, node congest.Node) congest.Node {
	s, ok := node.(congest.Sleeper)
	if !ok {
		t.Fatalf("%T does not implement congest.Sleeper", node)
	}
	return &countedNode{Node: node, sleeper: s, c: c}
}

// TestCollectSleepCounts pins how often the k = 2 exhaustive sweeps of
// mds/collect and hamlb/collect call a node's Round, and how many of
// their rounds the simulator jumps because every node sleeps and nothing
// is in flight. Collect runs to a fixed budget T, so awake it would call
// Round n·T times per pair; a node that stops sleeping after its last
// frame, or a jump that is lost, raises the counts, and a node skipped
// while it still had work changes the reports that the digest tests pin.
func TestCollectSleepCounts(t *testing.T) {
	for _, tc := range []struct {
		name          string
		calls, jumped int64
		sweep         func(c *sleepCounter, cfg Config) (*Report, error)
	}{
		{"mds/collect", 134338, 6104, func(c *sleepCounter, cfg Config) (*Report, error) {
			fam := mdsFam(t)
			alg := CollectMDS(fam)
			prepare := alg.Prepare
			alg.Prepare = func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
				factory, decide, err := prepare(g, bandwidth, seed)
				return func(l congest.Local) congest.Node { return c.wrap(t, factory(l)) }, decide, err
			}
			return Certify(fam, alg, cfg)
		}},
		{"hamlb/collect", 963100, 11523, func(c *sleepCounter, cfg Config) (*Report, error) {
			fam := hamFam(t)
			alg := CollectHamPath(fam)
			prepare := alg.Prepare
			alg.Prepare = func(d *graph.Digraph, bandwidth int, seed int64) (dicongest.Factory, func(*dicongest.Result) (bool, error), error) {
				factory, decide, err := prepare(d, bandwidth, seed)
				return func(l dicongest.Local) dicongest.Node { return c.wrap(t, factory(l)) }, decide, err
			}
			return CertifyDigraph(fam, alg, cfg)
		}},
	} {
		c := &sleepCounter{}
		rep, err := tc.sweep(c, Config{Seed: 1, Workers: 1, Trace: func(int, comm.Bits, comm.Bits) congest.Tracer { return c }})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Completed != 256 || rep.Mismatches != 0 {
			t.Fatalf("%s: %d pairs certified with %d mismatches, want 256 and 0", tc.name, rep.Completed, rep.Mismatches)
		}
		var rounds, awake int64
		for _, p := range rep.Pairs {
			rounds += int64(p.Rounds)
			awake += int64(p.Rounds * rep.Stats.N)
		}
		t.Logf("%s: %d Round calls (%d awake), %d of %d rounds jumped", tc.name, c.calls, awake, c.jumped, rounds)
		if c.rounds != rounds {
			t.Errorf("%s: %d rounds traced, the report counts %d", tc.name, c.rounds, rounds)
		}
		if c.calls != tc.calls || c.jumped != tc.jumped {
			t.Errorf("%s: %d Round calls and %d jumped rounds, want %d and %d", tc.name, c.calls, c.jumped, tc.calls, tc.jumped)
		}
	}
}

// steadyCounter counts one serial sweep's Round calls and the rounds in
// which at least one node ran. It needs no tracer (a traced run never
// jumps steady rounds): in a serial sweep each run's rounds ascend from
// 0, so a call whose round differs from the last call's starts a new
// round.
type steadyCounter struct {
	calls, ran int64
	last       int
}

// steadyNode counts its program's Round calls and forwards its Steady,
// so the simulator jumps exactly as it would without the wrapper.
type steadyNode struct {
	congest.Node
	repeater congest.Repeater
	c        *steadyCounter
}

func (n *steadyNode) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	n.c.calls++
	if round != n.c.last {
		n.c.ran++
		n.c.last = round
	}
	return n.Node.Round(round, inbox)
}

func (n *steadyNode) Steady() int { return n.repeater.Steady() }

// TestCollectRetrySteadyCounts pins how often the exhaustive k = 2
// mds/collect-retry sweep under a 1% drop plan calls a node's Round, and
// how many of its rounds the simulator jumps because every node is
// drained and repeats its pure-ack frames. Collect-retry runs to a fixed
// budget T, so unjumped it would call Round n·T times per pair; a node
// that stops declaring itself steady, or a jump that is lost, raises the
// counts, and a jump over rounds that still had work changes the reports
// that the digest tests pin.
func TestCollectRetrySteadyCounts(t *testing.T) {
	fam := mdsFam(t)
	stats, err := lbfamily.MeasureStats(fam)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	c := &steadyCounter{last: -1}
	alg := CollectRetryMDS(fam)
	prepare := alg.Prepare
	alg.Prepare = func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error) {
		factory, decide, err := prepare(g, bandwidth, seed)
		return func(l congest.Local) congest.Node {
			node := factory(l)
			r, ok := node.(congest.Repeater)
			if !ok {
				t.Fatalf("%T does not implement congest.Repeater", node)
			}
			return &steadyNode{Node: node, repeater: r, c: c}
		}, decide, err
	}
	rep, err := Certify(fam, alg, Config{
		Seed: 1, Workers: 1, Faults: plan,
		Bandwidth: algorithms.CollectRetryMinBandwidth(stats.N),
		MaxRounds: algorithms.CollectRetryRoundsCap(stats.N),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 256 || rep.Mismatches != 0 {
		t.Fatalf("%d pairs certified with %d mismatches, want 256 and 0", rep.Completed, rep.Mismatches)
	}
	var rounds, unjumped int64
	for _, p := range rep.Pairs {
		rounds += int64(p.Rounds)
		unjumped += int64(p.Rounds * stats.N)
	}
	jumped := rounds - c.ran
	t.Logf("mds/collect-retry: %d Round calls (%d unjumped), %d of %d rounds jumped", c.calls, unjumped, jumped, rounds)
	const wantCalls, wantJumped = 282260, 88543
	if c.calls != wantCalls || jumped != wantJumped {
		t.Errorf("%d Round calls and %d jumped rounds, want %d and %d", c.calls, jumped, wantCalls, wantJumped)
	}
}
