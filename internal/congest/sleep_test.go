package congest_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/congest"
	"congesthard/internal/congest/congesttest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// randomPlan draws a fault plan for g from bits: nil for 0, and
// otherwise the empty plan plus drops (bit 1), delays (bit 2), a drop
// budget (bit 3), a crash (bit 4) and a failing link (bit 5).
func randomPlan(g *graph.Graph, bits uint8, rng *rand.Rand) *faults.Plan {
	if bits == 0 {
		return nil
	}
	n := g.N()
	p := &faults.Plan{Seed: rng.Int63()}
	if bits&2 != 0 {
		p.DropProb = 0.2
	}
	if bits&4 != 0 {
		p.MaxDelay = 1 + rng.Intn(3)
	}
	if bits&8 != 0 {
		p.DropBudget = 1
	}
	if bits&16 != 0 {
		p.Crashes = []faults.Crash{{Node: rng.Intn(n), Round: rng.Intn(12)}}
	}
	if bits&32 != 0 && g.M() > 0 {
		e := g.Edges()[rng.Intn(g.M())]
		p.LinkFailures = []faults.LinkFailure{{U: e.U, V: e.V, Round: rng.Intn(12)}}
	}
	return p
}

// randomGraph draws a G(n, p) graph with weights 1..3.
func randomGraph(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	p := 0.1 + 0.6*rng.Float64()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddWeightedEdge(u, v, 1+rng.Int63n(3))
			}
		}
	}
	return g
}

// runBoth runs factory on g as it is and with every node's Wake hidden,
// and fails unless the two runs are identical. It also checks the run's
// broadcasts against their per-port expansion (runUnicast).
func runBoth(t *testing.T, what string, g *graph.Graph, factory congest.Factory, opts congest.Options) (sleeping *congesttest.Outcome) {
	t.Helper()
	run := func(f congest.Factory) func(congest.Options) (*congest.Result, error) {
		return func(o congest.Options) (*congest.Result, error) { return congest.Run(g, f, o) }
	}
	sleeping = congesttest.Record(run(factory), opts)
	awake := congesttest.Record(run(func(l congest.Local) congest.Node { return congesttest.Awake(factory(l)) }), opts)
	if d := congesttest.Diff(sleeping, awake); d != "" {
		t.Fatalf("%s: sleeping and awake runs differ: %s", what, d)
	}
	runUnicast(t, what, g, factory, opts)
	return sleeping
}

// runUnicast runs factory on g as it is and behind congesttest.Unicast,
// which sends each broadcast as one message per port, and fails unless
// the two runs are identical: observed (a round tracer, and a meter when
// opts has a cut) and unobserved, where the loop may jump steady rounds.
func runUnicast(t *testing.T, what string, g *graph.Graph, factory congest.Factory, opts congest.Options) {
	t.Helper()
	run := func(f congest.Factory) func(congest.Options) (*congest.Result, error) {
		return func(o congest.Options) (*congest.Result, error) { return congest.Run(g, f, o) }
	}
	unicast := run(func(l congest.Local) congest.Node { return congesttest.Unicast(factory(l), len(l.Neighbors)) })
	if d := congesttest.Diff(congesttest.Record(run(factory), opts), congesttest.Record(unicast, opts)); d != "" {
		t.Fatalf("%s: broadcasting and unicast runs differ: %s", what, d)
	}
	if d := congesttest.Diff(congesttest.Unobserved(run(factory), opts), congesttest.Unobserved(unicast, opts)); d != "" {
		t.Fatalf("%s: unobserved broadcasting and unicast runs differ: %s", what, d)
	}
}

// TestSleepingMatchesAwake pins that sleeping changes nothing a run
// shows: over random graphs, with and without fault plans, a sleeping
// program, the same program with every third node awake, and collect
// produce the same outputs, metrics, meter entries and round traces (or
// the same *RoundsError) as when every node's Wake is hidden. All three
// broadcast, and every run must also match the run that sends each
// broadcast as one message per port.
func TestSleepingMatchesAwake(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		g := randomGraph(n, rng)
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		bw := congest.DefaultBandwidth(n)
		seed, far := rng.Uint64(), 0
		if trial%3 == 0 {
			far = math.MaxInt
		}
		sleepy := func(l congest.Local) congest.Node {
			return congesttest.NewSleepy(l.ID, len(l.Neighbors), bw, seed, far)
		}
		mixed := func(l congest.Local) congest.Node {
			if l.ID%3 == 2 {
				return congesttest.Awake(sleepy(l))
			}
			return sleepy(l)
		}
		collect, _, err := algorithms.CollectFactory(g, 0, algorithms.CollectSpec{
			Eval: func(c *graph.Graph) (int64, error) { return int64(c.M())<<32 | c.TotalEdgeWeight(), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := randomPlan(g, uint8(rng.Intn(64)), rng)
		for _, tc := range []struct {
			name    string
			factory congest.Factory
		}{{"sleepy", sleepy}, {"mixed", mixed}, {"collect", collect}} {
			opts := congest.Options{CutSide: side, Faults: plan, MaxRounds: 200}
			runBoth(t, fmt.Sprintf("trial %d %s (n=%d, faults=%v)", trial, tc.name, n, plan != nil), g, tc.factory, opts)
		}
	}
}

// FuzzRun drives the round loop with a random sleeping program and a
// random repeating program on a random graph under a random fault plan;
// some nodes sleep, or stay steady, past MaxRounds. The sleeping run must
// agree with the run with every Wake hidden, and the repeating run, with
// no observer so that steady rounds are jumped, with the run with every
// Steady hidden, *RoundsError included. Both programs broadcast now and
// then, and each run must also agree with the run that sends every
// broadcast as one message per port, observed and unobserved, with and
// without a cut. A finished sleeping run's traced
// sends must sum to Metrics.Messages, and its cut bits must respect the
// Theorem 1.1 budget 2·T·B·|E_cut|.
func FuzzRun(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(0), uint64(2), uint8(40), false)
	f.Add(uint64(3), uint8(9), uint8(63), uint64(5), uint8(20), true)
	f.Add(uint64(7), uint8(12), uint8(6), uint64(11), uint8(60), true)
	f.Add(uint64(9), uint8(1), uint8(17), uint64(13), uint8(3), false)
	f.Fuzz(func(t *testing.T, graphSeed uint64, size, faultBits uint8, progSeed uint64, limit uint8, far bool) {
		rng := rand.New(rand.NewSource(int64(graphSeed)))
		n := 1 + int(size%14)
		g := randomGraph(n, rng)
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		maxRounds := 1 + int(limit%96)
		farWake := 0
		if far {
			farWake = maxRounds + int(progSeed%3)
		}
		bw := congest.DefaultBandwidth(n)
		factory := func(l congest.Local) congest.Node {
			return congesttest.NewSleepy(l.ID, len(l.Neighbors), bw, progSeed, farWake)
		}
		opts := congest.Options{CutSide: side, Faults: randomPlan(g, faultBits, rng), MaxRounds: maxRounds}
		repeating := func(l congest.Local) congest.Node {
			return congesttest.NewRepeating(l.ID, len(l.Neighbors), bw, progSeed, farWake, nil)
		}
		runJumped(t, "fuzz repeating", g, repeating, opts, nil)
		runUnicast(t, "fuzz repeating", g, repeating, opts)
		uncut := opts
		uncut.CutSide = nil
		runUnicast(t, "fuzz repeating without a cut", g, repeating, uncut)
		runUnicast(t, "fuzz without a cut", g, factory, uncut)
		out := runBoth(t, "fuzz", g, factory, opts)
		if out.Err != nil {
			return
		}
		sent := 0
		for _, r := range out.Rounds {
			sent += r.Sent
		}
		m := out.Result.Metrics
		if len(out.Rounds) != m.Rounds {
			t.Fatalf("%d rounds traced, Metrics.Rounds is %d", len(out.Rounds), m.Rounds)
		}
		if int64(sent) != m.Messages {
			t.Fatalf("traced sends sum to %d, Metrics.Messages is %d", sent, m.Messages)
		}
		cut := 0
		for _, e := range g.Edges() {
			if side[e.U] != side[e.V] {
				cut++
			}
		}
		if budget := 2 * int64(m.Rounds) * int64(m.BandwidthBits) * int64(cut); m.CutBits > budget {
			t.Fatalf("%d cut bits over %d rounds exceed 2·T·B·|E_cut| = %d", m.CutBits, m.Rounds, budget)
		}
	})
}
