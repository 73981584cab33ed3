package congest_test

import (
	"fmt"
	"math/rand"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/congest"
	"congesthard/internal/congest/congesttest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// steadyPlans names the fault plans TestSteadyMatchesUnjumped cycles
// through; the last two carry per-link state across rounds, so the loop
// must not jump under them.
var steadyPlans = []string{"fault-free", "drops", "crash", "link failure", "budget", "delay"}

// steadyPlan draws the plan of the given kind (an index into steadyPlans)
// for g. The crash lands inside a shared stretch of Repeating's for seed,
// a window the loop would skip if every node stayed steady through it.
func steadyPlan(g *graph.Graph, kind int, seed uint64, rng *rand.Rand) *faults.Plan {
	n := g.N()
	p := &faults.Plan{Seed: rng.Int63(), DropProb: 0.1}
	switch steadyPlans[kind] {
	case "fault-free":
		return nil
	case "crash":
		end, round := congesttest.StretchEnd(seed, 0), 0
		for next := congesttest.StretchEnd(seed, end); ; next = congesttest.StretchEnd(seed, end) {
			if next-end >= 5 {
				round = end + 2 + rng.Intn(next-end-3)
				break
			}
			end = next
		}
		p.Crashes = []faults.Crash{{Node: rng.Intn(n), Round: round}}
	case "link failure":
		if g.M() > 0 {
			e := g.Edges()[rng.Intn(g.M())]
			p.LinkFailures = []faults.LinkFailure{{U: e.U, V: e.V, Round: rng.Intn(60)}}
		}
	case "budget":
		p.DropBudget = 1 + rng.Intn(2)
	case "delay":
		p.MaxDelay = 1 + rng.Intn(3)
	}
	return p
}

// runJumped runs factory on g with no observer, as it is and with every
// node's Steady (and Wake) hidden, and fails unless the two runs show the
// same metrics and outputs, or the same error. If the factory's nodes
// count their Round calls in *calls, it returns each run's count.
func runJumped(t *testing.T, what string, g *graph.Graph, factory congest.Factory, opts congest.Options, calls *int) (jumpedCalls, hiddenCalls int) {
	t.Helper()
	run := func(f congest.Factory) func(congest.Options) (*congest.Result, error) {
		return func(o congest.Options) (*congest.Result, error) { return congest.Run(g, f, o) }
	}
	if calls == nil {
		calls = new(int)
	}
	*calls = 0
	jumped := congesttest.Unobserved(run(factory), opts)
	jumpedCalls, *calls = *calls, 0
	hidden := congesttest.Unobserved(run(func(l congest.Local) congest.Node { return congesttest.Awake(factory(l)) }), opts)
	if d := congesttest.Diff(jumped, hidden); d != "" {
		t.Fatalf("%s: jumped and unjumped runs differ: %s", what, d)
	}
	return jumpedCalls, *calls
}

// TestSteadyMatchesUnjumped pins that jumping steady rounds changes
// nothing a run shows: over random graphs and fault plans, a repeating
// program (whose behaviour at the end of a stretch reads its inbox) and
// collect-retry produce the same metrics and outputs, or the same
// *RoundsError, as when every node's Steady is hidden. The repeating
// program broadcasts now and then; its runs must also match the runs that
// send each broadcast as one message per port, jumped or observed. MaxRounds falls
// below some stretch ends and some collect-retry budgets. The loop must
// jump rounds under the first four plan kinds and never under drop
// budgets or delays, where it runs every round of the unjumped run.
func TestSteadyMatchesUnjumped(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	jumped := make([]int, len(steadyPlans))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		g := randomGraph(n, rng)
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		kind := trial % len(steadyPlans)
		seed := rng.Uint64()
		plan := steadyPlan(g, kind, seed, rng)
		what := fmt.Sprintf("trial %d (n=%d, %s)", trial, n, steadyPlans[kind])

		maxRounds := 30 + rng.Intn(80)
		far := 0
		if trial%4 == 0 {
			far = maxRounds + rng.Intn(3)
		}
		bw := congest.DefaultBandwidth(n)
		var counter int
		repeating := func(l congest.Local) congest.Node {
			return congesttest.NewRepeating(l.ID, len(l.Neighbors), bw, seed, far, &counter)
		}
		opts := congest.Options{CutSide: side, Faults: plan, MaxRounds: maxRounds}
		calls, hiddenCalls := runJumped(t, what+" repeating", g, repeating, opts, &counter)
		runUnicast(t, what+" repeating", g, repeating, opts)
		switch {
		case calls > hiddenCalls:
			t.Fatalf("%s: the jumped run made %d Round calls, the unjumped one %d", what, calls, hiddenCalls)
		case calls < hiddenCalls && kind >= 4:
			t.Fatalf("%s: the loop jumped under a plan that carries per-link state", what)
		case calls < hiddenCalls:
			jumped[kind]++
		}

		collect, budget, err := algorithms.CollectRetryFactory(g, 0, algorithms.CollectSpec{
			Eval: func(c *graph.Graph) (int64, error) { return int64(c.M())<<32 | c.TotalEdgeWeight(), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		opts = congest.Options{
			BandwidthBits: algorithms.CollectRetryMinBandwidth(n),
			CutSide:       side,
			Faults:        plan,
			MaxRounds:     algorithms.CollectRetryRoundsCap(n),
		}
		if trial%5 == 0 {
			opts.MaxRounds = 1 + rng.Intn(budget+1)
		}
		runJumped(t, what+" collect-retry", g, collect, opts, nil)
	}
	for kind, name := range steadyPlans[:4] {
		if jumped[kind] == 0 {
			t.Errorf("no %s trial jumped a round", name)
		}
	}
	t.Logf("trials that jumped, by plan: %v", jumped)
}
