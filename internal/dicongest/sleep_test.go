package dicongest_test

import (
	"math"
	"math/rand"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/congest"
	"congesthard/internal/congest/congesttest"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// TestSleepingMatchesAwake is congest's test on the directed front end:
// over random orientations, with and without fault plans, a sleeping
// program, the same program with every third node awake, and the
// directed collect produce the same outputs, metrics, meter entries and
// round traces (or the same *RoundsError) as when every node's Wake is
// hidden. All three broadcast, and every run must also match the run that
// sends each broadcast as one message per port, observed and unobserved.
func TestSleepingMatchesAwake(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		d := randomOrientation(n, rng)
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		bw := congest.DefaultBandwidth(n)
		seed, far := rng.Uint64(), 0
		if trial%3 == 0 {
			far = math.MaxInt
		}
		sleepy := func(l dicongest.Local) dicongest.Node {
			return congesttest.NewSleepy(l.ID, len(l.Neighbors), bw, seed, far)
		}
		mixed := func(l dicongest.Local) dicongest.Node {
			if l.ID%3 == 2 {
				return congesttest.Awake(sleepy(l))
			}
			return sleepy(l)
		}
		collect, _, err := algorithms.DiCollectFactory(d, 0, algorithms.DiCollectSpec{
			Eval: func(c *graph.Digraph) (int64, error) { return int64(c.M()), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		var plan *faults.Plan
		if trial%2 == 1 {
			plan = &faults.Plan{Seed: rng.Int63(), DropProb: 0.1 * float64(rng.Intn(3)), MaxDelay: rng.Intn(3), DropBudget: rng.Intn(2)}
			if n > 1 && rng.Intn(2) == 0 {
				plan.Crashes = []faults.Crash{{Node: rng.Intn(n), Round: rng.Intn(12)}}
			}
			if arcs := d.Arcs(); len(arcs) > 0 && rng.Intn(2) == 0 {
				a := arcs[rng.Intn(len(arcs))]
				plan.LinkFailures = []faults.LinkFailure{{U: a.From, V: a.To, Round: rng.Intn(12)}}
			}
		}
		for _, tc := range []struct {
			name    string
			factory dicongest.Factory
		}{{"sleepy", sleepy}, {"mixed", mixed}, {"collect", collect}} {
			run := func(f dicongest.Factory) func(congest.Options) (*congest.Result, error) {
				return func(o congest.Options) (*congest.Result, error) { return dicongest.Run(d, f, o) }
			}
			opts := congest.Options{CutSide: side, Faults: plan, MaxRounds: 200}
			sleeping := congesttest.Record(run(tc.factory), opts)
			awake := congesttest.Record(run(func(l dicongest.Local) dicongest.Node { return congesttest.Awake(tc.factory(l)) }), opts)
			if diff := congesttest.Diff(sleeping, awake); diff != "" {
				t.Fatalf("trial %d %s (n=%d, faults=%v): sleeping and awake runs differ: %s", trial, tc.name, n, plan != nil, diff)
			}
			unicast := run(func(l dicongest.Local) dicongest.Node { return congesttest.Unicast(tc.factory(l), len(l.Neighbors)) })
			if diff := congesttest.Diff(sleeping, congesttest.Record(unicast, opts)); diff != "" {
				t.Fatalf("trial %d %s (n=%d, faults=%v): broadcasting and unicast runs differ: %s", trial, tc.name, n, plan != nil, diff)
			}
			if diff := congesttest.Diff(congesttest.Unobserved(run(tc.factory), opts), congesttest.Unobserved(unicast, opts)); diff != "" {
				t.Fatalf("trial %d %s (n=%d, faults=%v): unobserved broadcasting and unicast runs differ: %s", trial, tc.name, n, plan != nil, diff)
			}
		}
	}
}
