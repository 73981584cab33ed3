package dicongest_test

import (
	"math/rand"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/congest"
	"congesthard/internal/congest/congesttest"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// checkedMixer is directedMixer checking the delivery contract: every
// inbox is strictly ascending in Port and every port is inside the node's
// link degree.
type checkedMixer struct {
	directedMixer
	t *testing.T
}

func (c *checkedMixer) Round(round int, inbox []dicongest.Incoming) ([]dicongest.Message, bool) {
	for i, in := range inbox {
		if in.Port < 0 || in.Port >= len(c.nbrs) {
			c.t.Fatalf("round %d: node %d received on port %d of %d", round, c.id, in.Port, len(c.nbrs))
		}
		if i > 0 && in.Port <= inbox[i-1].Port {
			c.t.Fatalf("round %d: node %d inbox ports not strictly ascending: %v", round, c.id, inbox)
		}
	}
	return c.directedMixer.Round(round, inbox)
}

// TestPushDeliveryMatchesRingPath pins that fault-free delivery agrees
// with the fault injector's ring path under a plan that injects nothing:
// the same metrics, outputs, meter observations and round traces, for a
// gossip program that checks its inboxes and for the directed collect.
func TestPushDeliveryMatchesRingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		d := randomOrientation(n, rng)
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		gossipProgram := func() dicongest.Factory {
			return func(l dicongest.Local) dicongest.Node {
				return &checkedMixer{directedMixer: directedMixer{mixer: newMixer(l.ID, l.N, l.Neighbors)}, t: t}
			}
		}
		collectProgram := func() dicongest.Factory {
			f, _, err := algorithms.DiCollectFactory(d, 0, algorithms.DiCollectSpec{
				Eval: func(c *graph.Digraph) (int64, error) { return int64(c.M()), nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		for _, tc := range []struct {
			name    string
			program func() dicongest.Factory
		}{{"gossip", gossipProgram}, {"collect", collectProgram}} {
			run := func(fp *faults.Plan) *congesttest.Outcome {
				out := congesttest.Record(func(o congest.Options) (*congest.Result, error) {
					return dicongest.Run(d, tc.program(), o)
				}, congest.Options{CutSide: side, Faults: fp})
				if out.Err != nil {
					t.Fatalf("trial %d %s (faults=%v): %v", trial, tc.name, fp != nil, out.Err)
				}
				return out
			}
			if diff := congesttest.Diff(run(nil), run(&faults.Plan{})); diff != "" {
				t.Fatalf("trial %d %s (n=%d): pushed and through the ring: %s", trial, tc.name, n, diff)
			}
		}
	}
}
