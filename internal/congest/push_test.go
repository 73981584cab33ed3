package congest_test

import (
	"math/rand"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/congest"
	"congesthard/internal/congest/congesttest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// gossip folds every (sender, payload) it receives into a running state,
// sends that state on the ports its bits select and stops at an
// id-dependent budget, so some messages reach terminated nodes. It checks
// the delivery contract as it goes: every inbox is strictly ascending in
// Port and every port is inside the node's degree.
type gossip struct {
	t      *testing.T
	id     int
	nbrs   []int
	mask   int64
	budget int
	state  uint64
	out    []congest.Message
}

func newGossip(t *testing.T, local congest.Local) *gossip {
	return &gossip{
		t:      t,
		id:     local.ID,
		nbrs:   local.Neighbors,
		mask:   int64(1)<<uint(congest.DefaultBandwidth(local.N)) - 1,
		budget: 3 + (local.ID*7)%5,
		state:  uint64(local.ID)*0x9E3779B97F4A7C15 + 1,
	}
}

func (g *gossip) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	for i, in := range inbox {
		if in.Port < 0 || in.Port >= len(g.nbrs) {
			g.t.Fatalf("round %d: node %d received on port %d of %d", round, g.id, in.Port, len(g.nbrs))
		}
		if i > 0 && in.Port <= inbox[i-1].Port {
			g.t.Fatalf("round %d: node %d inbox ports not strictly ascending: %v", round, g.id, inbox)
		}
		g.state = (g.state^uint64(g.nbrs[in.Port])*0xBF58476D1CE4E5B9^uint64(in.Payload))*0x94D049BB133111EB + 1
	}
	if round >= g.budget {
		return nil, true
	}
	g.out = g.out[:0]
	for port := range g.nbrs {
		if (g.state>>uint(port%64))&1 == 1 || round == 0 {
			g.out = append(g.out, congest.Message{Port: port, Payload: int64(g.state>>7) & g.mask})
		}
	}
	return g.out, false
}

func (g *gossip) Output() interface{} { return g.state }

// TestPushDeliveryMatchesRingPath pins that fault-free delivery agrees
// with the fault injector's ring path under a plan that injects nothing:
// the same metrics, outputs, meter observations and round traces, for a
// gossip program that checks its inboxes and for collect.
func TestPushDeliveryMatchesRingPath(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		g := graph.New(n)
		p := 0.1 + 0.5*rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					w := int64(1)
					if trial%2 == 1 {
						w = 1 + rng.Int63n(3)
					}
					g.MustAddWeightedEdge(u, v, w)
				}
			}
		}
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		gossipProgram := func() congest.Factory {
			return func(l congest.Local) congest.Node { return newGossip(t, l) }
		}
		collectProgram := func() congest.Factory {
			f, _, err := algorithms.CollectFactory(g, 0, algorithms.CollectSpec{
				Eval: func(c *graph.Graph) (int64, error) { return int64(c.M())<<32 | c.TotalEdgeWeight(), nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		for _, tc := range []struct {
			name    string
			program func() congest.Factory
		}{{"gossip", gossipProgram}, {"collect", collectProgram}} {
			run := func(fp *faults.Plan) *congesttest.Outcome {
				out := congesttest.Record(func(o congest.Options) (*congest.Result, error) {
					return congest.Run(g, tc.program(), o)
				}, congest.Options{CutSide: side, Faults: fp})
				if out.Err != nil {
					t.Fatalf("trial %d %s (faults=%v): %v", trial, tc.name, fp != nil, out.Err)
				}
				return out
			}
			if d := congesttest.Diff(run(nil), run(&faults.Plan{})); d != "" {
				t.Fatalf("trial %d %s (n=%d): pushed and through the ring: %s", trial, tc.name, n, d)
			}
		}
	}
}
