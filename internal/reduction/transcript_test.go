package reduction

import (
	"math/rand"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
)

// randomSide draws a non-trivial bipartition.
func randomSide(n int, rng *rand.Rand) []bool {
	side := make([]bool, n)
	for {
		ones := 0
		for v := range side {
			side[v] = rng.Intn(2) == 1
			if side[v] {
				ones++
			}
		}
		if ones > 0 && ones < n {
			return side
		}
	}
}

func floodFactory(budget int) congest.Factory {
	return func(local congest.Local) congest.Node {
		best := int64(local.ID)
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				for _, m := range inbox {
					if m.Payload < best {
						best = m.Payload
					}
				}
				if round >= budget {
					return nil, true
				}
				out := make([]congest.Message, 0, len(local.Neighbors))
				for port := range local.Neighbors {
					out = append(out, congest.Message{Port: port, Payload: best})
				}
				return out, false
			},
			OutputFunc: func() interface{} { return best },
		}
	}
}

func TestTranscriptBitsMatchMeterTotals(t *testing.T) {
	// Differential: on randomized graphs and cuts, the transcript's bit
	// totals must equal the simulator metrics' cut-bit totals exactly.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		n := 6 + rng.Intn(10)
		g := graph.Gnp(n, 0.5, rng)
		for !g.IsConnected() {
			g = graph.Gnp(n, 0.5, rng)
		}
		side := randomSide(n, rng)
		transcript, res, err := ExtractTranscript(g, side, floodFactory(n), congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if transcript.Bits() != res.CutBits {
			t.Errorf("trial %d: transcript %d bits, metrics %d", trial, transcript.Bits(), res.CutBits)
		}
		var msgs int64
		for _, e := range transcript.Entries {
			if e.Bits != res.BandwidthBits {
				t.Errorf("trial %d: entry bits %d != bandwidth %d", trial, e.Bits, res.BandwidthBits)
			}
			if side[e.From] == side[e.To] {
				t.Errorf("trial %d: internal message %d->%d in transcript", trial, e.From, e.To)
			}
			if (e.Dir == congest.DirAliceToBob) != side[e.From] {
				t.Errorf("trial %d: direction %v inconsistent with sides of %d->%d", trial, e.Dir, e.From, e.To)
			}
			msgs++
		}
		if msgs != res.CutMessages {
			t.Errorf("trial %d: transcript %d messages, metrics %d", trial, msgs, res.CutMessages)
		}
	}
}

func TestTranscriptEntriesOrdered(t *testing.T) {
	g := graph.Complete(8)
	side := []bool{true, false, true, false, true, false, true, false}
	transcript, _, err := ExtractTranscript(g, side, floodFactory(4), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(transcript.Entries) == 0 {
		t.Fatal("empty transcript on a complete graph")
	}
	for i := 1; i < len(transcript.Entries); i++ {
		prev, cur := transcript.Entries[i-1], transcript.Entries[i]
		if cur.Round < prev.Round || (cur.Round == prev.Round && cur.From < prev.From) {
			t.Fatalf("transcript out of order at %d: %+v after %+v", i, cur, prev)
		}
	}
}

func TestVerifySimulationOnRandomGraphs(t *testing.T) {
	// The simulation invariant holds for deterministic-by-seed programs:
	// flooding and the randomized matching proposal program.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(8)
		g := graph.Gnp(n, 0.5, rng)
		for !g.IsConnected() {
			g = graph.Gnp(n, 0.5, rng)
		}
		side := randomSide(n, rng)
		if _, _, err := VerifySimulation(g, side, floodFactory(n), congest.Options{}); err != nil {
			t.Errorf("trial %d flood: %v", trial, err)
		}
		matching := algorithms.MaximalMatchingVCFactory(int64(trial)*77+3, n+4)
		if _, _, err := VerifySimulation(g, side, matching, congest.Options{}); err != nil {
			t.Errorf("trial %d matching: %v", trial, err)
		}
	}
}

func TestVerifySimulationOnFamilyInstance(t *testing.T) {
	// Alice's replayed view on a real family instance: collect on
	// G_{x,y} of the MDS family with the family's own bipartition.
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b1010)
	y, _ := comm.BitsFromUint64(4, 0b0110)
	g, err := fam.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	factory, _, err := algorithms.CollectFactory(g, 0, algorithms.CollectSpec{
		Eval: func(component *graph.Graph) (int64, error) { return int64(component.M()), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	transcript, res, err := VerifySimulation(g, fam.AliceSide(), factory, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if transcript.Bits() != res.CutBits || transcript.Bits() == 0 {
		t.Errorf("transcript bits %d, metrics %d", transcript.Bits(), res.CutBits)
	}
	bound := 2 * int64(res.Rounds) * int64(res.BandwidthBits) * int64(len(g.CutEdges(fam.AliceSide())))
	if transcript.Bits() > bound {
		t.Errorf("transcript %d bits exceeds the Theorem 1.1 budget %d", transcript.Bits(), bound)
	}
}

// TestVerifySimulationCatchesNondeterminism plants hidden global state on
// ALICE's side (Bob-side nondeterminism is legitimately masked — his
// vertices are replaced by transcript stubs): the replay re-instantiates
// Alice's programs, observes different behavior, and VerifySimulation must
// report the violation.
func TestVerifySimulationCatchesNondeterminism(t *testing.T) {
	g := graph.Path(4)
	side := []bool{true, true, false, false}
	instances := 0
	factory := func(local congest.Local) congest.Node {
		if local.ID == 1 {
			instances++
		}
		stamp := int64(instances)
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				if local.ID == 1 && round == 0 {
					// Alice's cut endpoint sends a different payload on
					// every (re-)instantiation of the network.
					return []congest.Message{{Port: 1, Payload: stamp}}, round >= 1 // to vertex 2
				}
				return nil, round >= 1
			},
			OutputFunc: func() interface{} {
				if local.ID == 1 {
					return stamp
				}
				return nil
			},
		}
	}
	if _, _, err := VerifySimulation(g, side, factory, congest.Options{}); err == nil {
		t.Error("nondeterministic program passed the simulation invariant")
	}
}

func TestVerifySimulationRejectsBadSide(t *testing.T) {
	g := graph.Path(4)
	if _, _, err := VerifySimulation(g, []bool{true}, floodFactory(2), congest.Options{}); err == nil {
		t.Error("undersized bipartition accepted")
	}
}
