package algorithms

import (
	"fmt"
	"math/rand"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// seqMeter records the exact observation sequence of accepted messages:
// the transcript surface that replay (reduction.VerifySimulation)
// compares bit for bit.
type seqMeter struct{ events []string }

func (m *seqMeter) Observe(round, from, to int, payload int64, bits int, dir congest.Direction) {
	m.events = append(m.events, fmt.Sprintf("r%d %d->%d p%d %v", round, from, to, payload, dir))
}

// TestMaximalMatchingVCMeterDeterminism checks that the randomized
// proposal matching replays exactly: a node program that built its outbox
// by ranging over a map would produce identically-sized but
// differently-ordered Meter transcripts. The outbox must follow the sorted
// port order, making the full observation sequence identical run to run,
// as the transcript replay (reduction.VerifySimulation) requires.
func TestMaximalMatchingVCMeterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		g := graph.Gnp(16, 0.4, rng)
		side := make([]bool, g.N())
		for v := 0; v < g.N()/2; v++ {
			side[v] = true
		}
		run := func() []string {
			rec := &seqMeter{}
			opts := congest.Options{
				MaxRounds: 2*40 + 6,
				CutSide:   side,
				Meter:     rec,
			}
			if _, err := congest.Run(g, MaximalMatchingVCFactory(int64(trial), 40), opts); err != nil {
				t.Fatal(err)
			}
			return rec.events
		}
		first, second := run(), run()
		if len(first) == 0 {
			t.Fatalf("trial %d: no message crossed the cut", trial)
		}
		if len(first) != len(second) {
			t.Fatalf("trial %d: transcript lengths differ: %d vs %d", trial, len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("trial %d: transcripts diverge at event %d: %q vs %q", trial, i, first[i], second[i])
			}
		}
	}
}
