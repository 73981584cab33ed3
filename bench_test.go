// Package main_test hosts the simulator and verifier micro-benchmarks
// that CI's bench smoke runs: BenchmarkCongestRunCore and
// BenchmarkDicongestRunCore pin the round loop's allocations, and
// BenchmarkVerifyExhaustive pins each family's Definition 1.1 sweep. The
// paper's experiments themselves run as `hardness -experiment all`
// (README.md's E1-E18 index); bench/hardbench measures throughput.
package main_test

import (
	"fmt"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/constructions/boundedlb"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/steinerlb"
	"congesthard/internal/cover"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

func kmdsParams(b *testing.B) kmdslb.Params {
	b.Helper()
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		b.Fatal(err)
	}
	return kmdslb.Params{Collection: c, R: 2}
}

// chatterNode floods a fixed payload every round, reusing its outbox so
// that the measured allocations are the simulator's own.
type chatterNode struct {
	outbox []congest.Message
	budget int
}

func (c *chatterNode) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	if round >= c.budget {
		return nil, true
	}
	return c.outbox, false
}

func (c *chatterNode) Output() interface{} { return nil }

// BenchmarkCongestRunCore measures the simulator core: an all-to-neighbors
// flood on a 64-vertex degree-8 circulant graph. allocs/op is flat across
// the rounds sub-benchmarks — the per-round simulation is allocation-free,
// so only the O(1) per-Run setup allocates (compare rounds=64 with
// rounds=1024: same allocs/op). The faults variant runs the same flood
// under a drop+delay plan: injection stays allocation-free per round too,
// and without an arena the per-Run setup of the injector and its delay
// rings adds a constant (on a warm arena it adds nothing).
func BenchmarkCongestRunCore(b *testing.B) {
	const n = 64
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for off := 1; off <= 4; off++ {
			g.MustAddEdge(v, (v+off)%n)
		}
	}
	var err error
	for _, bc := range []struct {
		rounds int
		plan   *faults.Plan
	}{
		{64, nil},
		{1024, nil},
		{1024, &faults.Plan{Seed: 5, DropProb: 0.02, MaxDelay: 2}},
	} {
		name := fmt.Sprintf("rounds=%d", bc.rounds)
		if bc.plan != nil {
			name += ",faults"
		}
		rounds, plan := bc.rounds, bc.plan
		b.Run(name, func(b *testing.B) {
			factory := func(local congest.Local) congest.Node {
				out := make([]congest.Message, len(local.Neighbors))
				for i := range local.Neighbors {
					out[i] = congest.Message{Port: i, Payload: int64(local.ID)}
				}
				return &chatterNode{outbox: out, budget: rounds}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *congest.Result
			for i := 0; i < b.N; i++ {
				res, err = congest.Run(g, factory, congest.Options{MaxRounds: rounds + 2, Faults: plan})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds/op")
			b.ReportMetric(float64(res.Messages), "msgs/op")
		})
	}
}

// diChatterNode is chatterNode for the directed simulator.
type diChatterNode struct {
	outbox []dicongest.Message
	budget int
}

func (c *diChatterNode) Round(round int, inbox []dicongest.Incoming) ([]dicongest.Message, bool) {
	if round >= c.budget {
		return nil, true
	}
	return c.outbox, false
}

func (c *diChatterNode) Output() interface{} { return nil }

// BenchmarkDicongestRunCore measures the directed simulator core: an
// all-to-links flood on a 64-vertex out-degree-4 directed circulant (each
// vertex has 8 full-duplex links, 512 messages per round network-wide).
// allocs/op is flat across the rounds sub-benchmarks — the per-round
// simulation is allocation-free, like the undirected core, with or
// without a fault plan.
func BenchmarkDicongestRunCore(b *testing.B) {
	const n = 64
	d := graph.NewDigraph(n)
	for v := 0; v < n; v++ {
		for off := 1; off <= 4; off++ {
			d.MustAddArc(v, (v+off)%n)
		}
	}
	var err error
	for _, bc := range []struct {
		rounds int
		plan   *faults.Plan
	}{
		{64, nil},
		{1024, nil},
		{1024, &faults.Plan{Seed: 5, DropProb: 0.02, MaxDelay: 2}},
	} {
		name := fmt.Sprintf("rounds=%d", bc.rounds)
		if bc.plan != nil {
			name += ",faults"
		}
		rounds, plan := bc.rounds, bc.plan
		b.Run(name, func(b *testing.B) {
			factory := func(local dicongest.Local) dicongest.Node {
				out := make([]dicongest.Message, len(local.Neighbors))
				for i := range local.Neighbors {
					out[i] = dicongest.Message{Port: i, Payload: int64(local.ID)}
				}
				return &diChatterNode{outbox: out, budget: rounds}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var res *dicongest.Result
			for i := 0; i < b.N; i++ {
				res, err = dicongest.Run(d, factory, dicongest.Options{MaxRounds: rounds + 2, Faults: plan})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds/op")
			b.ReportMetric(float64(res.Messages), "msgs/op")
		})
	}
}

// BenchmarkVerifyExhaustive runs the full Definition 1.1 exhaustive
// verification (all 2^(2K) pairs, parallel across cores) for the heaviest
// Section 2-4 families; this is the workload the constructions test
// suites spend their time in. All the families here are delta-enabled —
// undirected and directed alike — so verification walks the input cube
// in Gray-code order with per-worker oracle arenas: allocs/op must stay
// flat in the number of pairs (a few allocations per pair of per-worker
// setup cost at k=2 — the CI bench smoke fails if it regresses toward
// the hundreds-per-pair of the rebuild paths).
func BenchmarkVerifyExhaustive(b *testing.B) {
	families := []struct {
		name   string
		verify func(b *testing.B) func() error
	}{
		{"mdslb", func(b *testing.B) func() error {
			fam, err := mdslb.New(2)
			if err != nil {
				b.Fatal(err)
			}
			return func() error { return lbfamily.Verify(fam) }
		}},
		{"maxcutlb", func(b *testing.B) func() error {
			fam, err := maxcutlb.New(2)
			if err != nil {
				b.Fatal(err)
			}
			return func() error { return lbfamily.Verify(fam) }
		}},
		{"steinerlb", func(b *testing.B) func() error {
			fam, err := steinerlb.New(2)
			if err != nil {
				b.Fatal(err)
			}
			return func() error { return lbfamily.Verify(fam) }
		}},
		{"hamlb", func(b *testing.B) func() error {
			fam, err := hamlb.New(2)
			if err != nil {
				b.Fatal(err)
			}
			return func() error { return lbfamily.VerifyDigraph(fam) }
		}},
		{"kmdslb", func(b *testing.B) func() error {
			fam, err := kmdslb.NewTwoMDS(kmdsParams(b))
			if err != nil {
				b.Fatal(err)
			}
			return func() error { return lbfamily.Verify(fam) }
		}},
		{"dirsteinerlb", func(b *testing.B) func() error {
			fam, err := kmdslb.NewDirSteiner(kmdsParams(b))
			if err != nil {
				b.Fatal(err)
			}
			return func() error { return lbfamily.VerifyDigraph(fam) }
		}},
		{"boundedlb", func(b *testing.B) func() error {
			fam, err := boundedlb.NewFamily(2, 3)
			if err != nil {
				b.Fatal(err)
			}
			return func() error { return lbfamily.Verify(fam) }
		}},
	}
	for _, bench := range families {
		b.Run(bench.name, func(b *testing.B) {
			verify := bench.verify(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
