// Package main_test hosts the benchmark harness: one benchmark per
// experiment in the E1-E18 index documented in README.md. Each benchmark
// regenerates its experiment's data — the family's measured parameters
// (n, |E_cut|, K), the Theorem 1.1 implied round bound, gap values,
// protocol bit costs — and reports the headline quantity as custom
// benchmark metrics, so `go test -bench=.` reproduces the paper's
// "tables" (its theorems' quantitative content).
package main_test

import (
	"fmt"
	"math/rand"
	"testing"

	"congesthard/internal/aggregate"
	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/apxmaxislb"
	"congesthard/internal/constructions/boundedlb"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/constructions/steinerlb"
	"congesthard/internal/cover"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/limits"
	"congesthard/internal/pls"
	"congesthard/internal/solver"
)

func reportFamily(b *testing.B, stats lbfamily.Stats, f interface{ Func() comm.Function }) {
	b.Helper()
	lb, err := lbfamily.ImpliedLowerBound(stats, f.Func())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(stats.N), "n")
	b.ReportMetric(float64(stats.CutSize), "cut")
	b.ReportMetric(float64(stats.K), "K")
	b.ReportMetric(lb, "roundsLB")
	b.ReportMetric(lb/float64(stats.N), "roundsLB/n")
}

// BenchmarkE1MDSFamily: Theorem 2.1 — builds the MDS family at growing k
// and reports the implied Ω(K/(|cut|·log n)) bound; the roundsLB/n metric
// grows with n, exhibiting the super-linear (near-quadratic) shape.
func BenchmarkE1MDSFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range []int{2, 4, 8, 16, 32} {
			fam, err := mdslb.New(k)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := lbfamily.MeasureStats(fam)
			if err != nil {
				b.Fatal(err)
			}
			if k == 32 && i == 0 {
				reportFamily(b, stats, fam)
			}
		}
	}
}

// BenchmarkE1MDSPredicate times the exact predicate evaluation at k=2
// (the verification workload).
func BenchmarkE1MDSPredicate(b *testing.B) {
	fam, _ := mdslb.New(2)
	x, _ := comm.BitsFromUint64(4, 0b0101)
	y, _ := comm.BitsFromUint64(4, 0b0110)
	g, err := fam.Build(x, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fam.Predicate(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2HamPath: Theorem 2.2 — the directed Hamiltonian path family.
func BenchmarkE2HamPath(b *testing.B) {
	fam, _ := hamlb.New(2)
	x, _ := comm.BitsFromUint64(4, 0b1001)
	y, _ := comm.BitsFromUint64(4, 0b1010)
	d, err := fam.Build(x, y)
	if err != nil {
		b.Fatal(err)
	}
	stats, err := lbfamily.MeasureDigraphStats(fam)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(stats.N), "n")
	b.ReportMetric(float64(stats.CutSize), "cut")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fam.Predicate(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3HamCycle: Theorem 2.3 — the cycle variant's predicate.
func BenchmarkE3HamCycle(b *testing.B) {
	fam, _ := hamlb.NewCycle(2)
	x, _ := comm.BitsFromUint64(4, 0b0011)
	d, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := fam.Predicate(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4TwoECSS: Theorem 2.5 — Claim 2.7 equivalence check workload.
func BenchmarkE4TwoECSS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, _ := graph.HamiltonianGnp(10, 0.2, rng)
	for i := 0; i < b.N; i++ {
		ok, err := solver.HasTwoECSSWithEdges(g, g.N())
		if err != nil || !ok {
			b.Fatal(err, ok)
		}
	}
}

// BenchmarkE5Steiner: Theorem 2.7 — witness-tree construction plus
// validation on the Steiner family.
func BenchmarkE5Steiner(b *testing.B) {
	fam, _ := steinerlb.New(2)
	x, _ := comm.BitsFromUint64(4, 0b0100)
	g, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	stats, _ := lbfamily.MeasureStats(fam)
	reportFamily(b, stats, fam)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := fam.WitnessSteinerTree(x, x)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := solver.IsSteinerTree(g, fam.Terminals(), tree); !ok {
			b.Fatal("witness invalid")
		}
	}
}

// BenchmarkE6MaxCut: Theorem 2.8 — exact max-cut on the weighted family.
func BenchmarkE6MaxCut(b *testing.B) {
	fam, _ := maxcutlb.New(2)
	x, _ := comm.BitsFromUint64(4, 0b1000)
	g, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	stats, _ := lbfamily.MeasureStats(fam)
	reportFamily(b, stats, fam)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fam.Predicate(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7MaxCutApprox: Theorem 2.9 — the (1-ε) sampling algorithm's
// rounds vs the collect-everything exact algorithm, plus achieved ratio.
func BenchmarkE7MaxCutApprox(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(24, 0.5, rng)
	opt, _, err := solver.MaxCut(g)
	if err != nil {
		b.Fatal(err)
	}
	var lastRatio float64
	var sampledRounds, exactRounds int
	for i := 0; i < b.N; i++ {
		res, err := algorithms.MaxCutApprox(g, 0.5, rng)
		if err != nil {
			b.Fatal(err)
		}
		lastRatio = float64(res.AchievedValue) / float64(opt)
		sampledRounds = res.Rounds
		exact, err := algorithms.CollectAndSolve(g, func(gg *graph.Graph) (interface{}, error) {
			w, _, err := solver.MaxCut(gg)
			return w, err
		})
		if err != nil {
			b.Fatal(err)
		}
		exactRounds = exact.Rounds
	}
	b.ReportMetric(lastRatio, "ratio")
	b.ReportMetric(float64(sampledRounds), "roundsSampled")
	b.ReportMetric(float64(exactRounds), "roundsExact")
}

// BenchmarkE8BoundedPipeline: Theorem 3.1 — the G -> phi -> phi' -> G'
// reduction chain on the MVC base family, reporting the derived graph's
// degree, size and cut.
func BenchmarkE8BoundedPipeline(b *testing.B) {
	fam, err := boundedlb.NewFamily(2, 3)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b0110)
	var inst *boundedlb.Instance
	for i := 0; i < b.N; i++ {
		inst, err = fam.BuildInstance(x, x)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(inst.Result.Graph.N()), "n'")
	b.ReportMetric(float64(inst.Result.Graph.MaxDegree()), "maxDeg")
	b.ReportMetric(float64(inst.Result.CutSize), "cut")
}

// BenchmarkE9BoundedReductions: Theorems 3.2-3.3 — MVC complement and the
// MDS edge-vertex reduction on bounded-degree instances.
func BenchmarkE9BoundedReductions(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.RandomRegular(12, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		reduced := boundedlb.MDSReduction(g)
		if reduced.MaxDegree() > 2*g.MaxDegree() {
			b.Fatal("degree blow-up")
		}
	}
}

// BenchmarkE10ApproxMaxIS: Theorems 4.1/4.3 — the code-gadget gap family:
// exact weighted MaxIS on YES and NO instances, reporting the gap ratio.
func BenchmarkE10ApproxMaxIS(b *testing.B) {
	fam, err := apxmaxislb.New(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		b.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b0001)
	gYes, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	var yes int64
	for i := 0; i < b.N; i++ {
		yes, _, err = solver.MaxWeightIndependentSet(gYes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fam.NoWeight())/float64(yes), "gapRatio")
	b.ReportMetric(float64(yes), "yesWeight")
}

// BenchmarkE11ApproxMaxISLinear: Theorem 4.2 — the linear (5/6+ε) variant.
func BenchmarkE11ApproxMaxISLinear(b *testing.B) {
	fam, err := apxmaxislb.NewLinear(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		b.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(2, 0b01)
	g, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	var alpha int
	for i := 0; i < b.N; i++ {
		alpha, _, err = solver.MaxIndependentSetSize(g)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fam.NoSize())/float64(alpha), "gapRatio")
}

func kmdsParams(b *testing.B) kmdslb.Params {
	b.Helper()
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		b.Fatal(err)
	}
	return kmdslb.Params{Collection: c, R: 2}
}

// BenchmarkE12TwoMDS: Theorem 4.4 — the weighted 2-MDS gap (2 vs > r).
func BenchmarkE12TwoMDS(b *testing.B) {
	fam, err := kmdslb.NewTwoMDS(kmdsParams(b))
	if err != nil {
		b.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b0010)
	g, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		b.Fatal(err)
	}
	var yes, no int64
	for i := 0; i < b.N; i++ {
		yes, err = fam.GapWeights(g)
		if err != nil {
			b.Fatal(err)
		}
		no, err = fam.GapWeights(g0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(yes), "yesWeight")
	b.ReportMetric(float64(no), "noWeight")
}

// BenchmarkE13KMDS: Theorem 4.5 — the k = 3 subdivision variant.
func BenchmarkE13KMDS(b *testing.B) {
	fam, err := kmdslb.NewKMDS(kmdsParams(b), 3)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b0100)
	g, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ok, err := fam.Predicate(g)
		if err != nil || !ok {
			b.Fatal(err, ok)
		}
	}
}

// BenchmarkE14NodeSteiner: Theorem 4.6 — node-weighted Steiner gap.
func BenchmarkE14NodeSteiner(b *testing.B) {
	fam, err := kmdslb.NewNodeSteiner(kmdsParams(b))
	if err != nil {
		b.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b1000)
	g, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ok, err := fam.Predicate(g)
		if err != nil || !ok {
			b.Fatal(err, ok)
		}
	}
}

// BenchmarkE15DirSteiner: Theorem 4.7 — directed Steiner gap.
func BenchmarkE15DirSteiner(b *testing.B) {
	fam, err := kmdslb.NewDirSteiner(kmdsParams(b))
	if err != nil {
		b.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b0001)
	d, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ok, err := fam.Predicate(d)
		if err != nil || !ok {
			b.Fatal(err, ok)
		}
	}
}

// BenchmarkE16Aggregate: Theorem 4.8 — the two-party aggregate simulation
// on the Figure 7 construction, reporting bits per round per shared
// element (should be O(log n), independent of the elements' degrees).
func BenchmarkE16Aggregate(b *testing.B) {
	fam, err := kmdslb.NewRestricted(kmdsParams(b))
	if err != nil {
		b.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b0001)
	g, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	side := make([]byte, g.N())
	alice, bob := fam.Sides()
	for _, v := range alice {
		side[v] = aggregate.OwnerAlice
	}
	for _, v := range bob {
		side[v] = aggregate.OwnerBob
	}
	for _, v := range fam.SharedElements() {
		side[v] = aggregate.OwnerShared
	}
	var res *aggregate.Result
	for i := 0; i < b.N; i++ {
		res, err = aggregate.SimulateTwoParty(g, aggregate.GreedyDominatingSet{}, side, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	perRoundPerElement := float64(res.TwoPartyBits) / float64(res.Rounds) / float64(len(fam.SharedElements()))
	b.ReportMetric(perRoundPerElement, "bits/round/elem")
}

// BenchmarkE17LimitProtocols: Claims 5.5-5.9 — the limitation protocols on
// the actual lower-bound families, reporting achieved ratios and bit
// costs.
func BenchmarkE17LimitProtocols(b *testing.B) {
	mdsFam, _ := mdslb.New(2)
	x, _ := comm.BitsFromUint64(4, 0b0101)
	gMDS, err := mdsFam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	cutFam, _ := maxcutlb.New(2)
	gCut, err := cutFam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	var mdsRes, cutRes *limits.ProtocolResult
	for i := 0; i < b.N; i++ {
		mdsRes, err = limits.TwoApproxMDS(gMDS, mdsFam.AliceSide())
		if err != nil {
			b.Fatal(err)
		}
		cutRes, err = limits.WeightedMaxCut23(gCut, cutFam.AliceSide())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mdsRes.Ratio, "mdsRatio")
	b.ReportMetric(float64(mdsRes.Bits), "mdsBits")
	b.ReportMetric(cutRes.Ratio, "cutRatio")
	b.ReportMetric(float64(cutRes.Bits), "cutBits")
}

// BenchmarkE18PLS: Claims 5.12-5.13 and Lemma 5.1 — prove+verify cycles
// for a representative scheme set, reporting the maximum proof size.
func BenchmarkE18PLS(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Gnp(16, 0.4, rng)
	for !g.IsConnected() {
		g = graph.Gnp(16, 0.4, rng)
	}
	inst := pls.NewInstance(g)
	for _, e := range g.Edges() {
		if err := inst.MarkH(e.U, e.V); err != nil {
			b.Fatal(err)
		}
	}
	inst.S, inst.T = 0, g.N()-1
	inst.K = 1
	schemes := []pls.Scheme{
		pls.Connectivity{}, pls.STConnectivity{}, pls.CycleContainment{},
		pls.WdistAtLeast{}, pls.MatchingAtLeast{},
	}
	maxBits := 0
	for i := 0; i < b.N; i++ {
		for _, s := range schemes {
			labels, ok, err := s.Prove(inst)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				continue
			}
			if !pls.Accepts(s, inst, labels) {
				b.Fatalf("%s rejected honest labels", s.Name())
			}
			if bits := pls.ProofBits(inst, labels); bits > maxBits {
				maxBits = bits
			}
		}
	}
	b.ReportMetric(float64(maxBits), "proofBits")
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

// BenchmarkMVCFamily covers the Section 3 base family (used by E8/E9).
func BenchmarkMVCFamily(b *testing.B) {
	fam, _ := mvclb.New(2)
	x, _ := comm.BitsFromUint64(4, 0b0011)
	g, err := fam.Build(x, x)
	if err != nil {
		b.Fatal(err)
	}
	stats, _ := lbfamily.MeasureStats(fam)
	reportFamily(b, stats, fam)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fam.Predicate(g); err != nil {
			b.Fatal(err)
		}
	}
}
