// Command hardness is the experiment runner: it regenerates the
// quantitative content of the paper's theorems (see README.md's experiment
// index).
//
// Usage:
//
//	hardness -experiment all          # run everything
//	hardness -experiment E1           # one experiment
//	hardness -list                    # list experiment ids (authoritative)
//	hardness -seed 7 -experiment E7   # reseed the randomized experiments
//
// Certify mode runs the reduction engine: a CONGEST algorithm over the
// input pairs of a lower-bound family with the Alice-Bob cut metered
// (Theorem 1.1 made executable):
//
//	hardness -certify list                      # list family/algorithm pairings
//	hardness -certify mds -alg collect          # exhaustive (K <= 8)
//	hardness -certify mds -alg greedy -pairs 32 # sampled
//	hardness -certify maxcut -alg sampled -pairs 16 -seed 7
//	hardness -certify hamlb -alg collect        # directed (dicongest) pairing
//	hardness -certify dir-steiner -alg collect -pairs 8
//
// Sweeps run on one engine across GOMAXPROCS workers by default and
// report the same pairs, seeds and first error at any worker count
// (bit-identical output). -workers caps the worker count; -workers 1
// walks the pairs in canonical order on one goroutine:
//
//	hardness -certify mds -alg collect -workers 2
//	hardness -certify mds -alg collect -workers 1
//
// Certification runs accept a deterministic fault plan (-faults, see the
// faults package for the format), a wall-clock deadline (-timeout) and
// SIGINT/SIGTERM; an interrupted sweep prints the partial report of the
// pairs certified so far. The retransmitting collect stays exact under
// bounded drop rates:
//
//	hardness -certify mds -alg collect-retry -faults drop=0.01,seed=7 -timeout 30s
//
// -trace prints one line per simulated round (pair, round, messages sent,
// delivered, dropped, live nodes); it runs one worker and skips
// transcript replays so every pair traces exactly once, in order:
//
//	hardness -certify mds -alg collect -pairs 4 -trace | grep 'trace pair=0 '
//
// Serve mode runs the same pairings as a long-lived HTTP job service with
// bounded concurrency, load shedding and graceful drain (see the serve
// package):
//
//	hardness serve -addr :8080 -workers 2 -queue 16
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"congesthard/internal/aggregate"
	"congesthard/internal/algorithms"
	"congesthard/internal/cnf"
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
	"congesthard/internal/expander"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/limits"
	"congesthard/internal/pls"
	"congesthard/internal/reduction"
	"congesthard/internal/serve"
	"congesthard/internal/solver"
)

// seed drives every randomized experiment (E4, E7, E9, E18 and the
// sampled verifications); it is printed with the output so runs are
// reproducible by default and variable on demand via -seed.
var seed int64

func main() {
	// "hardness serve" is a subcommand with its own flag set.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	experiment := flag.String("experiment", "all", "experiment id (E1..E18, see -list) or 'all'")
	list := flag.Bool("list", false, "list experiment ids (the authoritative index)")
	certify := flag.String("certify", "", "certify a family with -alg ('mds', 'mvc', 'maxcut', 'hamlb', 'dir-steiner', or 'list')")
	alg := flag.String("alg", "", "algorithm for -certify (mds: collect|collect-retry|greedy; mvc: matching; maxcut: sampled|exact; hamlb: collect|greedy-path; dir-steiner: collect)")
	pairs := flag.Int("pairs", 0, "sampled (x,y) pairs for -certify; 0 = exhaustive over all 2^(2K) pairs (K <= 8)")
	workers := flag.Int("workers", 0, "worker goroutines for the -certify sweep; 0 = GOMAXPROCS, 1 = canonical order")
	faultSpec := flag.String("faults", "", "fault plan for -certify, e.g. 'drop=0.01,seed=7' or 'delay=2,crash=3@0,fail=1-2@5' (seed defaults to -seed)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for -certify; an interrupted sweep prints the partial report (0 = none)")
	trace := flag.Bool("trace", false, "print one line per simulated round for -certify (implies -workers 1; disables transcript replays so each pair is traced once)")
	flag.Int64Var(&seed, "seed", 1, "seed for the randomized experiments")
	flag.Parse()
	if *certify != "" {
		// Ctrl-C / SIGTERM cancels the sweep like -timeout does: the
		// partial report of the pairs certified so far is printed and the
		// process exits 1 (the interrupted-run exit-code contract).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runCertify(ctx, os.Stdout, *certify, *alg, *pairs, *faultSpec, *timeout, *workers, *trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(*experiment, *list); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runCertify resolves the family/algorithm pairing in the shared serve
// registry (the CLI and the job server certify exactly the same wirings)
// and runs one sweep under ctx, printing the report — partial if the
// sweep was interrupted — to out.
func runCertify(ctx context.Context, out io.Writer, famName, algName string, pairs int, faultSpec string, timeout time.Duration, workers int, trace bool) error {
	reg := serve.DefaultRegistry()
	if famName == "list" {
		for _, p := range reg.List() {
			fmt.Fprintln(out, p.Key())
		}
		return nil
	}
	pairing, ok := reg.Lookup(famName, algName)
	if !ok {
		return fmt.Errorf("unknown pairing %s/%s (try -certify list)", famName, algName)
	}
	run, err := pairing.Build()
	if err != nil {
		return err
	}
	cfg := reduction.Config{
		Pairs:            pairs,
		Seed:             seed,
		TranscriptChecks: 1,
		Workers:          workers,
	}
	if trace {
		// Round lines from several workers would interleave, and a
		// transcript replay simulates its pair a second time (double
		// round lines) — run one worker and skip the replays so each
		// pair traces exactly once, in canonical order.
		cfg.Workers = 1
		cfg.TranscriptChecks = 0
		cfg.Trace = func(idx int, x, y comm.Bits) congest.Tracer {
			return &lineTracer{out: out, idx: idx, x: x, y: y}
		}
	}
	if faultSpec != "" {
		plan, err := faults.Parse(faultSpec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		if plan.Seed == 0 {
			plan.Seed = seed
		}
		cfg.Faults = plan
		fmt.Fprintf(out, "faults=%s\n", plan)
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	fmt.Fprintf(out, "seed=%d\n", seed)
	started := time.Now()
	rep, err := run(ctx, cfg)
	elapsed := time.Since(started)
	if rep != nil {
		printCertifyReport(out, rep)
		if secs := elapsed.Seconds(); secs > 0 {
			fmt.Fprintf(out, "  elapsed %s (%.0f pairs/s)\n",
				elapsed.Round(time.Millisecond), float64(rep.Completed)/secs)
		}
	}
	if err != nil {
		if rep != nil {
			fmt.Fprintf(out, "  interrupted: %d of %d pairs certified (%v)\n", rep.Completed, rep.Total, err)
		}
		return err
	}
	return nil
}

// lineTracer prints one greppable line per simulated round:
//
//	trace pair=3 x=0010 y=0010 round=0 sent=24 delivered=24 dropped=0 active=12
//
// It implements congest.Tracer; runCertify wires one per pair via
// reduction.Config.Trace when -trace is set.
type lineTracer struct {
	out  io.Writer
	idx  int
	x, y comm.Bits
}

func (l *lineTracer) ObserveRound(t congest.RoundTrace) {
	fmt.Fprintf(l.out, "trace pair=%d x=%s y=%s round=%d sent=%d delivered=%d dropped=%d active=%d\n",
		l.idx, l.x, l.y, t.Round, t.Sent, t.Delivered, t.Dropped, t.Active)
}

func printCertifyReport(out io.Writer, rep *reduction.Report) {
	mode := "exhaustive"
	if !rep.Exhaustive {
		mode = "sampled"
	}
	fmt.Fprintf(out, "certify family=%s alg=%s exact=%v pairs=%d (%s)\n",
		rep.Family, rep.Algorithm, rep.Exact, len(rep.Pairs), mode)
	fmt.Fprintf(out, "  n=%d |E_cut|=%d K=%d B=%d\n",
		rep.Stats.N, rep.Stats.CutSize, rep.Stats.K, rep.Bandwidth)
	if len(rep.Pairs) <= 16 {
		for _, p := range rep.Pairs {
			fmt.Fprintf(out, "  (x=%s, y=%s) rounds=%-5d cut-bits=%-7d output=%-5v want=%-5v correct=%v\n",
				p.X, p.Y, p.Rounds, p.CutBits, p.Output, p.Want, p.Correct)
		}
	}
	fmt.Fprintf(out, "  correct %d/%d, mismatches %d", len(rep.Pairs)-rep.Mismatches, len(rep.Pairs), rep.Mismatches)
	if rep.Mismatches > 0 && !rep.Exact {
		fmt.Fprintf(out, " (approximate baseline: flagged as not deciding P)")
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  rounds max=%d, cut-bits max=%d; Theorem 1.1 budget 2*T*B*|E_cut| = %d",
		rep.MaxRounds, rep.MaxCutBits, rep.SimBits)
	// Theorem 1.1 bounds an algorithm that decides P; one that misdecides
	// a pair is not bounded by it.
	if rep.Mismatches > 0 {
		fmt.Fprintf(out, ", CC(f) = %.0f: does not apply: %d pairs misdecided\n", rep.CCBound, rep.Mismatches)
	} else {
		fmt.Fprintf(out, " >= CC(f) = %.0f: %v\n", rep.CCBound, float64(rep.SimBits) >= rep.CCBound)
	}
}

type experimentFunc func() error

func experiments() map[string]experimentFunc {
	return map[string]experimentFunc{
		"E1":  e1MDS,
		"E2":  e2HamPath,
		"E3":  e3HamCycle,
		"E4":  e4TwoECSS,
		"E5":  e5Steiner,
		"E6":  e6MaxCut,
		"E7":  e7MaxCutApprox,
		"E8":  e8Bounded,
		"E9":  e9BoundedReductions,
		"E10": e10ApproxMaxIS,
		"E11": e11ApproxMaxISLinear,
		"E12": e12TwoMDS,
		"E13": e13KMDS,
		"E14": e14NodeSteiner,
		"E15": e15DirSteiner,
		"E16": e16Aggregate,
		"E17": e17Limits,
		"E18": e18PLS,
	}
}

func run(which string, list bool) error {
	exps := experiments()
	ids := make([]string, 0, len(exps))
	for id := range exps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	if list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}
	fmt.Printf("seed=%d\n", seed)
	if which != "all" {
		fn, ok := exps[which]
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", which)
		}
		return fn()
	}
	for _, id := range ids {
		fmt.Printf("=== %s ===\n", id)
		if err := exps[id](); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println()
	}
	return nil
}

func scalingTable(name string, build func(k int) (lbfamily.Stats, comm.Function, error), ks []int) error {
	fmt.Printf("%s scaling: k, n, |E_cut|, K, implied rounds LB\n", name)
	for _, k := range ks {
		stats, f, err := build(k)
		if err != nil {
			return err
		}
		bound, err := lbfamily.ImpliedLowerBound(stats, f)
		if err != nil {
			return err
		}
		fmt.Printf("  k=%-4d n=%-5d cut=%-5d K=%-7d LB=%.1f\n", k, stats.N, stats.CutSize, stats.K, bound)
	}
	return nil
}

// kmdsState caches the verified r-covering collection the Section 4
// experiments (E12-E16) share, so '-experiment all' runs the randomized
// cover search once instead of once per experiment.
var kmdsState struct {
	once sync.Once
	p    kmdslb.Params
	err  error
}

func kmdsParams() (kmdslb.Params, error) {
	kmdsState.once.Do(func() {
		c, err := cover.Find(4, 12, 2, 7, 500)
		if err != nil {
			kmdsState.err = err
			return
		}
		kmdsState.p = kmdslb.Params{Collection: c, R: 2}
	})
	return kmdsState.p, kmdsState.err
}

func e1MDS() error {
	fam, err := mdslb.New(2)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (k=2)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	return scalingTable("MDS (Thm 2.1)", func(k int) (lbfamily.Stats, comm.Function, error) {
		f, err := mdslb.New(k)
		if err != nil {
			return lbfamily.Stats{}, nil, err
		}
		stats, err := lbfamily.MeasureStats(f)
		return stats, f.Func(), err
	}, []int{2, 4, 8, 16, 32})
}

func e2HamPath() error {
	fam, err := hamlb.New(2)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (k=2)... ")
	if err := lbfamily.VerifyDigraph(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	return scalingTable("Hamiltonian path (Thm 2.2)", func(k int) (lbfamily.Stats, comm.Function, error) {
		f, err := hamlb.New(k)
		if err != nil {
			return lbfamily.Stats{}, nil, err
		}
		stats, err := lbfamily.MeasureDigraphStats(f)
		return stats, f.Func(), err
	}, []int{2, 4, 8, 16})
}

func e3HamCycle() error {
	c, err := hamlb.NewCycle(2)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		x := comm.RandomBits(4, rng)
		y := comm.RandomBits(4, rng)
		d, err := c.Build(x, y)
		if err != nil {
			return err
		}
		got, err := c.Predicate(d)
		if err != nil {
			return err
		}
		if want := x.Intersects(y); got != want {
			return fmt.Errorf("Claim 2.6 violated at (x=%s, y=%s): cycle=%v intersect=%v", x, y, got, want)
		}
		checked++
	}
	stats, err := lbfamily.MeasureDigraphStats(c)
	if err != nil {
		return err
	}
	fmt.Printf("Hamiltonian cycle family (Thm 2.3): Claim 2.6 holds on %d sampled pairs; n=%d, cut=%d\n",
		checked, stats.N, stats.CutSize)
	return e3Lemmas(c, rng)
}

// e3Lemmas checks the undirected reductions behind Theorem 2.3. The exact
// search cannot decide the 129-vertex split graphs of the family, so the
// Lemma 2.2 (directed to undirected cycle) and Lemma 2.3 (cycle to path)
// equivalences are checked against the solver on sampled small digraphs,
// and on sampled family pairs the directed cycle maps to an undirected
// Hamiltonian cycle of the split graph.
func e3Lemmas(c *hamlb.CycleFamily, rng *rand.Rand) error {
	yes, mapped := 0, 0
	for trial := 0; trial < 20; trial++ {
		d := graph.RandomDigraph(6, 0.4, rng)
		_, want, err := solver.DirectedHamiltonianCycle(d)
		if err != nil {
			return err
		}
		split := d.SplitDirected()
		_, undirected, err := solver.HamiltonianCycle(split)
		if err != nil {
			return err
		}
		pathGraph, err := hamlb.PathFromCycleGraph(split, 0)
		if err != nil {
			return err
		}
		_, path, err := solver.HamiltonianPath(pathGraph)
		if err != nil {
			return err
		}
		if undirected != want || path != want {
			return fmt.Errorf("lemmas 2.2-2.3 violated: directed cycle %v, split cycle %v, path %v", want, undirected, path)
		}
		if want {
			yes++
		}
	}
	for trial := 0; trial < 10; trial++ {
		d, err := c.Build(comm.RandomBits(4, rng), comm.RandomBits(4, rng))
		if err != nil {
			return err
		}
		cycle, found, err := solver.DirectedHamiltonianCycle(d)
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		split := make([]int, 0, 3*len(cycle))
		for _, v := range cycle {
			split = append(split, 3*v, 3*v+1, 3*v+2)
		}
		if !solver.IsHamiltonianCycle(d.SplitDirected(), split) {
			return fmt.Errorf("lemma 2.2: a directed cycle does not map to a split-graph cycle")
		}
		mapped++
	}
	fmt.Printf("Lemmas 2.2-2.3: split cycle and cycle-to-path agree with the directed cycle on 20 sampled 6-vertex digraphs (%d Hamiltonian); %d family cycles map to split-graph cycles\n",
		yes, mapped)
	return nil
}

func e4TwoECSS() error {
	rng := rand.New(rand.NewSource(seed))
	g, cycle := graph.HamiltonianGnp(10, 0.2, rng)
	ok, err := solver.HasTwoECSSWithEdges(g, g.N())
	if err != nil {
		return err
	}
	fmt.Printf("2-ECSS (Thm 2.5 / Claim 2.7): planted Hamiltonian graph n=%d m=%d has an n-edge 2-ECSS: %v (planted cycle length %d)\n",
		g.N(), g.M(), ok, len(cycle))
	if !ok {
		return fmt.Errorf("claim 2.7 failed on a Hamiltonian graph")
	}
	return nil
}

func e5Steiner() error {
	fam, err := steinerlb.New(2)
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(1, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	tree, err := fam.WitnessSteinerTree(x, x)
	if err != nil {
		return err
	}
	_, ok := solver.IsSteinerTree(g, fam.Terminals(), tree)
	fmt.Printf("Steiner family (Thm 2.7): witness tree of %d edges (target %d), valid: %v\n",
		len(tree), fam.TargetEdges(), ok)
	set := fam.DominatingSetFromSteinerTree(tree)
	inner, err := fam.MDS.Build(x, x)
	if err != nil {
		return err
	}
	fmt.Printf("converse extraction: %d vertices dominate the MDS graph: %v\n",
		len(set), solver.IsDominatingSet(inner, set))
	return nil
}

func e6MaxCut() error {
	fam, err := maxcutlb.New(2)
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(2, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	best, _, err := solver.MaxCut(g)
	if err != nil {
		return err
	}
	fmt.Printf("max-cut family (Thm 2.8): intersecting optimum %d, target M = %d\n", best, fam.Target())
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		return err
	}
	best0, _, err := solver.MaxCut(g0)
	if err != nil {
		return err
	}
	fmt.Printf("disjoint optimum %d < M: %v\n", best0, best0 < fam.Target())
	return nil
}

func e7MaxCutApprox() error {
	rng := rand.New(rand.NewSource(seed))
	fmt.Println("Thm 2.9: sampled (1-eps) max-cut vs exact collection")
	for _, n := range []int{12, 16, 20} {
		g := graph.Gnp(n, 0.5, rng)
		for !g.IsConnected() {
			g = graph.Gnp(n, 0.5, rng)
		}
		opt, _, err := solver.MaxCut(g)
		if err != nil {
			return err
		}
		res, err := algorithms.MaxCutApprox(g, 0.5, rng)
		if err != nil {
			return err
		}
		fmt.Printf("  n=%-4d opt=%-5d achieved=%-5d ratio=%.3f rounds=%d\n",
			n, opt, res.AchievedValue, float64(res.AchievedValue)/float64(opt), res.Rounds)
	}
	return nil
}

func e8Bounded() error {
	fam, err := boundedlb.NewFamily(2, 3)
	if err != nil {
		return err
	}
	fmt.Print("MVC base family exhaustive verification (k=2)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(0, true)
	inst, err := fam.BuildInstance(x, x)
	if err != nil {
		return err
	}
	g := inst.Result.Graph
	fmt.Printf("derived bounded-degree instance: n'=%d, maxDeg=%d (<=5), cut=%d, alpha-shift=%d\n",
		g.N(), g.MaxDegree(), inst.Result.CutSize, inst.Result.AlphaShift)
	// Claim 3.2 on every expander gadget the instance used: one per
	// variable occurrence count of the base graph's formula.
	base, err := fam.Base.Build(x, x)
	if err != nil {
		return err
	}
	checked := map[int]bool{}
	var sizes []int
	for _, d := range cnf.GraphToFormula(base).Occurrences() {
		if d == 0 || checked[d] {
			continue
		}
		checked[d] = true
		gadget, dist, err := expander.Gadget(d, fam.Pipeline.Seed)
		if err != nil {
			return err
		}
		ok, err := expander.VerifyCutProperty(gadget, dist)
		if err != nil {
			return err
		}
		if !ok || gadget.MaxDegree() > 4 {
			return fmt.Errorf("claim 3.2 violated by the d=%d gadget", d)
		}
		sizes = append(sizes, d)
	}
	sort.Ints(sizes)
	fmt.Printf("Claim 3.2: the gadgets for d=%v (maxDeg<=4) pass the exhaustive cut check: every cut crosses >= min(|D∩S|, |D∩S̄|) edges\n", sizes)
	return nil
}

func e9BoundedReductions() error {
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.RandomRegular(12, 3, rng)
	if err != nil {
		return err
	}
	reduced := boundedlb.MDSReduction(g)
	fmt.Printf("MDS reduction (Thm 3.3): n=%d maxDeg=%d -> n=%d maxDeg=%d (<= 2x)\n",
		g.N(), g.MaxDegree(), reduced.N(), reduced.MaxDegree())
	if reduced.MaxDegree() > 2*g.MaxDegree() {
		return fmt.Errorf("degree blow-up in MDS reduction")
	}
	spanner := boundedlb.SpannerReduction(g)
	fmt.Printf("2-spanner reduction (Thm 3.4): n=%d maxDeg=%d -> n=%d maxDeg=%d\n",
		g.N(), g.MaxDegree(), spanner.N(), spanner.MaxDegree())
	return nil
}

func e10ApproxMaxIS() error {
	fam, err := apxmaxislb.New(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(0, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	yes, _, err := solver.MaxWeightIndependentSet(g)
	if err != nil {
		return err
	}
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		return err
	}
	no, _, err := solver.MaxWeightIndependentSet(g0)
	if err != nil {
		return err
	}
	fmt.Printf("code-gadget MaxIS (Thm 4.3): YES=%d (=%d), NO=%d (<=%d), gap ratio %.4f -> 7/8\n",
		yes, fam.YesWeight(), no, fam.NoWeight(), float64(fam.NoWeight())/float64(fam.YesWeight()))
	batch, err := apxmaxislb.NewUnweighted(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		return err
	}
	var holds [2]bool
	var n int
	for i, y := range []comm.Bits{x, zero} {
		gb, err := batch.Build(y, y)
		if err != nil {
			return err
		}
		if holds[i], err = batch.Predicate(gb); err != nil {
			return err
		}
		n = gb.N()
	}
	if !holds[0] || holds[1] {
		return fmt.Errorf("theorem 4.1 gap violated: alpha >= %d is %v on intersecting and %v on disjoint inputs", fam.YesWeight(), holds[0], holds[1])
	}
	fmt.Printf("unweighted batch family (Thm 4.1): n=%d, alpha >= %d on intersecting inputs, not on disjoint ones\n", n, fam.YesWeight())
	return nil
}

func e11ApproxMaxISLinear() error {
	fam, err := apxmaxislb.NewLinear(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		return err
	}
	x := comm.NewBits(2)
	x.Set(0, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	alpha, _, err := solver.MaxIndependentSetSize(g)
	if err != nil {
		return err
	}
	fmt.Printf("linear MaxIS variant (Thm 4.2): alpha=%d, NO size=%d, gap ratio %.4f -> 5/6\n",
		alpha, fam.NoSize(), float64(fam.NoSize())/float64(alpha))
	return nil
}

func e12TwoMDS() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewTwoMDS(p)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (T=4)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(1, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	yes, err := fam.GapWeights(g)
	if err != nil {
		return err
	}
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		return err
	}
	no, err := fam.GapWeights(g0)
	if err != nil {
		return err
	}
	fmt.Printf("2-MDS gap (Thm 4.4): YES weight=%d, NO weight=%d (> r=2)\n", yes, no)
	return nil
}

func e13KMDS() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewKMDS(p, 3)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 sampled verification (k=3, T=4)... ")
	if err := lbfamily.VerifySampled(fam, rand.New(rand.NewSource(seed)), 20); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(2, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	ok, err := fam.Predicate(g)
	if err != nil {
		return err
	}
	fmt.Printf("k-MDS (Thm 4.5): subdivided instance n=%d, weight-2 3-dominating set on intersecting inputs: %v\n",
		g.N(), ok)
	return nil
}

func e14NodeSteiner() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewNodeSteiner(p)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (T=4)... ")
	if err := lbfamily.Verify(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(2, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	yes, err := solver.NodeWeightedSteinerEnum(g, fam.Terminals())
	if err != nil {
		return err
	}
	zero := comm.NewBits(4)
	g0, err := fam.Build(zero, zero)
	if err != nil {
		return err
	}
	no, err := solver.NodeWeightedSteinerEnum(g0, fam.Terminals())
	if err != nil {
		return err
	}
	fmt.Printf("node-Steiner gap (Thm 4.6): YES weight=%d, NO weight=%d (> r=%d)\n", yes, no, p.R)
	return nil
}

func e15DirSteiner() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewDirSteiner(p)
	if err != nil {
		return err
	}
	fmt.Print("Definition 1.1 exhaustive verification (T=4, directed)... ")
	if err := lbfamily.VerifyDigraph(fam); err != nil {
		return err
	}
	fmt.Println("OK")
	x := comm.NewBits(4)
	x.Set(0, true)
	d, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	ok, err := fam.Predicate(d)
	if err != nil {
		return err
	}
	fmt.Printf("directed Steiner (Thm 4.7): weight-2 tree rooted at R on intersecting inputs: %v\n", ok)
	return nil
}

func e16Aggregate() error {
	p, err := kmdsParams()
	if err != nil {
		return err
	}
	fam, err := kmdslb.NewRestricted(p)
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(0, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
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
	res, err := aggregate.SimulateTwoParty(g, aggregate.GreedyDominatingSet{}, side, 16)
	if err != nil {
		return err
	}
	perRoundPerElement := float64(res.TwoPartyBits) / float64(res.Rounds) / float64(len(fam.SharedElements()))
	fmt.Printf("aggregate simulation (Thm 4.8): %d rounds, %d two-party bits, %.1f bits/round/element (O(log n))\n",
		res.Rounds, res.TwoPartyBits, perRoundPerElement)
	return nil
}

func e17Limits() error {
	fam, err := mdslb.New(2)
	if err != nil {
		return err
	}
	x := comm.NewBits(4)
	x.Set(3, true)
	g, err := fam.Build(x, x)
	if err != nil {
		return err
	}
	res, err := limits.TwoApproxMDS(g, fam.AliceSide())
	if err != nil {
		return err
	}
	fmt.Printf("Claim 5.8 on the MDS family: ratio %.3f (<=2) using %d bits\n", res.Ratio, res.Bits)
	cutFam, err := maxcutlb.New(2)
	if err != nil {
		return err
	}
	gc, err := cutFam.Build(x, x)
	if err != nil {
		return err
	}
	cutRes, err := limits.WeightedMaxCut23(gc, cutFam.AliceSide())
	if err != nil {
		return err
	}
	fmt.Printf("Claim 5.5 on the max-cut family: ratio %.3f (>=2/3) using %d bits\n", cutRes.Ratio, cutRes.Bits)
	if err := e17Protocols(x); err != nil {
		return err
	}
	if err := e17Gamma(fam, x); err != nil {
		return err
	}
	return e17Witnesses(g, fam.AliceSide(), x)
}

// e17Protocols prints the remaining Section 5.1 two-party protocols; each
// checks its own approximation guarantee and fails with an error.
func e17Protocols(x comm.Bits) error {
	// Claims 5.1-5.3 need a cut of at most eps*m/(2Δ(Δ+1)) edges: the
	// cycle C_48 split into two paths has 2 cut edges against 48*0.5/12.
	cyc, err := graph.Cycle(48)
	if err != nil {
		return err
	}
	half := make([]bool, 48)
	for v := range half[:24] {
		half[v] = true
	}
	line := "Claims 5.1-5.3 on C_48 halves (eps=0.5):"
	var bits int64
	for _, p := range []struct {
		name    string
		problem limits.BoundedProblem
	}{{"MVC", limits.ProblemMVC}, {"MDS", limits.ProblemMDS}, {"MaxIS", limits.ProblemMaxIS}} {
		res, err := limits.BoundedDegreeEps(cyc, half, 0.5, p.problem)
		if err != nil {
			return fmt.Errorf("claims 5.1-5.3 (%s): %w", p.name, err)
		}
		line += fmt.Sprintf(" %s ratio %.3f,", p.name, res.Ratio)
		bits = res.Bits
	}
	fmt.Printf("%s using %d bits each\n", line, bits)
	mvc, err := mvclb.New(2)
	if err != nil {
		return err
	}
	gv, err := mvc.Build(x, x)
	if err != nil {
		return err
	}
	res, err := limits.MVC32(gv, mvc.AliceSide())
	if err != nil {
		return fmt.Errorf("claim 5.6: %w", err)
	}
	fmt.Printf("Claim 5.6 on the MVC family: ratio %.3f (<=3/2) using %d bits\n", res.Ratio, res.Bits)
	if res, err = limits.HalfApproxMaxIS(gv, mvc.AliceSide()); err != nil {
		return fmt.Errorf("claim 5.9: %w", err)
	}
	fmt.Printf("Claim 5.9 on the MVC family (its MaxIS): ratio %.3f (>=1/2) using %d bits\n", res.Ratio, res.Bits)
	return nil
}

// e17Gamma prints Claim 5.10's cap on the Theorem 1.1 bounds of the MDS
// family for DISJ and EQ, with the O(log K) witnesses that realize
// CC^N(¬f) on an input pair that intersects and differs.
func e17Gamma(fam *mdslb.Family, x comm.Bits) error {
	stats, err := lbfamily.MeasureStats(fam)
	if err != nil {
		return err
	}
	y := x.Clone()
	y.Set(0, !y.Get(0))
	line := fmt.Sprintf("Claim 5.10 on the MDS family (K=%d, cut=%d, n=%d):", stats.K, stats.CutSize, stats.N)
	for _, w := range []struct {
		f comm.Function
		p comm.NondetProtocol
	}{{comm.Disjointness{}, comm.NonDisjointnessWitness{}}, {comm.Equality{}, comm.InequalityWitness{}}} {
		c, _ := comm.KnownComplexity(w.f)
		cert, ok := w.p.Prove(x, y)
		if !ok || cert.Len() != w.p.CertLen(stats.K) {
			return fmt.Errorf("claim 5.10: %s has no %d-bit certificate", w.p.Name(), w.p.CertLen(stats.K))
		}
		if res, err := w.p.Verify(x, y, cert); err != nil || !res.Output {
			return fmt.Errorf("claim 5.10: %s rejected its certificate (%v)", w.p.Name(), err)
		}
		line += fmt.Sprintf(" %s Gamma=%.0f, %d-bit %s certificate, cap %.3f rounds;",
			w.f.Name(), comm.Gamma(c, stats.K), cert.Len(), w.p.Name(), comm.LimitationBound(c, stats.K, stats.CutSize, stats.N))
	}
	fmt.Println(strings.TrimSuffix(line, ";"))
	return nil
}

// e17Witnesses prints the nondeterministic protocols of Claims 5.11
// (max s-t flow, on the Hamiltonian-path family's digraph) and 5.12
// (matching size, on the MDS family's graph g): each value is certified
// from both sides.
func e17Witnesses(g *graph.Graph, side []bool, x comm.Bits) error {
	ham, err := hamlb.New(2)
	if err != nil {
		return err
	}
	d, err := ham.Build(x, x)
	if err != nil {
		return err
	}
	s, t, hamSide := ham.Start(), ham.End(), ham.AliceSide()
	flow, _, err := solver.MaxFlow(d, s, t)
	if err != nil {
		return err
	}
	w, okAt, err := limits.ProveFlowAtLeast(d, s, t, flow)
	if err != nil {
		return err
	}
	atLeast, bitsAt, err := limits.VerifyFlowAtLeast(d, s, t, flow, w, hamSide)
	if err != nil {
		return err
	}
	cut, okLess, err := limits.ProveFlowLessThan(d, s, t, flow+1)
	if err != nil {
		return err
	}
	less, bitsLess, err := limits.VerifyFlowLessThan(d, s, t, flow+1, cut, hamSide)
	if err != nil {
		return err
	}
	if !okAt || !atLeast || !okLess || !less {
		return fmt.Errorf("claim 5.11: max flow %d not certified from both sides", flow)
	}
	fmt.Printf("Claim 5.11 on the Hamiltonian-path family: max s-t flow %d, >= %d by a flow (%d bits), < %d by a cut (%d bits)\n",
		flow, flow, bitsAt, flow+1, bitsLess)
	nu, _, err := solver.MaxMatching(g)
	if err != nil {
		return err
	}
	var bits int64
	for _, k := range []int{nu, nu + 1} {
		atLeast, ok, b, err := limits.MatchingWitnesses(g, k, side)
		if err != nil {
			return err
		}
		if !ok || atLeast != (k == nu) {
			return fmt.Errorf("claim 5.12: no valid witness against k=%d (nu=%d)", k, nu)
		}
		bits = b
	}
	fmt.Printf("Claim 5.12 on the MDS family: nu=%d, >= %d by a matching, < %d by a Tutte-Berge set, %d bits each\n", nu, nu, nu+1, bits)
	return nil
}

func e18PLS() error {
	rng := rand.New(rand.NewSource(seed))
	g := graph.Gnp(16, 0.4, rng)
	for !g.IsConnected() {
		g = graph.Gnp(16, 0.4, rng)
	}
	inst := pls.NewInstance(g)
	for _, e := range g.Edges() {
		if err := inst.MarkH(e.U, e.V); err != nil {
			return err
		}
	}
	inst.S, inst.T = 0, g.N()-1
	inst.K = 1
	schemes := []pls.Scheme{
		pls.Connectivity{}, pls.STConnectivity{}, pls.CycleContainment{},
		pls.WdistAtLeast{}, pls.MatchingAtLeast{},
	}
	maxBits, proved := 0, 0
	for _, s := range schemes {
		labels, ok, err := s.Prove(inst)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		proved++
		if !pls.Accepts(s, inst, labels) {
			return fmt.Errorf("%s rejected honest labels", s.Name())
		}
		if bits := pls.ProofBits(inst, labels); bits > maxBits {
			maxBits = bits
		}
	}
	fmt.Printf("proof labeling schemes (Claims 5.12-5.13): %d/%d schemes proved, max proof %d bits\n",
		proved, len(schemes), maxBits)
	return e18Lemma51(inst)
}

// e18Lemma51 proves the remaining schemes, each on a marking of all's
// graph where its predicate holds: H = G (all), a BFS tree of G, that tree
// without the edge into t (so s and t fall apart), the edges at t (a cut),
// and the edges off the tree (not a cut). A scheme that cannot prove its
// instance, or whose honest labels are rejected, fails the experiment.
func e18Lemma51(all *pls.Instance) error {
	g, t := all.G, all.T
	dist := g.BFS(all.S)
	marked := func(keep func(u, v int) bool) (*pls.Instance, error) {
		inst := pls.NewInstance(g)
		inst.S, inst.T, inst.K = all.S, t, int64(dist[t])+1
		for _, e := range g.Edges() {
			if keep(e.U, e.V) {
				if err := inst.MarkH(e.U, e.V); err != nil {
					return nil, err
				}
			}
		}
		return inst, nil
	}
	// parent[v] is v's smallest neighbor one BFS level closer to s.
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = -1
		for _, h := range g.Neighbors(v) {
			if dist[h.To] == dist[v]-1 && (parent[v] < 0 || h.To < parent[v]) {
				parent[v] = h.To
			}
		}
	}
	inTree := func(u, v int) bool { return parent[u] == v || parent[v] == u }
	apart := func(u, v int) bool { return inTree(u, v) && u != t && v != t }
	for _, c := range []struct {
		claim, on string
		s         pls.Scheme
		keep      func(u, v int) bool
	}{
		{"Lemma 5.1", "a BFS tree", pls.SpanningTree{}, inTree},
		{"Lemma 5.1", "a BFS tree", pls.Acyclicity{}, inTree},
		{"Lemma 5.1", "a BFS tree", pls.Bipartiteness{}, inTree},
		{"Lemma 5.1", "the tree without t's edges", pls.NonConnectivity{}, apart},
		{"Lemma 5.1", "the tree without t's edges", pls.NonSTConnectivity{}, apart},
		{"Lemma 5.1", "the edges at t", pls.CutVerification{}, func(u, v int) bool { return u == t || v == t }},
		{"Lemma 5.1", "the non-tree edges", pls.NonCut{}, func(u, v int) bool { return !inTree(u, v) }},
		{"Lemma 5.1", "H = G", pls.NonBipartiteness{}, func(int, int) bool { return true }},
		{"Claim 5.13", "K = wdist(s,t)+1", pls.WdistLessThan{}, func(int, int) bool { return true }},
	} {
		inst, err := marked(c.keep)
		if err != nil {
			return err
		}
		labels, ok, err := c.s.Prove(inst)
		if err != nil {
			return err
		}
		if !ok || !pls.Accepts(c.s, inst, labels) {
			return fmt.Errorf("%s: %s not proved on %s", c.claim, c.s.Name(), c.on)
		}
		fmt.Printf("  %s %s on %s: honest labels accepted, proof %d bits\n", c.claim, c.s.Name(), c.on, pls.ProofBits(inst, labels))
	}
	return nil
}
