package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/reduction"
)

type sweepFunc func(cfg reduction.Config) (*reduction.Report, error)

// certifyTarget is a certify workload: one exhaustive family/algorithm
// pairing and how it is measured.
type certifyTarget struct {
	name string
	// sim names the simulator the pairing runs on, the prefix of its
	// per-layer simulator metrics.
	sim    string
	warmup int
	// sensitivity is the exponent that normalizes a sweep's time by the
	// speed probe (probe.go), and probeReps the probe's kernel runs per
	// measurement.
	sensitivity float64
	probeReps   int
	// traced is the number of sweeps in each of the traced run's three
	// passes.
	traced int
	// golden is the digest every sweep's report must have.
	golden uint64
	// newSweep builds the family and algorithm; with a recorder both are
	// wrapped for tracing.
	newSweep func(rec *recorder) (sweepFunc, error)
}

var mdsTarget = certifyTarget{
	name: "certify-mds", sim: "congest", warmup: 3, sensitivity: 1.1, probeReps: 1, traced: 8,
	golden: 0xd20bc525e12a1b80,
	newSweep: func(rec *recorder) (sweepFunc, error) {
		fam, err := mdslb.New(2)
		if err != nil {
			return nil, err
		}
		alg := reduction.CollectMDS(fam)
		if rec == nil {
			return func(cfg reduction.Config) (*reduction.Report, error) { return reduction.Certify(fam, alg, cfg) }, nil
		}
		wf, wa := wrapFamily(fam, "mdslb", rec), traceAlgorithm(alg, rec)
		return func(cfg reduction.Config) (*reduction.Report, error) { return reduction.Certify(wf, wa, cfg) }, nil
	},
}

var hamlbTarget = certifyTarget{
	name: "certify-hamlb", sim: "dicongest", warmup: 1, sensitivity: 0.9, probeReps: 3, traced: 3,
	golden: 0x9e6543647ccbb0f6,
	newSweep: func(rec *recorder) (sweepFunc, error) {
		fam, err := hamlb.New(2)
		if err != nil {
			return nil, err
		}
		alg := reduction.CollectHamPath(fam)
		if rec == nil {
			return func(cfg reduction.Config) (*reduction.Report, error) { return reduction.CertifyDigraph(fam, alg, cfg) }, nil
		}
		wf, wa := wrapDigraphFamily(fam, "hamlb", rec), traceDigraphAlgorithm(alg, rec)
		return func(cfg reduction.Config) (*reduction.Report, error) { return reduction.CertifyDigraph(wf, wa, cfg) }, nil
	},
}

// reportDigest hashes every pair's (x, y, rounds, messages, cut bits,
// output, correct) in report order with FNV-1a. Collect ignores the
// seed, so a pairing's digest is the same for every sweep.
func reportDigest(rep *reduction.Report) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ v&0xff) * 1099511628211
			v >>= 8
		}
	}
	bits := func(b comm.Bits) {
		mix(uint64(b.Len()))
		var w uint64
		for i := 0; i < b.Len(); i++ {
			if b.Get(i) {
				w |= 1 << (i % 64)
			}
			if i%64 == 63 || i == b.Len()-1 {
				mix(w)
				w = 0
			}
		}
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, p := range rep.Pairs {
		bits(p.X)
		bits(p.Y)
		mix(uint64(p.Rounds))
		mix(uint64(p.Messages))
		mix(uint64(p.CutBits))
		mix(flag(p.Output))
		mix(flag(p.Correct))
	}
	return h
}

// checkSweep accepts a sweep that certified every pair without a
// mismatch and reproduced the golden digest.
func (t certifyTarget) checkSweep(rep *reduction.Report, err error) error {
	switch {
	case err != nil:
		return err
	case rep.Completed != rep.Total || rep.Total == 0:
		return fmt.Errorf("certified %d of %d pairs", rep.Completed, rep.Total)
	case rep.Mismatches != 0:
		return fmt.Errorf("%d mismatches", rep.Mismatches)
	}
	if d := reportDigest(rep); d != t.golden {
		return fmt.Errorf("report digest %#x, want %#x", d, t.golden)
	}
	return nil
}

func runCertify(o options, t certifyTarget) (*outcome, error) {
	if o.trace {
		return traceCertify(o, t)
	}
	r := newOutcome()
	probe := newSpeedProbe(o.nproc, t.probeReps)
	var sweep sweepFunc
	pairs := 0
	setups := make([]float64, o.count(5, 2))
	setupScales := make([]float64, len(setups))
	for i := range setups {
		start := time.Now()
		s, err := t.newSweep(nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", t.name, err)
		}
		rep, err := s(reduction.Config{Seed: o.seed, Workers: o.nproc})
		setups[i] = time.Since(start).Seconds()
		setupScales[i] = probe.scale()
		r.check("setup sweep", t.checkSweep(rep, err))
		if err != nil {
			return nil, fmt.Errorf("%s setup sweep: %w", t.name, err)
		}
		sweep, pairs = s, rep.Total
	}
	warmup := o.count(t.warmup, 1)
	for i := 0; i < warmup; i++ {
		rep, err := sweep(reduction.Config{Seed: o.seed, Workers: o.nproc})
		r.check("warm-up sweep", t.checkSweep(rep, err))
	}

	var walls, scales []float64
	var am allocMeter
	runtime.GC()
	probe.measure()
	for i, phase := 0, time.Now(); o.more(i, 5, 2, phase); i++ {
		var rep *reduction.Report
		var err error
		am.measure(func() {
			start := time.Now()
			rep, err = sweep(reduction.Config{Seed: o.seed + int64(i), Workers: o.nproc})
			walls = append(walls, time.Since(start).Seconds())
		})
		scales = append(scales, probe.scale())
		r.check("sweep", t.checkSweep(rep, err))
	}
	norm := normalize(walls, scales, t.sensitivity)
	med := median(norm)
	p, tl := tail(norm)
	timedPairs := float64(len(walls) * pairs)
	r.set("pairs_per_s", float64(pairs)/med, "pairs/s")
	r.set("op_ms", med*1e3, "ms")
	r.set("op_tail_ms", tl*1e3, "ms")
	r.set("allocs_per_pair", float64(am.mallocs)/timedPairs, "allocs")
	r.set("bytes_per_pair", float64(am.bytes)/timedPairs, "bytes")
	r.set("setup_s", median(normalize(setups, setupScales, t.sensitivity)), "s")
	r.set("failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	r.set("wall_pairs_per_s", float64(pairs)/median(walls), "pairs/s")
	r.set("wall_op_ms", median(walls)*1e3, "ms")
	r.set("wall_setup_s", median(setups), "s")
	probe.report(r)
	r.ops = fmt.Sprintf("setups=%d warmup=%d sweeps=%d pairs_per_sweep=%d workers=%d op_tail=p%.4g",
		len(setups), warmup, len(walls), pairs, o.nproc, p)
	return r, nil
}

// traceCertify runs t.traced sweeps of each of three kinds: untraced with
// one worker, untraced with W workers, and traced with W workers, where W
// is nproc capped at the sweep's column count. Every sweep is checked
// against the golden digest, traced ones too.
func traceCertify(o options, t certifyTarget) (*outcome, error) {
	r := newOutcome()
	plain, err := t.newSweep(nil)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", t.name, err)
	}
	rec := newRecorder()
	traced, err := t.newSweep(rec)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", t.name, err)
	}
	rep, err := plain(reduction.Config{Seed: o.seed, Workers: o.nproc})
	r.check("warm-up sweep", t.checkSweep(rep, err))
	if err != nil {
		return nil, fmt.Errorf("%s warm-up sweep: %w", t.name, err)
	}
	pairs := rep.Total
	workers := min(o.nproc, 1<<rep.Stats.K) // the sweep runs one worker per Gray column at most

	// The three kinds of sweep alternate, so drift in the machine's speed
	// falls on all three alike.
	n := o.count(t.traced, 1)
	timed := func(run sweepFunc, workers, i int) (float64, *reduction.Report) {
		start := time.Now()
		rep, err := run(reduction.Config{Seed: o.seed + int64(i), Workers: workers})
		d := time.Since(start).Seconds()
		r.check("sweep", t.checkSweep(rep, err))
		return d, rep
	}
	tracedRoot := func(cfg reduction.Config) (rep *reduction.Report, err error) {
		err = rec.within("sweep", t.name, func() error {
			rep, err = traced(cfg)
			return err
		})
		return rep, err
	}
	w1, wN, tracedWalls := make([]float64, n), make([]float64, n), make([]float64, n)
	reports := make([]*reduction.Report, n)
	for i := 0; i < n; i++ {
		w1[i], _ = timed(plain, 1, i)
		wN[i], _ = timed(plain, workers, i)
		tracedWalls[i], reports[i] = timed(tracedRoot, workers, i)
	}

	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", t.name, o.seed))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(path); err != nil {
		return nil, err
	}

	var tot pairTimes
	var tracedPairs, pairNS, applyN, applyNS, buildNS, sweepNS int64
	var bases []float64
	for _, s := range rec.spans {
		switch s.Name {
		case "sweep":
			sweepNS += s.dur()
		case "pair":
			tracedPairs++
			pairNS += s.dur()
			tot.add(s.Pair)
		case "apply":
			applyN++
			applyNS += s.dur()
		case "build_base":
			bases = append(bases, float64(s.dur()))
			buildNS += s.dur()
		case "build":
			buildNS += s.dur()
		}
	}
	if tracedPairs == 0 {
		return nil, fmt.Errorf("%s: the traced sweeps recorded no pairs", t.name)
	}
	perPair := func(ns int64) float64 { return float64(ns) / float64(tracedPairs) / 1e3 }
	capacity := int64(workers) * sweepNS
	other := capacity - pairNS - applyNS - buildNS - tot.RootsNS
	r.set("constructions.apply_us", perPair(applyNS), "us")
	r.set("constructions.toggles", float64(applyN)/float64(tracedPairs), "count")
	r.set("constructions.base_ms", median(bases)/1e6, "ms")
	r.set("algorithms.prepare_us", perPair(tot.PrepareNS), "us")
	r.set("algorithms.init_us", perPair(tot.InitNS), "us")
	r.set("algorithms.gossip_us", perPair(tot.GossipNS), "us")
	r.set("algorithms.finish_nonroot_us", perPair(tot.FinishNonrootNS), "us")
	r.set("algorithms.finish_root_us", perPair(tot.FinishRootNS), "us")
	r.set("algorithms.roots", float64(tot.Roots)/float64(tracedPairs), "count")
	r.set(t.sim+".setup_us", perPair(tot.SetupNS), "us")
	r.set(t.sim+".round_self_us", perPair(tot.RoundSelfNS), "us")
	var rounds, msgs, cutBits, reported float64
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		for _, p := range rep.Pairs {
			rounds += float64(p.Rounds)
			msgs += float64(p.Messages)
			cutBits += float64(p.CutBits)
			reported++
		}
	}
	r.set(t.sim+".rounds", rounds/reported, "count")
	r.set(t.sim+".msgs", msgs/reported, "count")
	r.set(t.sim+".cut_bits", cutBits/reported, "count")
	r.set("reduction.decide_us", perPair(tot.DecideNS), "us")
	r.set("reduction.other_us", perPair(other), "us")
	r.set("reduction.occupancy", float64(pairNS+applyNS)/float64(capacity), "ratio")
	w1Rate := float64(pairs) / median(w1)
	r.set("reduction.pairs_per_s_w1", w1Rate, "pairs/s")
	r.set("reduction.shard_efficiency", float64(pairs)/median(wN)/(float64(workers)*w1Rate), "ratio")
	r.set("trace.overhead", sum(tracedWalls)/sum(wN)-1, "ratio")
	// The per-pair self times above plus other_us cover W x the traced
	// wall except the builds and the roots computation.
	r.set("trace.accounted", float64(pairNS+applyNS+other)/float64(capacity), "ratio")
	r.set("failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	r.ops = fmt.Sprintf("sweeps_per_kind=%d kinds=w1,w%d,traced-w%d pairs_per_sweep=%d spans=%d spans_file=%s",
		n, workers, workers, pairs, len(rec.spans), path)
	return r, nil
}

// add accumulates another pair's attributes.
func (pt *pairTimes) add(o *pairTimes) {
	pt.Roots += o.Roots
	pt.RootsNS += o.RootsNS
	pt.PrepareNS += o.PrepareNS
	pt.SetupNS += o.SetupNS
	pt.InitNS += o.InitNS
	pt.GossipNS += o.GossipNS
	pt.FinishNonrootNS += o.FinishNonrootNS
	pt.FinishRootNS += o.FinishRootNS
	pt.RoundSelfNS += o.RoundSelfNS
	pt.DecideNS += o.DecideNS
}
