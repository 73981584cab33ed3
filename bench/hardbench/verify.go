package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"congesthard/internal/constructions/boundedlb"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/steinerlb"
	"congesthard/internal/cover"
	"congesthard/internal/lbfamily"
)

// heavyLabel is the verify family timed on its own: one steinerlb Verify
// costs about as much as ten passes over the other six.
const heavyLabel = "steinerlb"

// The sensitivities that normalize the verify times by the speed probe
// (probe.go): a busy neighbour slows the steinerlb search much less than
// it slows the probe. verifyProbeReps is the probe's kernel runs per
// measurement.
const (
	lightSensitivity = 0.7
	heavySensitivity = 0.45
	verifyProbeReps  = 3
)

// verifyFamily is one family of the verify workload.
type verifyFamily struct {
	label string
	// pairs is the 2^(2K) pairs one Verify checks; cols is the 2^K
	// columns its workers claim.
	pairs, cols int
	// verify runs the exhaustive Verify, on the wrapped family when a
	// recorder is given.
	verify func(rec *recorder) error
}

// newVerifyFamilies builds the seven verify families at k = 2, with the
// Section 4 families on the cover the CLI experiments use.
func newVerifyFamilies() (light []verifyFamily, heavy verifyFamily, err error) {
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		return nil, heavy, fmt.Errorf("cover: %w", err)
	}
	params := kmdslb.Params{Collection: c, R: 2}
	var errs []error
	add := func(label string, k int, verify func(rec *recorder) error, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", label, err))
			return
		}
		f := verifyFamily{label: label, pairs: 1 << (2 * k), cols: 1 << k, verify: verify}
		if label == heavyLabel {
			heavy = f
		} else {
			light = append(light, f)
		}
	}
	undirected := func(label string, fam lbfamily.Family, err error) {
		if err != nil {
			add(label, 0, nil, err)
			return
		}
		add(label, fam.K(), func(rec *recorder) error {
			if rec == nil {
				return lbfamily.Verify(fam)
			}
			return lbfamily.Verify(wrapFamily(fam, label, rec))
		}, nil)
	}
	directed := func(label string, fam lbfamily.DigraphFamily, err error) {
		if err != nil {
			add(label, 0, nil, err)
			return
		}
		add(label, fam.K(), func(rec *recorder) error {
			if rec == nil {
				return lbfamily.VerifyDigraph(fam)
			}
			return lbfamily.VerifyDigraph(wrapDigraphFamily(fam, label, rec))
		}, nil)
	}
	mds, err := mdslb.New(2)
	undirected("mdslb", mds, err)
	maxcut, err := maxcutlb.New(2)
	undirected("maxcutlb", maxcut, err)
	steiner, err := steinerlb.New(2)
	undirected("steinerlb", steiner, err)
	ham, err := hamlb.New(2)
	directed("hamlb", ham, err)
	twoMDS, err := kmdslb.NewTwoMDS(params)
	undirected("kmdslb", twoMDS, err)
	dirSteiner, err := kmdslb.NewDirSteiner(params)
	directed("dir-steiner", dirSteiner, err)
	bounded, err := boundedlb.NewFamily(2, 3)
	undirected("boundedlb", bounded, err)
	return light, heavy, errors.Join(errs...)
}

// lightPass verifies the six light families once each.
func lightPass(r *outcome, light []verifyFamily) {
	for _, f := range light {
		r.check(f.label, f.verify(nil))
	}
}

func runVerify(o options) (*outcome, error) {
	if o.trace {
		return traceVerify(o)
	}
	r := newOutcome()
	probe := newSpeedProbe(o.nproc, verifyProbeReps)
	var light []verifyFamily
	var heavy verifyFamily
	setups := make([]float64, o.count(5, 2))
	setupScales := make([]float64, len(setups))
	for i := range setups {
		start := time.Now()
		var err error
		if light, heavy, err = newVerifyFamilies(); err != nil {
			return nil, err
		}
		lightPass(r, light)
		setups[i] = time.Since(start).Seconds()
		setupScales[i] = probe.scale()
	}
	r.check(heavy.label, heavy.verify(nil))

	// Each sample times one steinerlb Verify, then ten light passes as
	// one block: a single light Verify is far below a millisecond and
	// too noisy to time alone. The probe runs after each.
	passes := o.count(10, 1)
	var heavyS, lightS, heavyScales, lightScales []float64
	var am allocMeter
	runtime.GC()
	probe.measure()
	for i, phase := 0, time.Now(); o.more(i, 5, 1, phase); i++ {
		am.measure(func() {
			start := time.Now()
			r.check(heavy.label, heavy.verify(nil))
			heavyS = append(heavyS, time.Since(start).Seconds())
		})
		heavyScales = append(heavyScales, probe.scale())
		am.measure(func() {
			start := time.Now()
			for p := 0; p < passes; p++ {
				lightPass(r, light)
			}
			lightS = append(lightS, time.Since(start).Seconds()/float64(passes))
		})
		lightScales = append(lightScales, probe.scale())
	}
	heavyN, lightN := normalize(heavyS, heavyScales, heavySensitivity), normalize(lightS, lightScales, lightSensitivity)
	opS := make([]float64, len(heavyS))
	for i := range opS {
		opS[i] = heavyN[i] + lightN[i]
	}
	lightPairs := 0
	for _, f := range light {
		lightPairs += f.pairs
	}
	timedPairs := float64(len(heavyS) * (heavy.pairs + passes*lightPairs))
	lightMS, verifyMS := median(lightN)*1e3, (median(heavyN)+median(lightN))*1e3
	p, tl := tail(opS)
	r.set("pairs_per_s", float64(lightPairs)/median(lightN), "pairs/s")
	r.set("op_ms", verifyMS, "ms")
	r.set("op_tail_ms", tl*1e3, "ms")
	r.set("allocs_per_pair", float64(am.mallocs)/timedPairs, "allocs")
	r.set("bytes_per_pair", float64(am.bytes)/timedPairs, "bytes")
	r.set("setup_s", median(normalize(setups, setupScales, lightSensitivity)), "s")
	r.set("verify_light_ms", lightMS, "ms")
	r.set("verify_ms", verifyMS, "ms")
	r.set("failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	r.set("wall_pairs_per_s", float64(lightPairs)/median(lightS), "pairs/s")
	r.set("wall_op_ms", (median(heavyS)+median(lightS))*1e3, "ms")
	r.set("wall_setup_s", median(setups), "s")
	probe.report(r)
	r.ops = fmt.Sprintf("setups=%d samples=%d light_passes_per_sample=%d light_pairs=%d %s_pairs=%d op_tail=p%.4g",
		len(setups), len(heavyS), passes, lightPairs, heavy.label, heavy.pairs, p)
	return r, nil
}

// traceVerify times 20 light passes and 5 steinerlb calls, each call once
// untraced and once on the wrapped family.
func traceVerify(o options) (*outcome, error) {
	r := newOutcome()
	light, heavy, err := newVerifyFamilies()
	if err != nil {
		return nil, err
	}
	lightPass(r, light)
	r.check(heavy.label, heavy.verify(nil))

	passes, heavyCalls := o.count(20, 1), o.count(5, 1)
	calls := func(call func(f verifyFamily)) {
		for p := 0; p < passes; p++ {
			for _, f := range light {
				call(f)
			}
		}
		for c := 0; c < heavyCalls; c++ {
			call(heavy)
		}
	}
	// Each call runs untraced, then traced, so drift in the machine's
	// speed falls on both alike.
	untraced := map[string][]float64{}
	var untracedS float64
	rec := newRecorder()
	calls(func(f verifyFamily) {
		start := time.Now()
		r.check(f.label, f.verify(nil))
		d := time.Since(start).Seconds()
		untraced[f.label] = append(untraced[f.label], d)
		untracedS += d
		r.check(f.label, rec.within("verify", f.label, func() error { return f.verify(rec) }))
	})

	path := filepath.Join(o.workdir, fmt.Sprintf("spans-verify-seed%d.jsonl", o.seed))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.write(path); err != nil {
		return nil, err
	}

	type famTimes struct{ calls, wall, oracle, cons int64 }
	per := map[string]*famTimes{}
	var applyN, applyNS, tracedNS int64
	var bases []float64
	for _, s := range rec.spans {
		ft := per[s.Family]
		if ft == nil {
			ft = &famTimes{}
			per[s.Family] = ft
		}
		switch s.Name {
		case "verify":
			ft.calls++
			ft.wall += s.dur()
			tracedNS += s.dur()
		case "oracle", "predicate":
			ft.oracle += s.dur()
		case "apply":
			applyN++
			applyNS += s.dur()
			ft.cons += s.dur()
		case "build_base":
			bases = append(bases, float64(s.dur()))
			ft.cons += s.dur()
		case "build":
			ft.cons += s.dur()
		}
	}
	tracedPairs := 0
	for _, f := range append(append([]verifyFamily(nil), light...), heavy) {
		ft := per[f.label]
		if ft == nil || ft.calls == 0 {
			return nil, fmt.Errorf("verify: no traced calls of %s", f.label)
		}
		// Verify runs one worker per column, up to GOMAXPROCS.
		workers := int64(min(runtime.GOMAXPROCS(0), f.cols))
		perCall := func(ns int64) float64 { return float64(ns) / float64(ft.calls) / 1e3 }
		r.set("lbfamily.verify_ms."+f.label, median(untraced[f.label])*1e3, "ms")
		r.set("solver.oracle_us."+f.label, perCall(ft.oracle), "us")
		r.set("constructions.apply_us."+f.label, perCall(ft.cons), "us")
		r.set("lbfamily.other_us."+f.label, perCall(workers*ft.wall-ft.oracle-ft.cons), "us")
		tracedPairs += int(ft.calls) * f.pairs
	}
	r.set("constructions.apply_us", float64(applyNS)/float64(tracedPairs)/1e3, "us")
	r.set("constructions.toggles", float64(applyN)/float64(tracedPairs), "count")
	r.set("constructions.base_ms", median(bases)/1e6, "ms")
	r.set("trace.overhead", float64(tracedNS)/1e9/untracedS-1, "ratio")
	r.set("failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	r.ops = fmt.Sprintf("light_passes=%d %s_calls=%d spans=%d spans_file=%s", passes, heavy.label, heavyCalls, len(rec.spans), path)
	return r, nil
}
