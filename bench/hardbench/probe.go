package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Wall time on a shared machine drifts with the neighbours' load. On a
// 2-vCPU VM the same certify sweep takes 24 ms in a calm minute and 48 ms
// in a busy one, and the drift lasts minutes. The median over a run cannot
// remove that, so the gated timings are normalized by a speed probe: a
// fixed kernel of this file's own, timed right after each operation, which
// a change to the repository cannot change. The probe does small
// allocations, map updates and integer mixing on one goroutine per core.
// Each operation is normalized by the mean of the probes just before and
// just after it.
//
// A busy neighbour does not slow all code alike. Across minutes of varying
// load the log of a certify sweep's time follows the log of the probe's
// time with slope about 1, a steinerlb Verify's with slope about 0.45. That
// slope is the operation's sensitivity s, and its normalized time is
//
//	wall × (probeNominal ÷ probe wall)^s
//
// its estimated wall time on a machine where the probe takes probeNominal.

// probeNominal is the speed normalized times are given at: a little below
// the probe's wall time in the calmest periods of the 2-vCPU Intel Xeon VM
// this benchmark was written on.
const probeNominal = 4 * time.Millisecond

// probeIters is the kernel's iterations per goroutine.
const probeIters = 40_000

var probeSink atomic.Uint64

// speedProbe times the probe on a fixed number of goroutines and keeps
// every wall time it measured.
type speedProbe struct {
	workers int
	// reps is the kernel runs of one measurement, whose median is its
	// wall time. The first run after an idle spell is often slow, and a
	// single run is noisy next to an operation of hundreds of ms.
	reps  int
	walls []float64
}

func newSpeedProbe(workers, reps int) *speedProbe {
	return &speedProbe{workers: max(workers, 1), reps: max(reps, 1)}
}

// scale measures the probe and returns probeNominal ÷ the mean of this
// wall time and the previous one, i.e. of the probes on either side of
// the operation that just ended: the factor that normalizes its wall time
// at sensitivity 1.
func (p *speedProbe) scale() float64 {
	var prev float64
	if n := len(p.walls); n > 0 {
		prev = p.walls[n-1]
	}
	d := p.measure()
	if prev == 0 {
		prev = d
	}
	return probeNominal.Seconds() / ((prev + d) / 2)
}

// measure runs the probe reps times and returns the median wall time in
// seconds.
func (p *speedProbe) measure() float64 {
	runs := make([]float64, p.reps)
	for i := range runs {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < p.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				probeSink.Add(probeKernel(uint64(w)))
			}()
		}
		wg.Wait()
		runs[i] = time.Since(start).Seconds()
	}
	d := median(runs)
	p.walls = append(p.walls, d)
	return d
}

// report prints the probe's median wall time and how much slower than
// nominal the machine ran.
func (p *speedProbe) report(r *outcome) {
	m := median(p.walls)
	r.set("probe_ms", m*1e3, "ms")
	r.set("slowdown", m/probeNominal.Seconds(), "ratio")
}

// probeKernel allocates a short slice per iteration, fills it with
// splitmix64 values and folds it into a small map.
func probeKernel(seed uint64) uint64 {
	m := make(map[uint64]uint64, 64)
	var acc uint64
	x := seed
	for i := 0; i < probeIters; i++ {
		s := make([]uint64, 4+i%12)
		for j := range s {
			x += 0x9e3779b97f4a7c15
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			s[j] = z ^ z>>27
		}
		m[s[0]%256] += s[len(s)-1]
		if len(m) > 200 {
			clear(m)
		}
		acc += m[uint64(i)%256]
	}
	return acc
}
