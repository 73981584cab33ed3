// Package obs is the repo's dependency-free observability core: atomic
// counters, gauges and fixed-bucket histograms collected in a named
// Registry, a sliding-window rate estimator, and the Prometheus text
// exposition renderer the serve layer mounts at /v1/metrics.
//
// The design contract mirrors the simulators' zero-alloc steady state:
// Counter.Add, Gauge.Set and Histogram.Observe perform no allocations
// and take no locks, so they are safe to call from hot per-round and
// per-pair paths (guarded by testing.AllocsPerRun in obs_test.go, the
// same way TestRunSteadyStateDoesNotAllocate guards the round loops).
// Registration and rendering are mutex-protected and cold.
//
// Metric names must match
//
//	hardness_[a-z_]+(_total|_seconds|_bytes)?
//
// (counters end in _total, histograms of durations in _seconds). The
// Registry rejects other names at registration time and the hardlint
// obsnames analyzer rejects them statically at the call site.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// ready to use; Add and Inc are allocation-free and lock-free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotone by convention; callers must pass
// n >= 0 (negative deltas would corrupt rate math downstream).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down. The zero
// value is ready to use; Set and Add are allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound plus a running sum. Bounds are fixed at construction (there is
// no resizing), so Observe is a linear scan over a small slice and two
// atomic updates — no locks, no allocations. An implicit +Inf bucket
// catches observations above the last bound.
type Histogram struct {
	bounds []float64      // strictly increasing finite upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a standalone histogram (not registered anywhere)
// over the given strictly increasing finite upper bounds. Use a
// Registry constructor for exported metrics; standalone histograms are
// for in-process aggregation like hardload's latency percentiles.
func NewHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("obs: histogram bound %d is not finite", i)
		}
		if i > 0 && b <= own[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing at %d (%g <= %g)", i, b, own[i-1])
		}
	}
	return &Histogram{bounds: own, counts: make([]atomic.Int64, len(own)+1)}, nil
}

// MustHistogram is NewHistogram that panics on invalid bounds; for
// package-level and test construction where the bounds are literals.
func MustHistogram(bounds []float64) *Histogram {
	h, err := NewHistogram(bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one observation. Allocation-free and lock-free.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank, the same
// estimate Prometheus' histogram_quantile computes server-side. The
// lowest bucket interpolates from 0; ranks landing in the +Inf bucket
// clamp to the last finite bound. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (h.bounds[i]-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// ExpBuckets returns n strictly increasing bounds starting at start and
// multiplying by factor: the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		//nolint:hardlint/panicsite bucket shapes are compile-time constants; misuse is a programmer error caught at init
		panic("obs: ExpBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ValidName reports whether name matches the exposition surface's
// naming convention, hardness_[a-z_]+(_total|_seconds|_bytes)?. The
// optional unit suffixes are themselves [a-z_]+, so the rule reduces
// to: "hardness_" followed by one or more lowercase letters and
// underscores. The hardlint obsnames analyzer enforces the same
// pattern statically on constructor call sites.
func ValidName(name string) bool {
	const prefix = "hardness_"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return false
	}
	for i := len(prefix); i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && c != '_' {
			return false
		}
	}
	return true
}

// metric is the registry's view of one named series: anything that can
// render itself as Prometheus text exposition lines.
type metric interface {
	writeProm(w io.Writer, name string) error
	typeName() string
}

func (c *Counter) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
	return err
}
func (c *Counter) typeName() string { return "counter" }

func (g *Gauge) writeProm(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, g.Value())
	return err
}
func (g *Gauge) typeName() string { return "gauge" }

func (h *Histogram) writeProm(w io.Writer, name string) error {
	// Snapshot counts first so the rendered _bucket/_count series are
	// consistent with each other even under concurrent Observe calls
	// (sum may trail by in-flight observations; Prometheus tolerates
	// that, but cumulative buckets must never exceed _count).
	snap := make([]int64, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
		cum += snap[i]
	}
	run := int64(0)
	for i, b := range h.bounds {
		run += snap[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), run); err != nil {
			return err
		}
	}
	run += snap[len(h.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, run); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum(), 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, cum)
	return err
}
func (h *Histogram) typeName() string { return "histogram" }

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Registry is a named collection of metrics with one exposition
// endpoint. Registration validates names (ValidName) and rejects
// duplicates; all constructors are cold paths guarded by a mutex,
// while the returned metric handles are lock-free.
type Registry struct {
	mu    sync.Mutex
	names []string // registration order; sorted at render time
	byN   map[string]metricEntry
}

type metricEntry struct {
	m    metric
	help string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: make(map[string]metricEntry)}
}

func (r *Registry) register(name, help string, m metric) error {
	if !ValidName(name) {
		return fmt.Errorf("obs: metric name %q does not match hardness_[a-z_]+(_total|_seconds|_bytes)?", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byN[name]; dup {
		return fmt.Errorf("obs: metric %q already registered", name)
	}
	r.byN[name] = metricEntry{m: m, help: help}
	r.names = append(r.names, name)
	return nil
}

// NewCounter registers a counter under name.
func (r *Registry) NewCounter(name, help string) (*Counter, error) {
	c := &Counter{}
	if err := r.register(name, help, c); err != nil {
		return nil, err
	}
	return c, nil
}

// MustCounter is NewCounter that panics on registration failure; for
// wiring done once at construction with literal names.
func (r *Registry) MustCounter(name, help string) *Counter {
	c, err := r.NewCounter(name, help)
	if err != nil {
		panic(err)
	}
	return c
}

// NewGauge registers a gauge under name.
func (r *Registry) NewGauge(name, help string) (*Gauge, error) {
	g := &Gauge{}
	if err := r.register(name, help, g); err != nil {
		return nil, err
	}
	return g, nil
}

// MustGauge is NewGauge that panics on registration failure.
func (r *Registry) MustGauge(name, help string) *Gauge {
	g, err := r.NewGauge(name, help)
	if err != nil {
		panic(err)
	}
	return g
}

// NewHistogram registers a fixed-bucket histogram under name.
func (r *Registry) NewHistogram(name, help string, bounds []float64) (*Histogram, error) {
	h, err := NewHistogram(bounds)
	if err != nil {
		return nil, err
	}
	if err := r.register(name, help, h); err != nil {
		return nil, err
	}
	return h, nil
}

// MustHistogram is NewHistogram that panics on registration failure.
func (r *Registry) MustHistogram(name, help string, bounds []float64) *Histogram {
	h, err := r.NewHistogram(name, help, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE headers, then
// the series — counters and gauges as single samples, histograms as
// cumulative _bucket{le=...} series ending at +Inf plus _sum and
// _count. Metrics render in sorted name order for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	entries := make(map[string]metricEntry, len(names))
	for _, n := range names {
		entries[n] = r.byN[n]
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		e := entries[n]
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, e.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, e.m.typeName()); err != nil {
			return err
		}
		if err := e.m.writeProm(w, n); err != nil {
			return err
		}
	}
	return nil
}

// RateWindow estimates a sliding-window event rate from per-second
// slots: Add(now, n) credits n events to now's second, Rate(now)
// averages the last window's worth of full seconds. It exists for the
// serve layer's PairsPerSecWindow — a cumulative average hides stalls,
// a window shows them. Callers pass the clock in, so the package stays
// free of ambient time reads and the window is testable with a fixed
// clock. Safe for concurrent use; Add is mutex-guarded but cold
// relative to per-pair work.
type RateWindow struct {
	mu     sync.Mutex
	window int64   // seconds averaged over
	secs   []int64 // unix second stamped into each slot
	counts []int64
}

// NewRateWindow returns a rate estimator averaging over the given
// window, rounded up to a whole number of seconds (minimum 1s).
func NewRateWindow(window time.Duration) *RateWindow {
	secs := int64(window / time.Second)
	if secs < 1 {
		secs = 1
	}
	return &RateWindow{
		window: secs,
		secs:   make([]int64, secs+1),
		counts: make([]int64, secs+1),
	}
}

// Add credits n events to the second containing now.
func (rw *RateWindow) Add(now time.Time, n int64) {
	sec := now.Unix()
	i := sec % int64(len(rw.secs))
	rw.mu.Lock()
	if rw.secs[i] != sec {
		rw.secs[i] = sec
		rw.counts[i] = 0
	}
	rw.counts[i] += n
	rw.mu.Unlock()
}

// Rate returns events per second averaged over the window ending at
// now (the current, partial second included — a freshly started burst
// should register immediately, not a second late).
func (rw *RateWindow) Rate(now time.Time) float64 {
	sec := now.Unix()
	var total int64
	rw.mu.Lock()
	for i := range rw.secs {
		if rw.secs[i] > sec-rw.window && rw.secs[i] <= sec {
			total += rw.counts[i]
		}
	}
	rw.mu.Unlock()
	return float64(total) / float64(rw.window)
}
