package obs_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"congesthard/internal/obs"
)

func TestCounterGauge(t *testing.T) {
	r := obs.NewRegistry()
	c := r.MustCounter("hardness_widgets_total", "widgets")
	g := r.MustGauge("hardness_widgets_active", "active widgets")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistryRejectsBadNamesAndDuplicates(t *testing.T) {
	r := obs.NewRegistry()
	bad := []string{
		"",
		"hardness_",
		"widgets_total",
		"hardness_Widgets_total",
		"hardness_widgets2_total",
		"hardness-widgets",
	}
	for _, name := range bad {
		if _, err := r.NewCounter(name, ""); err == nil {
			t.Errorf("NewCounter(%q) accepted an invalid name", name)
		}
	}
	if _, err := r.NewCounter("hardness_ok_total", ""); err != nil {
		t.Fatalf("valid name rejected: %v", err)
	}
	if _, err := r.NewGauge("hardness_ok_total", ""); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestValidName(t *testing.T) {
	cases := map[string]bool{
		"hardness_pairs_certified_total": true,
		"hardness_job_queue_seconds":     true,
		"hardness_cache_entries":         true,
		"hardness_payload_bytes":         true,
		"hardness_":                      false,
		"hardness_X":                     false,
		"hardnes_pairs_total":            false,
		"hardness_pairs.total":           false,
	}
	for name, want := range cases {
		if got := obs.ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestHistogramBounds(t *testing.T) {
	if _, err := obs.NewHistogram(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := obs.NewHistogram([]float64{1, 1}); err == nil {
		t.Error("non-increasing bounds accepted")
	}
	if _, err := obs.NewHistogram([]float64{2, 1}); err == nil {
		t.Error("decreasing bounds accepted")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := obs.MustHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 106.5; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	// Median rank 2.5 lands in the (1,2] bucket holding ranks 2..3:
	// interpolated strictly inside that bucket.
	if q := h.Quantile(0.5); q <= 1 || q > 2 {
		t.Errorf("median = %g, want in (1,2]", q)
	}
	// The +Inf bucket clamps to the last finite bound.
	if q := h.Quantile(1); q != 8 {
		t.Errorf("q1 = %g, want 8 (clamped to last bound)", q)
	}
	if q := obs.MustHistogram([]float64{1}).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := obs.ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", exp, want)
		}
	}
}

// TestHotPathDoesNotAllocate is the package's analogue of the
// simulators' TestRunSteadyStateDoesNotAllocate: the increment paths
// the round loops and sweep workers hit must be allocation-free.
func TestHotPathDoesNotAllocate(t *testing.T) {
	r := obs.NewRegistry()
	c := r.MustCounter("hardness_alloc_probe_total", "")
	g := r.MustGauge("hardness_alloc_probe", "")
	h := r.MustHistogram("hardness_alloc_probe_seconds", "", obs.ExpBuckets(0.001, 2, 12))
	sm := obs.MustSweepMetrics(r)
	if allocs := testing.AllocsPerRun(100, func() {
		c.Add(3)
		g.Set(42)
		h.Observe(0.017)
		sm.ObservePair(0.002, 12, 640)
	}); allocs != 0 {
		t.Fatalf("hot increment path allocates %.1f per run, want 0", allocs)
	}
}

func TestWritePrometheusExposition(t *testing.T) {
	r := obs.NewRegistry()
	c := r.MustCounter("hardness_pairs_certified_total", "Pairs certified.")
	g := r.MustGauge("hardness_jobs_active", "Jobs running now.")
	h := r.MustHistogram("hardness_job_run_seconds", "Job run time.", []float64{0.1, 1, 10})
	c.Add(3)
	g.Set(2)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE hardness_pairs_certified_total counter",
		"hardness_pairs_certified_total 3",
		"# TYPE hardness_jobs_active gauge",
		"hardness_jobs_active 2",
		"# TYPE hardness_job_run_seconds histogram",
		"# HELP hardness_pairs_certified_total Pairs certified.",
		`hardness_job_run_seconds_bucket{le="0.1"} 1`,
		`hardness_job_run_seconds_bucket{le="1"} 2`,
		`hardness_job_run_seconds_bucket{le="10"} 2`,
		`hardness_job_run_seconds_bucket{le="+Inf"} 3`,
		"hardness_job_run_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "hardness_job_run_seconds_sum 99.55") {
		t.Errorf("exposition sum line wrong in:\n%s", out)
	}
	// Histograms must render cumulative buckets: each le count >= the
	// previous, and +Inf equals _count.
	if strings.Index(out, "hardness_jobs_active") > strings.Index(out, "hardness_pairs_certified_total") {
		t.Error("metrics not rendered in sorted name order")
	}
}

func TestWritePrometheusConcurrentObserve(t *testing.T) {
	r := obs.NewRegistry()
	h := r.MustHistogram("hardness_probe_seconds", "", []float64{1, 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(1.5)
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		// +Inf bucket and _count come from the same snapshot, so they
		// must agree line for line.
		var inf, count int64
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, `hardness_probe_seconds_bucket{le="+Inf"}`) {
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &inf)
			}
			if strings.HasPrefix(line, "hardness_probe_seconds_count") {
				fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &count)
			}
		}
		if inf != count {
			t.Fatalf("snapshot inconsistent: +Inf bucket %d != _count %d", inf, count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRateWindow(t *testing.T) {
	rw := obs.NewRateWindow(10 * time.Second)
	base := time.Unix(1_000_000, 0)
	rw.Add(base, 50)
	rw.Add(base.Add(2*time.Second), 50)
	if got := rw.Rate(base.Add(2 * time.Second)); got != 10 {
		t.Fatalf("rate = %g, want 10 (100 events over a 10s window)", got)
	}
	// Events age out once the window slides past them.
	if got := rw.Rate(base.Add(30 * time.Second)); got != 0 {
		t.Fatalf("rate after window slid = %g, want 0", got)
	}
	// Slots are recycled: a later second reuses an old slot index.
	later := base.Add(22 * time.Second)
	rw.Add(later, 20)
	if got := rw.Rate(later); got != 2 {
		t.Fatalf("rate after recycle = %g, want 2", got)
	}
}

func TestRateWindowMinimumOneSecond(t *testing.T) {
	rw := obs.NewRateWindow(0)
	now := time.Unix(5, 0)
	rw.Add(now, 3)
	if got := rw.Rate(now); got != 3 {
		t.Fatalf("rate = %g, want 3 over the 1s minimum window", got)
	}
}
