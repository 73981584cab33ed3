package reduction

import (
	"runtime"
	"sync"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/dicongest"
	"congesthard/internal/lbfamily"
	"congesthard/internal/obs"
)

// The collect algorithms run each pair on a pooled workspace: a warm
// pair allocates no collect node state, and its root rebuilds into the
// workspace's graph and decides on the workspace's own oracle. With a
// reused arena the simulator carves every node's Local views from the
// arena too, so what is left of a certified pair is a handful of
// per-pair objects (the factory and its slab header, the decide closure,
// the Result, its outputs slice and the root's boxed output). Each run
// moves the instance to its next pair with one ApplyBit, as Certify's
// delta walk does, so the graph's Freeze snapshot is spliced, not
// rebuilt, between runs. These pins sit about 25% above the measured
// counts; a Local copied per node, a slab allocated per factory, a
// snapshot rebuilt per pair, a rebuild at every non-root or a fresh
// reconstruction graph per root multiplies them.

const (
	mdsCollectPairAllocs   = 9 // measured 7
	hamlbCollectPairAllocs = 9 // measured 7
)

func TestCollectMDSPairAllocations(t *testing.T) {
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
	alg := CollectMDS(fam)
	opts := congest.Options{CutSide: fam.AliceSide(), Arena: &congest.Arena{}}
	for bit := range x.Len() {
		set := x.Get(bit)
		allocs := testing.AllocsPerRun(20, func() {
			set = !set
			if err := fam.ApplyBit(g, lbfamily.PlayerX, bit, set); err != nil {
				t.Fatal(err)
			}
			factory, decide, err := alg.Prepare(g, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := congest.Run(g, factory, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decide(res); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("mds/collect pair walked by x's bit %d: %.0f allocs", bit, allocs)
		if allocs > mdsCollectPairAllocs {
			t.Errorf("one mds/collect pair walked by x's bit %d allocates %.0f times, want at most %d", bit, allocs, mdsCollectPairAllocs)
		}
	}
}

func TestCollectHamPathPairAllocations(t *testing.T) {
	fam, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := comm.BitsFromUint64(4, 0b1001)
	y, _ := comm.BitsFromUint64(4, 0b0011)
	d, err := fam.Build(x, y)
	if err != nil {
		t.Fatal(err)
	}
	alg := CollectHamPath(fam)
	opts := dicongest.Options{CutSide: fam.AliceSide(), Arena: &dicongest.Arena{}}
	for bit := range x.Len() {
		set := x.Get(bit)
		allocs := testing.AllocsPerRun(20, func() {
			set = !set
			if err := fam.ApplyBit(d, lbfamily.PlayerX, bit, set); err != nil {
				t.Fatal(err)
			}
			factory, decide, err := alg.Prepare(d, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dicongest.Run(d, factory, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decide(res); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("hamlb/collect pair walked by x's bit %d: %.0f allocs", bit, allocs)
		if allocs > hamlbCollectPairAllocs {
			t.Errorf("one hamlb/collect pair walked by x's bit %d allocates %.0f times, want at most %d", bit, allocs, hamlbCollectPairAllocs)
		}
	}
}

// sweepAllocsPin is lbfamily's verifyAllocsPin rule for whole sweeps:
// about 1.25x the measured count, but never more than 200 above it, so
// one allocation per certified pair (256 at k = 2) trips every pin.
func sweepAllocsPin(measured int) float64 {
	return float64(min(measured*5/4, measured+200))
}

// firstRunAllocs counts the heap allocations of one call to f, at
// GOMAXPROCS 1 as testing.AllocsPerRun measures. Unlike AllocsPerRun it
// makes no warm-up call, so f's first-use work is counted.
func firstRunAllocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// claimColumns returns a Config.Trace that holds the first pair of each
// of the first n columns of an exhaustive K = 4 sweep (16 columns of 16
// pairs) until all n have begun, so each of n workers claims a column.
// Otherwise the scheduler decides how many workers claim one, and each
// pays for its own simulator and workspace, so the count would move
// with it. The trace itself observes nothing.
func claimColumns(n int) func(idx int, x, y comm.Bits) congest.Tracer {
	var started sync.WaitGroup
	started.Add(n)
	return func(idx int, x, y comm.Bits) congest.Tracer {
		if idx%16 == 0 && idx < n*16 {
			started.Done()
			started.Wait()
		}
		return nil
	}
}

// TestCertifySweepAllocations pins one exhaustive k = 2 sweep (256
// CONGEST runs) of each collect pairing end to end: the sweep machinery
// (worker arenas, delta clones, workspaces) costs O(workers) and each
// pair a handful of allocations (the per-pair pins above). The first
// sweep on a freshly built family also pays the family's first-use work
// (its delta and gate, the workers' first arenas); later sweeps are
// pinned at 1 and 4 workers. A per-node Local copy, a snapshot or
// instance rebuilt per pair, a lost arena or workspace, or one more
// allocation per pair anywhere in the sweep trips the pins.
func TestCertifySweepAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		// Measured counts: the first sweep at 1 worker, and a later
		// sweep at 1 and at 4 workers.
		first, warm1, warm4 int
		// newSweep builds a fresh family and returns its sweep.
		newSweep func(t *testing.T) func(cfg Config) (*Report, error)
	}{
		{"mds/collect", 3461, 2741, 2982, func(t *testing.T) func(Config) (*Report, error) {
			fam := mdsFam(t)
			alg := CollectMDS(fam)
			return func(cfg Config) (*Report, error) {
				return Certify(fam, alg, cfg)
			}
		}},
		{"mds/collect+metrics", 3461, 2741, 2982, func(t *testing.T) func(Config) (*Report, error) {
			fam := mdsFam(t)
			alg := CollectMDS(fam)
			sm := obs.MustSweepMetrics(obs.NewRegistry())
			return func(cfg Config) (*Report, error) {
				cfg.Metrics = sm
				return Certify(fam, alg, cfg)
			}
		}},
		{"hamlb/collect", 5136, 2732, 3213, func(t *testing.T) func(Config) (*Report, error) {
			fam := hamFam(t)
			alg := CollectHamPath(fam)
			return func(cfg Config) (*Report, error) {
				return CertifyDigraph(fam, alg, cfg)
			}
		}},
	} {
		sweep := tc.newSweep(t)
		run := func(workers int) func() {
			return func() {
				cfg := Config{Seed: 1, Workers: workers}
				if workers > 1 {
					cfg.Trace = claimColumns(workers)
				}
				rep, err := sweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Completed != 256 || rep.Mismatches != 0 {
					t.Fatalf("%s: %d pairs certified with %d mismatches, want 256 and 0", tc.name, rep.Completed, rep.Mismatches)
				}
			}
		}
		check := func(what string, allocs float64, measured int) {
			t.Logf("%s: %s: %.0f allocs", tc.name, what, allocs)
			if pin := sweepAllocsPin(measured); allocs > pin {
				t.Errorf("%s: %s allocates %.0f times, want <= %.0f (measured %d)", tc.name, what, allocs, pin, measured)
			}
		}
		check("the first sweep at 1 worker", firstRunAllocs(run(1)), tc.first)
		check("a warm sweep at 1 worker", testing.AllocsPerRun(3, run(1)), tc.warm1)
		check("a warm sweep at 4 workers", testing.AllocsPerRun(3, run(4)), tc.warm4)
	}
}
