package reduction

import (
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/dicongest"
)

// The collect programs allocate their node state once per factory and
// reconstruct only at component roots, so one certified pair costs a few
// hundred allocations with a reused arena: the simulator's Local views,
// the slab, and the roots' reconstruction and solve. These pins sit about
// 25% above the measured counts; a per-node map or a rebuild at every
// non-root multiplies them.

const (
	mdsCollectPairAllocs   = 325  // measured 260
	hamlbCollectPairAllocs = 1060 // measured 850
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
	allocs := testing.AllocsPerRun(20, func() {
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
	t.Logf("mds/collect pair: %.0f allocs", allocs)
	if allocs > mdsCollectPairAllocs {
		t.Errorf("one mds/collect pair allocates %.0f times, want at most %d", allocs, mdsCollectPairAllocs)
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
	allocs := testing.AllocsPerRun(20, func() {
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
	t.Logf("hamlb/collect pair: %.0f allocs", allocs)
	if allocs > hamlbCollectPairAllocs {
		t.Errorf("one hamlb/collect pair allocates %.0f times, want at most %d", allocs, hamlbCollectPairAllocs)
	}
}
