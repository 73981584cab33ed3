package reduction

import (
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/dicongest"
	"congesthard/internal/lbfamily"
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
