package lbfamily_test

import (
	"fmt"
	"sync"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// TestNonAdditiveDerivedFamilyFallsBack: squaring makes the bits' changes
// interfere, so the consistency gate must refuse the derived delta and
// Verify must report exactly what rebuilding every pair reports.
func TestNonAdditiveDerivedFamilyFallsBack(t *testing.T) {
	mds, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	fam := squared(mds)
	side, err := lbfamily.AliceSideOf(fam)
	if err != nil {
		t.Fatal(err)
	}
	if lbfamily.GatedDelta[*graph.Graph](fam, side) != nil {
		t.Fatal("the gate trusted a non-additive delta")
	}
	xs := allInputs(t, fam.K())
	if _, usedDelta, err := lbfamily.CollectOutcomesForTest(fam, xs, xs, false); err != nil {
		t.Fatal(err)
	} else if usedDelta {
		t.Fatal("Verify walked a non-additive delta")
	}
	if got, want := fmt.Sprint(lbfamily.Verify(fam)), fmt.Sprint(lbfamily.VerifyRebuild(fam)); got != want {
		t.Fatalf("Verify = %s, rebuild = %s", got, want)
	}
}

// TestDeltaConcurrentFirstUse: a family's delta is derived and gated
// once even when several sweeps start on it at the same time, as the
// job server's do on a cached family.
func TestDeltaConcurrentFirstUse(t *testing.T) {
	mds, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			df := lbfamily.GatedDelta[*graph.Graph](mds, mds.AliceSide())
			if df == nil {
				t.Error("the gate refused the mds delta")
				return
			}
			g, err := df.BuildBase()
			if err == nil {
				err = df.ApplyBit(g, lbfamily.PlayerX, 0, true)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// deltaSurface is one family's derived delta, typed by graph kind.
type deltaSurface[G lbfamily.Instance[G]] struct {
	name string
	k    int
	side []bool
	df   lbfamily.DeltaSource[G]
	// build is the family's Build, the delta's reference.
	build func(x, y comm.Bits) (G, error)
}

func surfaceOf[G lbfamily.Instance[G]](t testing.TB, fam interface {
	Name() string
	K() int
	AliceSide() []bool
	Build(x, y comm.Bits) (G, error)
}) deltaSurface[G] {
	t.Helper()
	df, ok := fam.(lbfamily.DeltaSource[G])
	if !ok {
		t.Fatalf("%s has no delta", fam.Name())
	}
	side, err := lbfamily.AliceSideOf(fam)
	if err != nil {
		t.Fatal(err)
	}
	return deltaSurface[G]{name: fam.Name(), k: fam.K(), side: side, df: df, build: fam.Build}
}

// rejectsOutOfRange checks that ApplyBit refuses players outside
// {PlayerX, PlayerY} and bits outside [0,K) and leaves g unchanged.
func (s deltaSurface[G]) rejectsOutOfRange(t *testing.T) {
	g, err := s.df.BuildBase()
	if err != nil {
		t.Fatal(err)
	}
	want := s.hashes(g)
	for _, c := range []struct{ player, bit int }{
		{2, 0}, {-1, 0}, {lbfamily.PlayerX, s.k}, {lbfamily.PlayerY, -1}, {lbfamily.PlayerY, s.k},
	} {
		if err := s.df.ApplyBit(g, c.player, c.bit, true); err == nil {
			t.Errorf("%s: ApplyBit(player %d, bit %d) accepted", s.name, c.player, c.bit)
		}
		if s.hashes(g) != want {
			t.Fatalf("%s: rejected ApplyBit(player %d, bit %d) changed the instance", s.name, c.player, c.bit)
		}
	}
}

func (s deltaSurface[G]) hashes(g G) [4]uint64 {
	bob := make([]bool, len(s.side))
	for i, a := range s.side {
		bob[i] = !a
	}
	return [4]uint64{uint64(g.N()), g.CutHash(s.side), g.HashWithin(s.side), g.HashWithin(bob)}
}

// walk moves one instance through the inputs data encodes, ceil(K/8)
// bytes per input and two inputs per pair, setting only the bits that
// differ from the previous pair, and checks every pair against Build.
func (s deltaSurface[G]) walk(data []byte) error {
	g, err := s.df.BuildBase()
	if err != nil {
		return err
	}
	g.Freeze()
	g.StartJournal()
	cur := [2]comm.Bits{comm.NewBits(s.k), comm.NewBits(s.k)}
	width := (s.k + 7) / 8
	for len(data) >= 2*width {
		var in [2]comm.Bits
		for p := range in {
			var v uint64
			for _, b := range data[:width] {
				v = v<<8 | uint64(b)
			}
			data = data[width:]
			if in[p], err = comm.BitsFromUint64(s.k, v&(1<<uint(s.k)-1)); err != nil {
				return err
			}
		}
		for p, target := range in {
			var applyErr error
			cur[p].ForEachDiff(target, func(i int) bool {
				applyErr = s.df.ApplyBit(g, p, i, target.Get(i))
				cur[p].Set(i, target.Get(i))
				return applyErr == nil
			})
			if applyErr != nil {
				return fmt.Errorf("(%s,%s): %w", in[0], in[1], applyErr)
			}
		}
		g.ClearJournal()
		want, err := s.build(in[0], in[1])
		if err != nil {
			return err
		}
		if s.hashes(g) != s.hashes(want) {
			return fmt.Errorf("(%s,%s): the delta walk diverged from Build", in[0], in[1])
		}
	}
	return nil
}

// warmApplyAllocs reports the allocations of setting and clearing bit 0
// of each player on a warm instance.
func (s deltaSurface[G]) warmApplyAllocs(t *testing.T) float64 {
	g, err := s.df.BuildBase()
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	g.StartJournal()
	var applyErr error
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range [2]int{lbfamily.PlayerX, lbfamily.PlayerY} {
			for _, val := range [2]bool{true, false} {
				if err := s.df.ApplyBit(g, p, 0, val); err != nil {
					applyErr = err
				}
			}
		}
		g.ClearJournal()
	})
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	return allocs
}

// surfaces passes every in-repo family's delta to undirected or
// directed, by its graph kind.
func surfaces(t testing.TB, undirected func(deltaSurface[*graph.Graph]), directed func(deltaSurface[*graph.Digraph])) {
	for _, fam := range deltaFamilies(t) {
		undirected(surfaceOf[*graph.Graph](t, fam))
	}
	for _, fam := range digraphDeltaFamilies(t) {
		directed(surfaceOf[*graph.Digraph](t, fam))
	}
}

func TestApplyBitRejectsOutOfRange(t *testing.T) {
	surfaces(t,
		func(s deltaSurface[*graph.Graph]) { s.rejectsOutOfRange(t) },
		func(s deltaSurface[*graph.Digraph]) { s.rejectsOutOfRange(t) })
}

func TestWarmDerivedApplyBitAllocatesNothing(t *testing.T) {
	check := func(name string, allocs float64) {
		if allocs != 0 {
			t.Errorf("%s: a warm ApplyBit allocates %.1f times, want 0", name, allocs)
		}
	}
	surfaces(t,
		func(s deltaSurface[*graph.Graph]) { check(s.name, s.warmApplyAllocs(t)) },
		func(s deltaSurface[*graph.Digraph]) { check(s.name, s.warmApplyAllocs(t)) })
}

// FuzzDeltaWalk walks every in-repo family's derived delta through
// arbitrary input sequences — any Hamming distance between consecutive
// pairs, as the sampled sweeps take — and checks each pair's cut and
// side hashes against Build. The first byte picks the family.
func FuzzDeltaWalk(f *testing.F) {
	var walks []func([]byte) error
	surfaces(f,
		func(s deltaSurface[*graph.Graph]) { walks = append(walks, s.walk) },
		func(s deltaSurface[*graph.Digraph]) { walks = append(walks, s.walk) })
	for i := range walks {
		f.Add([]byte{byte(i), 0xff, 0xff, 0x00, 0x00, 0x5a, 0xa5, 0x0f, 0xf0, 0x01, 0x80})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if err := walks[int(data[0])%len(walks)](data[1:]); err != nil {
			t.Fatal(err)
		}
	})
}
