package reduction

import (
	"reflect"
	"sync"
	"testing"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// The collect factories carve every node's state from memory they own,
// so the tests below drive one factory through several runs in a row —
// directly and through the two-party replay, which re-creates only
// Alice's nodes — and check that every run gives the same Result as a
// fresh factory, and that a later run does not change an earlier Result.

func TestCollectFactoryReuse(t *testing.T) {
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
	side := fam.AliceSide()
	eval := func(component *graph.Graph) (int64, error) { return int64(component.M()), nil }
	retryBW := algorithms.CollectRetryMinBandwidth(g.N())
	for _, tc := range []struct {
		name  string
		build func() (congest.Factory, error)
		opts  congest.Options
	}{
		{"collect", func() (congest.Factory, error) {
			f, _, err := algorithms.CollectFactory(g, 0, algorithms.CollectSpec{Eval: eval})
			return f, err
		}, congest.Options{}},
		{"collect-retry", func() (congest.Factory, error) {
			f, _, err := algorithms.CollectRetryFactory(g, retryBW, algorithms.CollectSpec{Eval: eval})
			return f, err
		}, congest.Options{
			BandwidthBits: retryBW,
			MaxRounds:     algorithms.CollectRetryRoundsCap(g.N()),
			Faults:        &faults.Plan{Seed: 4, DropProb: 0.05},
		}},
	} {
		run := func(factory congest.Factory) *congest.Result {
			opts := tc.opts
			opts.CutSide = side
			res, err := congest.Run(g, factory, opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return res
		}
		fresh := func() congest.Factory {
			f, err := tc.build()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return f
		}
		want := run(fresh())
		factory := fresh()
		first := run(factory)
		firstCopy := *first
		firstCopy.Outputs = append([]interface{}(nil), first.Outputs...)
		second := run(factory)
		_, verified, err := VerifySimulation(g, side, factory, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		afterReplay := run(factory)
		for i, res := range []*congest.Result{first, second, verified, afterReplay} {
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: run %d of a reused factory gave %+v, a fresh factory %+v", tc.name, i, res, want)
			}
		}
		if !reflect.DeepEqual(first, &firstCopy) {
			t.Errorf("%s: later runs changed the first run's Result", tc.name)
		}
	}
}

func TestDiCollectFactoryReuse(t *testing.T) {
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
	side := fam.AliceSide()
	alg := CollectHamPath(fam)
	fresh := func() dicongest.Factory {
		f, _, err := alg.Prepare(d, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	run := func(factory dicongest.Factory) *dicongest.Result {
		res, err := dicongest.Run(d, factory, dicongest.Options{CutSide: side})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(fresh())
	factory := fresh()
	first := run(factory)
	firstCopy := *first
	firstCopy.Outputs = append([]interface{}(nil), first.Outputs...)
	second := run(factory)
	_, verified, err := VerifyDigraphSimulation(d, side, factory, dicongest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	afterReplay := run(factory)
	for i, res := range []*dicongest.Result{first, second, verified, afterReplay} {
		if !reflect.DeepEqual(res, want) {
			t.Errorf("run %d of a reused factory gave %+v, a fresh factory %+v", i, res, want)
		}
	}
	if !reflect.DeepEqual(first, &firstCopy) {
		t.Error("later runs changed the first run's Result")
	}
}

// TestCollectPoolHandsOutDistinctWorkspaces: a pair's decide returns its
// workspace to the algorithm's pool once, however often it is called, so
// two pairs prepared afterwards get distinct workspaces and can run at
// the same time (go test -race flags a shared one).
func TestCollectPoolHandsOutDistinctWorkspaces(t *testing.T) {
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	side := fam.AliceSide()
	instance := func(x, y uint64) *graph.Graph {
		bx, _ := comm.BitsFromUint64(4, x)
		by, _ := comm.BitsFromUint64(4, y)
		g, err := fam.Build(bx, by)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func(alg Algorithm, g *graph.Graph) (func(*congest.Result) (bool, error), *congest.Result) {
		factory, decide, err := alg.Prepare(g, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := congest.Run(g, factory, congest.Options{CutSide: side})
		if err != nil {
			t.Fatal(err)
		}
		return decide, res
	}
	gs := []*graph.Graph{instance(0b1010, 0b0110), instance(0b0001, 0b1000), instance(0b1111, 0b0011)}
	want := make([]*congest.Result, len(gs))
	for i, g := range gs {
		_, want[i] = run(CollectMDS(fam), g)
	}

	alg := CollectMDS(fam)
	decide, res := run(alg, gs[0])
	for i := 0; i < 2; i++ {
		if _, err := decide(res); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*congest.Result, len(gs))
	var wg sync.WaitGroup
	for i := 1; i < len(gs); i++ {
		factory, decide, err := alg.Prepare(gs[i], 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := congest.Run(gs[i], factory, congest.Options{CutSide: side})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res
			if _, err := decide(res); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(gs); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("instance %d: pooled pair gave %+v, a fresh algorithm %+v", i, got[i], want[i])
		}
	}
}
