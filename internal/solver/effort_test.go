package solver_test

import (
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/boundedlb"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/steinerlb"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/solver"
)

// deltaFamily is the surface of a family that grayWalk drives.
type deltaFamily[G any] interface {
	K() int
	Func() comm.Function
	BuildBase() (G, error)
	ApplyBit(g G, player, bit int, val bool) error
}

// grayWalk visits every pair of fam on one instance in Verify's order:
// column by column over y, each column over x in lbfamily.CubeWalk's
// order, moving the instance by ApplyBit. eval must answer f(x, y) on
// every pair.
func grayWalk[G any](t *testing.T, name string, fam deltaFamily[G], eval func(G) (bool, error)) {
	t.Helper()
	k := fam.K()
	g, err := fam.BuildBase()
	if err != nil {
		t.Fatal(err)
	}
	cur := [2]comm.Bits{comm.NewBits(k), comm.NewBits(k)}
	move := func(player int, to uint64) comm.Bits {
		want, err := comm.BitsFromUint64(k, to)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if v := want.Get(i); cur[player].Get(i) != v {
				if err := fam.ApplyBit(g, player, i, v); err != nil {
					t.Fatal(err)
				}
				cur[player].Set(i, v)
			}
		}
		return want
	}
	for c := uint64(0); c < 1<<k; c++ {
		y := move(lbfamily.PlayerY, c)
		for r := 0; r < 1<<k; r++ {
			x := move(lbfamily.PlayerX, uint64(lbfamily.CubeWalk(k, int(c), r)))
			got, err := eval(g)
			if err != nil {
				t.Fatalf("%s at (%s,%s): %v", name, x, y, err)
			}
			if want := fam.Func().Eval(x, y); got != want {
				t.Fatalf("%s at (%s,%s): oracle %v, f = %v", name, x, y, got, want)
			}
		}
	}
}

// TestOracleEffortOnGrayWalks pins the search effort of the decision
// oracles that Verify runs: each family's 256 k = 2 pairs (the verify
// benchmark's seven families) walked on one oracle, as one Verify worker
// walks them. A call that a carry answers runs no search, so a regression
// of either carry, of the walk order, or of a search's pruning raises a
// count above its pin. The pins are the measured counts. 81 of each
// walk's pairs are NO instances. Each column starts at x = ȳ, its largest
// NO instance, which the NO snapshot then dominates for every other NO
// pair of the column; so all but 16 NO pairs (one per column) are carried
// on every family but maxcutlb, whose normalizing weights move both up
// and down, so that no NO instance dominates another and MaxCutOracle
// keeps no NO snapshot. The certificate carried from the previous YES
// answers 130 to 134 of the 175 YES pairs.
func TestOracleEffortOnGrayWalks(t *testing.T) {
	type counted interface {
		Effort() (searches, nodes int64)
		Carries() (noSearches, yesCarries, noCarries int64)
	}
	check := func(name string, o counted, maxSearches, maxNoSearches, maxNodes int64) {
		t.Helper()
		searches, nodes := o.Effort()
		noSearches, yesCarries, noCarries := o.Carries()
		t.Logf("%s: %d searches (%d NO), %d nodes, %d YES and %d NO carried over 256 pairs",
			name, searches, noSearches, nodes, yesCarries, noCarries)
		if searches > maxSearches || noSearches > maxNoSearches || nodes > maxNodes {
			t.Errorf("%s: %d searches (%d NO) and %d nodes, want at most %d (%d NO) and %d",
				name, searches, noSearches, nodes, maxSearches, maxNoSearches, maxNodes)
		}
	}

	mds, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	var mdsO solver.MDSOracle
	grayWalk(t, "mdslb", mds, func(g *graph.Graph) (bool, error) {
		return mdsO.HasDominatingSetOfSize(g, mds.TargetSize())
	})
	check("mdslb", &mdsO, 57, 16, 7003)

	cut, err := maxcutlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	var cutO solver.MaxCutOracle
	grayWalk(t, "maxcutlb", cut, func(g *graph.Graph) (bool, error) {
		return cutO.HasCutOfWeight(g, cut.Target())
	})
	check("maxcutlb", &cutO, 126, 81, 49505)

	st, err := steinerlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	var stO solver.SteinerOracle
	grayWalk(t, "steinerlb", st, func(g *graph.Graph) (bool, error) {
		return stO.HasSteinerTreeWithEdges(g, st.Terminals(), st.TargetEdges())
	})
	check("steinerlb", &stO, 61, 16, 43583)

	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	var hamO solver.HamiltonOracle
	grayWalk(t, "hamlb", ham, func(d *graph.Digraph) (bool, error) {
		return hamO.HasDirectedHamiltonianPathFrom(d, ham.Start(), ham.End())
	})
	check("hamlb", &hamO, 61, 16, 5860)

	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	params := kmdslb.Params{Collection: c, R: 2}
	twoMDS, err := kmdslb.NewTwoMDS(params)
	if err != nil {
		t.Fatal(err)
	}
	var powO solver.MDSOracle
	grayWalk(t, "kmdslb", twoMDS, func(g *graph.Graph) (bool, error) {
		return powO.HasDominatingSetOfWeight(g.Power(2), 2)
	})
	check("kmdslb", &powO, 61, 16, 3239)

	dst, err := kmdslb.NewDirSteiner(params)
	if err != nil {
		t.Fatal(err)
	}
	var dstO solver.DirSteinerOracle
	grayWalk(t, "dir-steiner", dst, func(d *graph.Digraph) (bool, error) {
		return dstO.HasDirectedSteinerWithin(d, dst.Inner.Root(), dst.Terminals(), 2)
	})
	check("dir-steiner", &dstO, 61, 16, 1254)

	bounded, err := boundedlb.NewFamily(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var isO solver.MaxISOracle
	grayWalk(t, "boundedlb", bounded, func(g *graph.Graph) (bool, error) {
		return isO.HasWeightAtLeast(g, int64(g.N()-bounded.Base.CoverTarget()), true)
	})
	check("boundedlb", &isO, 60, 16, 378)
}
