package lbfamily_test

import (
	"fmt"
	"strings"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/apxmaxislb"
	"congesthard/internal/constructions/boundedlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/mvclb"
	"congesthard/internal/constructions/steinerlb"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

func allInputs(t *testing.T, k int) []comm.Bits {
	t.Helper()
	inputs := make([]comm.Bits, 0, 1<<uint(k))
	if err := comm.AllBits(k, func(b comm.Bits) { inputs = append(inputs, b.Clone()) }); err != nil {
		t.Fatal(err)
	}
	return inputs
}

// deltaFamilies returns every in-repo undirected family at k = 2, plus a
// DerivedFamily with a local transform.
func deltaFamilies(t testing.TB) []lbfamily.Family {
	t.Helper()
	mds, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := maxcutlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	mvc, err := mvclb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	apx, err := apxmaxislb.New(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	steiner, err := steinerlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	p := kmdslb.Params{Collection: c, R: 2}
	twoMDS, err := kmdslb.NewTwoMDS(p)
	if err != nil {
		t.Fatal(err)
	}
	kmds, err := kmdslb.NewKMDS(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodeSteiner, err := kmdslb.NewNodeSteiner(p)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := boundedlb.NewFamily(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	unweighted, err := apxmaxislb.NewUnweighted(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	linear, err := apxmaxislb.NewLinear(apxmaxislb.Params{K: 2, L: 2, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []lbfamily.Family{mds, cut, mvc, apx, steiner, twoMDS, kmds, nodeSteiner, bounded,
		unweighted, linear, twinned(mds)}
}

// twinned derives from mds a family by a local transform: every vertex v
// gets a twin n+v on its side, joined to v, and every edge {u, v} is
// copied to {n+u, n+v}. The predicate reads the first copy.
func twinned(mds *mdslb.Family) *lbfamily.DerivedFamily {
	return &lbfamily.DerivedFamily{
		Inner:      mds,
		FamilyName: "mds-twinned",
		Transform: func(g *graph.Graph, side []bool) (*graph.Graph, []bool, error) {
			n := g.N()
			out := graph.New(2 * n)
			for _, e := range g.Edges() {
				out.MustAddWeightedEdge(e.U, e.V, e.Weight)
				out.MustAddWeightedEdge(n+e.U, n+e.V, e.Weight)
			}
			for v := 0; v < n; v++ {
				out.MustAddEdge(v, n+v)
			}
			return out, append(append([]bool(nil), side...), side...), nil
		},
		Pred: func(g *graph.Graph) (bool, error) {
			first, _ := g.InducedSubgraph(func(v int) bool { return v < g.N()/2 })
			return mds.Predicate(first)
		},
	}
}

// squared derives from mds the family of squared instances. Squaring is
// not local: two input edges at a common vertex add a distance-2 edge
// that each alone does not, so the bits' changes do not compose.
func squared(mds *mdslb.Family) *lbfamily.DerivedFamily {
	return &lbfamily.DerivedFamily{
		Inner:      mds,
		FamilyName: "mds-squared",
		Transform: func(g *graph.Graph, side []bool) (*graph.Graph, []bool, error) {
			return g.Power(2), side, nil
		},
		Pred: mds.Predicate,
	}
}

// TestDeltaMatchesRebuildPairForPair is the differential contract of the
// incremental verifier: for every opted-in family, the Gray-code delta
// walk and the rebuild-from-scratch path must agree on every pair's
// structural hashes and predicate verdict.
func TestDeltaMatchesRebuildPairForPair(t *testing.T) {
	for _, fam := range deltaFamilies(t) {
		fam := fam
		t.Run(fam.Name(), func(t *testing.T) {
			if testing.Short() && (fam.Name() == "apx-maxis" || fam.Name() == "apx-maxis-unweighted") {
				t.Skip("the MaxIS differential passes are slow")
			}
			if _, ok := fam.(lbfamily.DeltaFamily); !ok {
				t.Fatal("family does not implement DeltaFamily")
			}
			xs := allInputs(t, fam.K())
			got, usedDelta, err := lbfamily.CollectOutcomesForTest(fam, xs, xs, false)
			if err != nil {
				t.Fatal(err)
			}
			if !usedDelta {
				t.Fatal("delta path fell back to rebuild")
			}
			want, usedDelta, err := lbfamily.CollectOutcomesForTest(fam, xs, xs, true)
			if err != nil {
				t.Fatal(err)
			}
			if usedDelta {
				t.Fatal("forced rebuild still used the delta path")
			}
			for i := range want {
				x, y := xs[i/len(xs)], xs[i%len(xs)]
				g, w := got[i], want[i]
				if g.BuildErr != nil || w.BuildErr != nil || g.PredErr != nil || w.PredErr != nil {
					t.Fatalf("(%s,%s): unexpected errors %v %v %v %v", x, y, g.BuildErr, w.BuildErr, g.PredErr, w.PredErr)
				}
				if g.N != w.N {
					t.Fatalf("(%s,%s): n = %d, rebuild %d", x, y, g.N, w.N)
				}
				if g.CutHash != w.CutHash || g.AHash != w.AHash || g.BHash != w.BHash {
					t.Fatalf("(%s,%s): hashes diverge: delta (%x,%x,%x) rebuild (%x,%x,%x)",
						x, y, g.CutHash, g.AHash, g.BHash, w.CutHash, w.AHash, w.BHash)
				}
				if g.Got != w.Got {
					t.Fatalf("(%s,%s): predicate verdict %v, rebuild %v", x, y, g.Got, w.Got)
				}
			}
		})
	}
}

// condition4Broken deliberately breaks Definition 1.1 condition 4 by
// claiming the family reduces from DISJ instead of ¬DISJ, while keeping
// the delta surface (BuildBase/ApplyBit, promoted from the embedded
// family) perfectly consistent with Build.
type condition4Broken struct {
	*mdslb.Family
}

func (condition4Broken) Func() comm.Function { return comm.Disjointness{} }

// toyDelta is a K=1 family with an optional deliberate condition-2 break
// that Build and ApplyBit implement consistently: vertices 0,1 are
// Alice's, 2,3,4 Bob's; {1,2} is the fixed cut edge; x toggles {0,1}, y
// toggles {2,3}, and with breakB set x also toggles Bob's edge {3,4}.
// With inconsistentApply set, ApplyBit silently drops Alice's toggle —
// a broken delta surface that Verify's consistency gate must detect.
type toyDelta struct {
	breakB            bool
	inconsistentApply bool
}

func (d *toyDelta) Name() string        { return "toy-delta" }
func (d *toyDelta) K() int              { return 1 }
func (d *toyDelta) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }
func (d *toyDelta) AliceSide() []bool   { return []bool{true, true, false, false, false} }

func (d *toyDelta) Build(x, y comm.Bits) (*graph.Graph, error) {
	g := graph.New(5)
	g.MustAddEdge(1, 2)
	if x.Get(0) {
		g.MustAddEdge(0, 1)
		if d.breakB {
			g.MustAddEdge(3, 4)
		}
	}
	if y.Get(0) {
		g.MustAddEdge(2, 3)
	}
	return g, nil
}

func (d *toyDelta) BuildBase() (*graph.Graph, error) {
	return d.Build(comm.NewBits(1), comm.NewBits(1))
}

func (d *toyDelta) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	if bit != 0 {
		return fmt.Errorf("bit %d out of range", bit)
	}
	if player == lbfamily.PlayerX {
		if d.inconsistentApply {
			return nil // deliberately diverges from Build
		}
		if _, err := g.ToggleEdge(0, 1, 1); err != nil {
			return err
		}
		if d.breakB {
			if _, err := g.ToggleEdge(3, 4, 1); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := g.ToggleEdge(2, 3, 1)
	return err
}

func (d *toyDelta) Predicate(g *graph.Graph) (bool, error) {
	return g.HasEdge(0, 1) && g.HasEdge(2, 3), nil
}

var _ lbfamily.DeltaFamily = (*toyDelta)(nil)

// TestDeltaFirstErrorMatchesRebuild asserts that on deliberately broken
// families the delta path reports the byte-identical first (row-major)
// error the rebuild path reports.
func TestDeltaFirstErrorMatchesRebuild(t *testing.T) {
	mds, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fam  lbfamily.Family
		want string // substring naming the violated condition
	}{
		{name: "condition4", fam: condition4Broken{mds}, want: "condition 4"},
		{name: "condition2", fam: &toyDelta{breakB: true}, want: "condition 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deltaErr := lbfamily.Verify(tc.fam)
			rebuildErr := lbfamily.VerifyRebuild(tc.fam)
			if deltaErr == nil || rebuildErr == nil {
				t.Fatalf("broken family accepted: delta=%v rebuild=%v", deltaErr, rebuildErr)
			}
			if deltaErr.Error() != rebuildErr.Error() {
				t.Fatalf("first errors differ:\n delta:   %s\n rebuild: %s", deltaErr, rebuildErr)
			}
			if got := deltaErr.Error(); !strings.Contains(got, tc.want) {
				t.Fatalf("error %q does not mention %q", got, tc.want)
			}
		})
	}
	// The unbroken toy delta family must verify cleanly on both paths.
	if err := lbfamily.Verify(&toyDelta{}); err != nil {
		t.Fatalf("correct toy delta family rejected: %v", err)
	}
	if err := lbfamily.VerifyRebuild(&toyDelta{}); err != nil {
		t.Fatalf("correct toy delta family rejected by rebuild path: %v", err)
	}
}

// TestInconsistentApplyBitFallsBack: a family whose ApplyBit disagrees
// with Build must not be verified through the delta path — the
// consistency gate detects the divergence and verification transparently
// falls back to rebuilding every pair (where Build, being correct, passes).
func TestInconsistentApplyBitFallsBack(t *testing.T) {
	fam := &toyDelta{inconsistentApply: true}
	xs := allInputs(t, fam.K())
	if _, usedDelta, err := lbfamily.CollectOutcomesForTest(fam, xs, xs, false); err != nil {
		t.Fatal(err)
	} else if usedDelta {
		t.Fatal("inconsistent delta surface was not detected")
	}
	if err := lbfamily.Verify(fam); err != nil {
		t.Fatalf("fallback verification rejected a correct Build: %v", err)
	}
	// The consistent surface must keep the delta path.
	if _, usedDelta, err := lbfamily.CollectOutcomesForTest(&toyDelta{}, xs, xs, false); err != nil {
		t.Fatal(err)
	} else if !usedDelta {
		t.Fatal("consistent delta surface fell back")
	}
}

// verifyAllocsPin bounds one exhaustive Verify's total allocations at
// about 1.25x the count measured at GOMAXPROCS 1 (testing.AllocsPerRun
// pins it, so the count is deterministic), but never more than 200
// above it: one allocation per pair — an escaping closure in the sweep
// loop — adds 256 at k = 2 and must trip every pin.
func verifyAllocsPin(measured int) float64 {
	return float64(min(measured*5/4, measured+200))
}

// TestDeltaVerifyAllocsPerPair is the allocation regression guard in the
// spirit of congest's TestRunSteadyStateDoesNotAllocate: delta-enabled
// exhaustive verification pays per-worker setup (base build, oracle
// arena) and an allocation-free walk, so each family's total is pinned
// near its measured count; per-pair rebuilds cost ~190 allocs/pair.
func TestDeltaVerifyAllocsPerPair(t *testing.T) {
	for _, tc := range []struct {
		measured int
		newFam   func() (lbfamily.Family, error)
	}{
		{370, func() (lbfamily.Family, error) { return mdslb.New(2) }},
		{374, func() (lbfamily.Family, error) { return maxcutlb.New(2) }},
		{812, func() (lbfamily.Family, error) { return steinerlb.New(2) }},
		{1152, func() (lbfamily.Family, error) {
			c, err := cover.Find(4, 12, 2, 7, 500)
			if err != nil {
				return nil, err
			}
			return kmdslb.NewTwoMDS(kmdslb.Params{Collection: c, R: 2})
		}},
		{1500, func() (lbfamily.Family, error) { return boundedlb.NewFamily(2, 3) }},
	} {
		fam, err := tc.newFam()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := lbfamily.Verify(fam); err != nil {
				t.Fatal(err)
			}
		})
		if pin := verifyAllocsPin(tc.measured); allocs > pin {
			t.Errorf("%s: %.0f allocs per exhaustive Verify, want <= %.0f (measured %d)",
				fam.Name(), allocs, pin, tc.measured)
		}
	}
}
