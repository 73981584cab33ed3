package lbfamily_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// digraphDeltaFamilies returns every in-repo directed family at k = 2.
func digraphDeltaFamilies(t testing.TB) []lbfamily.DigraphFamily {
	t.Helper()
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := hamlb.NewCycle(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := kmdslb.NewDirSteiner(kmdslb.Params{Collection: c, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	return []lbfamily.DigraphFamily{ham, cycle, dir}
}

// TestDigraphDeltaMatchesRebuildPairForPair is the differential contract
// of the directed incremental verifier: for every opted-in directed
// family, the Gray-code delta walk and the rebuild-from-scratch path must
// agree on every pair's structural hashes and predicate verdict.
func TestDigraphDeltaMatchesRebuildPairForPair(t *testing.T) {
	for _, fam := range digraphDeltaFamilies(t) {
		fam := fam
		t.Run(fam.Name(), func(t *testing.T) {
			if _, ok := fam.(lbfamily.DeltaDigraphFamily); !ok {
				t.Fatal("family does not implement DeltaDigraphFamily")
			}
			xs := allInputs(t, fam.K())
			got, usedDelta, err := lbfamily.CollectDigraphOutcomesForTest(fam, xs, xs, false)
			if err != nil {
				t.Fatal(err)
			}
			if !usedDelta {
				t.Fatal("delta path fell back to rebuild")
			}
			want, usedDelta, err := lbfamily.CollectDigraphOutcomesForTest(fam, xs, xs, true)
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

// condition4BrokenDigraph claims the Hamiltonian path family reduces from
// DISJ instead of ¬DISJ while keeping the delta surface (promoted from
// the embedded family) perfectly consistent with Build.
type condition4BrokenDigraph struct {
	*hamlb.Family
}

func (condition4BrokenDigraph) Func() comm.Function { return comm.Disjointness{} }

// toyDigraphDelta is a K=1 directed family with an optional deliberate
// condition-2 break that Build and ApplyBit implement consistently:
// vertices 0,1 are Alice's, 2,3,4 Bob's; (1,2) is the fixed cut arc; x
// toggles (0,1), y toggles (2,3), and with breakB set x also toggles
// Bob's arc (3,4). With inconsistentApply set, ApplyBit silently drops
// Alice's toggle — a broken delta surface the consistency gate must detect.
type toyDigraphDelta struct {
	breakB            bool
	inconsistentApply bool
}

func (d *toyDigraphDelta) Name() string        { return "toy-digraph-delta" }
func (d *toyDigraphDelta) K() int              { return 1 }
func (d *toyDigraphDelta) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }
func (d *toyDigraphDelta) AliceSide() []bool   { return []bool{true, true, false, false, false} }

func (d *toyDigraphDelta) Build(x, y comm.Bits) (*graph.Digraph, error) {
	g := graph.NewDigraph(5)
	g.MustAddArc(1, 2)
	if x.Get(0) {
		g.MustAddArc(0, 1)
		if d.breakB {
			g.MustAddArc(3, 4)
		}
	}
	if y.Get(0) {
		g.MustAddArc(2, 3)
	}
	return g, nil
}

func (d *toyDigraphDelta) BuildBase() (*graph.Digraph, error) {
	return d.Build(comm.NewBits(1), comm.NewBits(1))
}

func (d *toyDigraphDelta) ApplyBit(g *graph.Digraph, player, bit int, val bool) error {
	if bit != 0 {
		return fmt.Errorf("bit %d out of range", bit)
	}
	if player == lbfamily.PlayerX {
		if d.inconsistentApply {
			return nil // deliberately diverges from Build
		}
		if _, err := g.ToggleArc(0, 1, 1); err != nil {
			return err
		}
		if d.breakB {
			if _, err := g.ToggleArc(3, 4, 1); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := g.ToggleArc(2, 3, 1)
	return err
}

func (d *toyDigraphDelta) Predicate(g *graph.Digraph) (bool, error) {
	return g.HasArc(0, 1) && g.HasArc(2, 3), nil
}

var _ lbfamily.DeltaDigraphFamily = (*toyDigraphDelta)(nil)

// TestDigraphDeltaFirstErrorMatchesRebuild asserts that on deliberately
// broken directed families the delta path reports the byte-identical
// first (row-major) error the rebuild path reports.
func TestDigraphDeltaFirstErrorMatchesRebuild(t *testing.T) {
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fam  lbfamily.DigraphFamily
		want string // substring naming the violated condition
	}{
		{name: "condition4", fam: condition4BrokenDigraph{ham}, want: "condition 4"},
		{name: "condition2", fam: &toyDigraphDelta{breakB: true}, want: "condition 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deltaErr := lbfamily.VerifyDigraph(tc.fam)
			rebuildErr := lbfamily.VerifyDigraphRebuild(tc.fam)
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
	// The unbroken toy family must verify cleanly on both paths.
	if err := lbfamily.VerifyDigraph(&toyDigraphDelta{}); err != nil {
		t.Fatalf("correct toy digraph delta family rejected: %v", err)
	}
	if err := lbfamily.VerifyDigraphRebuild(&toyDigraphDelta{}); err != nil {
		t.Fatalf("correct toy digraph delta family rejected by rebuild path: %v", err)
	}
}

// TestInconsistentDigraphApplyBitFallsBack: a directed family whose
// ApplyBit disagrees with Build must not be verified through the delta
// path — the consistency gate detects the divergence and verification
// transparently falls back to rebuilding every pair.
func TestInconsistentDigraphApplyBitFallsBack(t *testing.T) {
	fam := &toyDigraphDelta{inconsistentApply: true}
	xs := allInputs(t, fam.K())
	if _, usedDelta, err := lbfamily.CollectDigraphOutcomesForTest(fam, xs, xs, false); err != nil {
		t.Fatal(err)
	} else if usedDelta {
		t.Fatal("inconsistent delta surface was not detected")
	}
	if err := lbfamily.VerifyDigraph(fam); err != nil {
		t.Fatalf("fallback verification rejected a correct Build: %v", err)
	}
	// The consistent surface must keep the delta path.
	if _, usedDelta, err := lbfamily.CollectDigraphOutcomesForTest(&toyDigraphDelta{}, xs, xs, false); err != nil {
		t.Fatal(err)
	} else if !usedDelta {
		t.Fatal("consistent delta surface fell back")
	}
}

// TestVerifySampledDigraph covers the sampled path (dedup included) on
// correct and broken directed families.
func TestVerifySampledDigraph(t *testing.T) {
	ham, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := lbfamily.VerifySampledDigraph(ham, rand.New(rand.NewSource(1)), 12); err != nil {
		t.Fatal(err)
	}
	broken := condition4BrokenDigraph{ham}
	if err := lbfamily.VerifySampledDigraph(broken, rand.New(rand.NewSource(1)), 12); err == nil {
		t.Fatal("sampled verification accepted a condition-4 break")
	}
}

// TestDigraphDeltaVerifyAllocsPerPair is the directed analogue of
// TestDeltaVerifyAllocsPerPair: each directed family's exhaustive
// Verify is pinned near its measured allocation count.
func TestDigraphDeltaVerifyAllocsPerPair(t *testing.T) {
	for _, tc := range []struct {
		measured int
		newFam   func() (lbfamily.DigraphFamily, error)
	}{
		{710, func() (lbfamily.DigraphFamily, error) { return hamlb.New(2) }},
		{689, func() (lbfamily.DigraphFamily, error) {
			c, err := cover.Find(4, 12, 2, 7, 500)
			if err != nil {
				return nil, err
			}
			return kmdslb.NewDirSteiner(kmdslb.Params{Collection: c, R: 2})
		}},
	} {
		fam, err := tc.newFam()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := lbfamily.VerifyDigraph(fam); err != nil {
				t.Fatal(err)
			}
		})
		if pin := verifyAllocsPin(tc.measured); allocs > pin {
			t.Errorf("%s: %.0f allocs per exhaustive Verify, want <= %.0f (measured %d)",
				fam.Name(), allocs, pin, tc.measured)
		}
	}
}

// growingDigraph is a K=1 directed family that breaks Definition 1.1
// condition 1: y = 1 adds a sixth vertex. With sideErr set it instead
// fails to report its Alice side through AliceSideChecked.
type growingDigraph struct{ sideErr error }

func (g *growingDigraph) Name() string        { return "growing" }
func (g *growingDigraph) K() int              { return 1 }
func (g *growingDigraph) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }
func (g *growingDigraph) AliceSide() []bool   { return []bool{true, true, false, false, false} }

func (g *growingDigraph) AliceSideChecked() ([]bool, error) { return g.AliceSide(), g.sideErr }

func (g *growingDigraph) Build(x, y comm.Bits) (*graph.Digraph, error) {
	n := 5
	if y.Get(0) {
		n = 6
	}
	d := graph.NewDigraph(n)
	d.MustAddArc(1, 2)
	if x.Get(0) {
		d.MustAddArc(0, 1)
	}
	return d, nil
}

func (g *growingDigraph) Predicate(d *graph.Digraph) (bool, error) {
	return d.HasArc(0, 1) && d.N() == 6, nil
}

// TestVerifyDigraphConditionOneNamesPair: the directed verifier reports
// a vertex count that changes with the input exactly like the
// undirected one, naming the first offending pair, and resolves the
// Alice side through AliceSideChecked.
func TestVerifyDigraphConditionOneNamesPair(t *testing.T) {
	err := lbfamily.VerifyDigraph(&growingDigraph{})
	if want := "condition 1 violated: vertex count 6 != 5 at (0,1)"; err == nil || err.Error() != want {
		t.Fatalf("VerifyDigraph = %v, want %q", err, want)
	}
	if err := lbfamily.VerifySampledDigraph(&growingDigraph{}, rand.New(rand.NewSource(1)), 4); err == nil ||
		!strings.Contains(err.Error(), "condition 1 violated") {
		t.Fatalf("VerifySampledDigraph = %v, want a condition 1 violation", err)
	}
	sideErr := errors.New("no partition")
	err = lbfamily.VerifyDigraph(&growingDigraph{sideErr: sideErr})
	if !errors.Is(err, sideErr) || !strings.HasPrefix(err.Error(), "alice side: ") {
		t.Fatalf("VerifyDigraph = %v, want the AliceSideChecked error", err)
	}
}
