package lbfamily_test

import (
	"math/bits"
	"runtime"
	"testing"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// TestCubeWalkColumns checks every column of the exhaustive walk for
// k = 1..8: it visits each x once, every step toggles one bit, and it
// starts at x = ȳ.
func TestCubeWalkColumns(t *testing.T) {
	for k := 1; k <= 8; k++ {
		size := 1 << k
		for c := 0; c < size; c++ {
			seen := make([]bool, size)
			prev := -1
			for r := 0; r < size; r++ {
				x := lbfamily.CubeWalk(k, c, r)
				if x < 0 || x >= size || seen[x] {
					t.Fatalf("k=%d column %d step %d: x=%d repeats or leaves the cube", k, c, r, x)
				}
				seen[x] = true
				if r == 0 && x != c^(size-1) {
					t.Fatalf("k=%d column %d starts at x=%d, want ȳ=%d", k, c, x, c^(size-1))
				}
				if r > 0 && bits.OnesCount(uint(x^prev)) != 1 {
					t.Fatalf("k=%d column %d step %d: %d -> %d toggles %d bits", k, c, r, prev, x, bits.OnesCount(uint(x^prev)))
				}
				prev = x
			}
		}
	}
}

// plantedFamily is a K = 2 delta family with two planted condition-4
// errors. Alice owns vertices 0-2 and Bob 3-5, {0,3} is the fixed cut
// edge, x_i adds Alice's edge {0, 1+i} and y_i Bob's edge {3, 4+i}. The
// predicate reads x and y back from the edges and answers ¬DISJ, except
// at (x=1, y=0) and (x=3, y=0), where it is wrong. Column y = 0 visits
// x = 3 first and x = 1 last, so the walk meets the later error of the
// row-major order first.
type plantedFamily struct{ delta *lbfamily.Delta[*graph.Graph] }

func newPlantedFamily() *plantedFamily {
	f := &plantedFamily{}
	f.delta = lbfamily.NewDelta(f)
	return f
}

func (f *plantedFamily) Name() string        { return "planted" }
func (f *plantedFamily) K() int              { return 2 }
func (f *plantedFamily) Func() comm.Function { return comm.Negation{F: comm.Disjointness{}} }
func (f *plantedFamily) AliceSide() []bool {
	return []bool{true, true, true, false, false, false}
}

func (f *plantedFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	g := graph.New(6)
	g.MustAddEdge(0, 3)
	for i := 0; i < 2; i++ {
		if x.Get(i) {
			g.MustAddEdge(0, 1+i)
		}
		if y.Get(i) {
			g.MustAddEdge(3, 4+i)
		}
	}
	return g, nil
}

func (f *plantedFamily) Predicate(g *graph.Graph) (bool, error) {
	var x, y int
	for i := 0; i < 2; i++ {
		if g.HasEdge(0, 1+i) {
			x |= 1 << i
		}
		if g.HasEdge(3, 4+i) {
			y |= 1 << i
		}
	}
	planted := y == 0 && (x == 1 || x == 3)
	return (x&y != 0) != planted, nil
}

func (f *plantedFamily) BuildBase() (*graph.Graph, error) { return f.delta.BuildBase() }

func (f *plantedFamily) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	return f.delta.ApplyBit(g, player, bit, val)
}

// TestVerifyReportsRowMajorFirstErrorOnCubeWalk checks that the walk order
// does not leak into the report: on the delta path and the rebuild path,
// with one worker and with GOMAXPROCS workers, Verify blames (x=1, y=0),
// the planted error that comes first in row-major order, although the
// walk meets (x=3, y=0) first.
func TestVerifyReportsRowMajorFirstErrorOnCubeWalk(t *testing.T) {
	fam := newPlantedFamily()
	xs := allInputs(t, fam.K())
	if _, usedDelta, err := lbfamily.CollectOutcomesForTest(fam, xs, xs, false); err != nil || !usedDelta {
		t.Fatalf("planted family left the delta path (err %v)", err)
	}
	x1, _ := comm.BitsFromUint64(2, 1)
	y0 := comm.NewBits(2)
	want := "condition 4 violated at (x=" + x1.String() + ", y=" + y0.String() + "): P=true but " + fam.Func().Name() + "=false"
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, workers := range []int{1, procs} {
		runtime.GOMAXPROCS(workers)
		for _, path := range []struct {
			name   string
			verify func(lbfamily.Family) error
		}{{"delta", lbfamily.Verify}, {"rebuild", lbfamily.VerifyRebuild}} {
			if err := path.verify(fam); err == nil || err.Error() != want {
				t.Errorf("%s path, %d workers: %v, want %q", path.name, workers, err, want)
			}
		}
	}
}
