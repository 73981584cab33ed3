package lbfamily

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
)

// Instance is what the sweeps and the derived delta read of a graph
// kind's instances; *graph.Graph and *graph.Digraph implement it.
type Instance[G any] interface {
	N() int
	VertexWeight(v int) int64
	Clone() G
	CutHash(side []bool) uint64
	HashWithin(within []bool) uint64
	Freeze() *graph.CSR
	StartJournal()
	Journal() []graph.EdgeDelta
	VertexJournal() []graph.VertexDelta
	ClearJournal()
}

// family is the part of Family and DigraphFamily that verification
// reads, for graph kind G.
type family[G any] interface {
	K() int
	Func() comm.Function
	Build(x, y comm.Bits) (G, error)
	AliceSide() []bool
	Predicate(g G) (bool, error)
}

// kind is what verification and the derived delta need to know about a
// graph kind beyond Instance.
type kind[G any] struct {
	// noun names the cut's members in messages: "edges" or "arcs".
	noun string
	// hash is the structural hash of one edge or arc (see fold).
	hash func(u, v int, w int64) uint64
	// oracle returns a fresh reusable predicate evaluator of fam, or nil
	// if fam has none.
	oracle func(fam any) func(G) (bool, error)

	// The delta primitives. adj lists u's edges (both ends list an edge
	// unless directed) or out-arcs; weight reads an element's weight;
	// toggle flips its presence and reports whether it is present after.
	directed        bool
	adj             func(g G, u int) []graph.Half
	weight          func(g G, u, v int) (int64, bool)
	toggle          func(g G, u, v int, w int64) (bool, error)
	setWeight       func(g G, u, v int, w int64) error
	setVertexWeight func(g G, v int, w int64) error
}

// sideHashes are the structural hashes Definition 1.1 conditions 1-3
// compare: the cut's and the two induced sides'.
type sideHashes struct{ cut, a, b uint64 }

// toggle folds one edge, arc or vertex hash in or out: an item with one
// end on each side belongs to the cut, otherwise to its side.
func (h *sideHashes) toggle(uAlice, vAlice bool, hash uint64) {
	switch {
	case uAlice != vAlice:
		h.cut ^= hash
	case uAlice:
		h.a ^= hash
	default:
		h.b ^= hash
	}
}

// fold folds g's mutation journal into h, hashing each edge or arc delta
// with hash, and clears it.
func fold[G Instance[G]](g G, side []bool, h *sideHashes, hash func(u, v int, w int64) uint64) {
	for _, d := range g.Journal() {
		h.toggle(side[d.U], side[d.V], hash(d.U, d.V, d.W))
	}
	// Vertex weights enter the induced-side hashes only.
	for _, d := range g.VertexJournal() {
		h.toggle(side[d.V], side[d.V], graph.VertexHash(d.V, d.W))
	}
	g.ClearJournal()
}

func hashesOf[G Instance[G]](g G, side, bobSide []bool) sideHashes {
	return sideHashes{cut: g.CutHash(side), a: g.HashWithin(side), b: g.HashWithin(bobSide)}
}

// bobSideOf returns the complement of Alice's side.
func bobSideOf(side []bool) []bool {
	bob := make([]bool, len(side))
	for i, a := range side {
		bob[i] = !a
	}
	return bob
}

// AliceSideOf returns fam's Alice side, through AliceSideChecked when
// fam has it, so a family that must build an instance to learn its
// partition (DerivedFamily) surfaces the build error.
func AliceSideOf(fam interface{ AliceSide() []bool }) ([]bool, error) {
	if checked, ok := fam.(interface{ AliceSideChecked() ([]bool, error) }); ok {
		return checked.AliceSideChecked()
	}
	return fam.AliceSide(), nil
}

// exhaustiveInputs lists all 2^k inputs in integer order; sampled names
// the sampled verifier to point to beyond K = 12.
func exhaustiveInputs(k int, sampled string) ([]comm.Bits, error) {
	if k > 12 {
		return nil, fmt.Errorf("exhaustive verification limited to K <= 12, got %d (use %s)", k, sampled)
	}
	inputs := make([]comm.Bits, 0, 1<<uint(k))
	err := comm.AllBits(k, func(b comm.Bits) { inputs = append(inputs, b.Clone()) })
	return inputs, err
}

// sampledInputs draws the shared sampled-verification input set: the
// all-zeros and all-ones corners plus up to trials distinct random k-bit
// strings (duplicates are discarded — re-running an identical input adds
// no coverage). Both the undirected and directed sampled verifiers use it.
func sampledInputs(k int, rng *rand.Rand, trials int) []comm.Bits {
	ones := comm.OnesBits(k)
	inputs := []comm.Bits{comm.NewBits(k), ones}
	seen := map[string]bool{inputs[0].String(): true, ones.String(): true}
	for i := 0; i < trials; i++ {
		b := comm.RandomBits(k, rng)
		if key := b.String(); !seen[key] {
			seen[key] = true
			inputs = append(inputs, b)
		}
	}
	return inputs
}

// pairOutcome is one (x, y) pair's phase-1 result: the vertex count, the
// structural hashes and the predicate's verdict or error. Build errors
// and panics are not stored: the sweep reports only the earliest, which
// is the only one the scan can reach.
type pairOutcome struct {
	n       int
	h       sideHashes
	got     bool
	predErr error
}

// errPairFailed marks a pair whose failure lives in its pairOutcome.
var errPairFailed = errors.New("pair failed")

// verify checks Definition 1.1 over xs × ys: phase 1 computes every
// pair's outcome through the sweep engine, phase 2 scans them serially.
func verify[G Instance[G]](ctx context.Context, fam family[G], kd kind[G], xs, ys []comm.Bits, rebuild bool) error {
	side, err := AliceSideOf(fam)
	if err != nil {
		return fmt.Errorf("alice side: %w", err)
	}
	total := len(xs) * len(ys)
	if total == 0 {
		return nil
	}
	outcomes, res, _ := verifyPairs(ctx, fam, kd, side, xs, ys, rebuild)
	if err := ctx.Err(); err != nil && res.Visited < total {
		return &CancelledError{Completed: res.Visited, Total: total, Err: err}
	}
	return scanOutcomes(fam.Func(), kd.noun, side, xs, ys, outcomes, res)
}

// verifyPairs is verification phase 1. Each column is one y, walked over
// x in the order columnWalk picks. Families whose delta
// passes the consistency gate (GatedDelta) are walked delta-driven,
// folding each instance's journal into running hashes; when that walk
// breaks, every pair is rebuilt instead, since a broken worker leaves
// pairs unvisited anywhere in row-major order. It reports whether the
// delta walk produced the outcomes; a cancelled walk is kept as is.
func verifyPairs[G Instance[G]](ctx context.Context, fam family[G], kd kind[G], side []bool, xs, ys []comm.Bits, rebuild bool) ([]pairOutcome, SweepResult, bool) {
	bobSide := bobSideOf(side)
	outcomes := make([]pairOutcome, len(xs)*len(ys))
	walk := columnWalk(xs, fam.K())
	type worker struct {
		h     sideHashes
		eval  func(G) (bool, error)
		ready bool // h tracks the worker's delta instance
	}
	workers := make([]worker, SweepWorkers(0, len(ys)))
	var df DeltaSource[G]
	if !rebuild {
		df = GatedDelta(fam, side)
	}
	delta := df != nil
	sw := Sweep[G]{
		Cols: len(ys), Rows: len(xs), Workers: len(workers),
		Pair: func(c, r int) (comm.Bits, comm.Bits, int) {
			xi := walk(c, r)
			return xs[xi], ys[c], xi*len(ys) + c
		},
		Build: func(x, y comm.Bits) (G, error) {
			g, err := fam.Build(x, y)
			if err != nil {
				err = fmt.Errorf("build(%s,%s): %w", x, y, err)
			}
			return g, err
		},
		Visit: func(w, key int, g G, x, y comm.Bits) error {
			out := &outcomes[key]
			if out.n = g.N(); out.n != len(side) {
				return errPairFailed // condition 1, reported by the scan
			}
			if delta {
				wk := &workers[w]
				if wk.ready {
					wk.ready = false // a panic mid-fold forces a rehash
					fold(g, side, &wk.h, kd.hash)
				} else {
					g.Freeze()
					g.StartJournal()
					wk.h = hashesOf(g, side, bobSide)
					if wk.eval = kd.oracle(fam); wk.eval == nil {
						wk.eval = fam.Predicate
					}
				}
				wk.ready = true
				out.h = wk.h
				out.got, out.predErr = wk.eval(g)
			} else {
				out.h = hashesOf(g, side, bobSide)
				out.got, out.predErr = fam.Predicate(g)
			}
			if out.predErr != nil {
				return errPairFailed
			}
			return nil
		},
	}
	if delta {
		sw.Delta = df
		if res := sw.Run(ctx); !res.Broken {
			return outcomes, res, true
		}
		clear(outcomes)
		sw.Delta, delta = nil, false
	}
	return outcomes, sw.Run(ctx), false
}

// columnWalk returns the xs index that column c visits at step r: CubeWalk
// when xs is the canonical AllBits enumeration (xs[i] encodes the integer
// i; every exhaustive caller passes the same inputs as ys), so that
// consecutive visits differ in one bit. Otherwise (sampled verification)
// the sample order is kept and each step toggles the Hamming distance
// between consecutive samples. The report does not depend on the order:
// outcomes are keyed by (x, y).
func columnWalk(xs []comm.Bits, k int) func(c, r int) int {
	if k > 24 || len(xs) != 1<<uint(k) || !canonicalCube(xs, k) {
		return func(_, r int) int { return r }
	}
	return func(c, r int) int { return CubeWalk(k, c, r) }
}

// CubeWalk returns the x that column y = c of an exhaustive sweep over the
// k-bit cube visits at step r: the reflected Gray code of r XORed with
// ȳ = c XOR (2^k − 1). So each column starts at x = ȳ, the largest x
// disjoint from y, and every step toggles one bit of x. For a ¬DISJ
// predicate the column's NO instances are the x ⊆ ȳ. In the paper's
// families each of them is dominated by the first, so a decision oracle
// that carries its last NO instance (solver's decide) searches one NO
// instance per column.
//
//hardness:hotpath
func CubeWalk(k, c, r int) int {
	return r ^ r>>1 ^ c ^ (1<<k - 1)
}

// canonicalCube reports whether xs[i] encodes the integer i for all i.
func canonicalCube(xs []comm.Bits, k int) bool {
	for i, x := range xs {
		if x.Len() != k {
			return false
		}
		for j := 0; j < k; j++ {
			if x.Get(j) != (i>>j&1 == 1) {
				return false
			}
		}
	}
	return true
}

// scanOutcomes is verification phase 2: the serial row-major scan that
// reports the first violated condition, in the historical order and
// wording. A build error or panic at the sweep's earliest failure is
// returned as is when the scan reaches that pair.
func scanOutcomes(f comm.Function, noun string, side []bool, xs, ys []comm.Bits, outcomes []pairOutcome, res SweepResult) error {
	first := outcomes[0]
	bByY := make([]uint64, len(ys))
	for xi, x := range xs {
		var aRow uint64
		for yi, y := range ys {
			key := xi*len(ys) + yi
			if key == res.First && !errors.Is(res.Err, errPairFailed) {
				return res.Err
			}
			out := &outcomes[key]
			if key == 0 && len(side) != out.n {
				return fmt.Errorf("AliceSide has %d entries for %d vertices", len(side), out.n)
			}
			if out.n != first.n {
				return fmt.Errorf("condition 1 violated: vertex count %d != %d at (%s,%s)", out.n, first.n, x, y)
			}
			if out.h.cut != first.h.cut {
				return fmt.Errorf("cut %s changed with input at (%s,%s)", noun, x, y)
			}
			if xi > 0 && bByY[yi] != out.h.b {
				return fmt.Errorf("condition 2 violated: G[V_B] changed with x at (%s,%s)", x, y)
			}
			bByY[yi] = out.h.b
			if yi > 0 && aRow != out.h.a {
				return fmt.Errorf("condition 3 violated: G[V_A] changed with y at (%s,%s)", x, y)
			}
			aRow = out.h.a
			if out.predErr != nil {
				return fmt.Errorf("predicate at (%s,%s): %w", x, y, out.predErr)
			}
			if want := f.Eval(x, y); out.got != want {
				return fmt.Errorf("condition 4 violated at (x=%s, y=%s): P=%v but %s=%v", x, y, out.got, f.Name(), want)
			}
		}
	}
	return nil
}

// edgeKind is the undirected graph kind.
var edgeKind = kind[*graph.Graph]{
	noun: "edges",
	hash: graph.EdgeHash,
	oracle: func(fam any) func(*graph.Graph) (bool, error) {
		if of, ok := fam.(OracleFamily); ok {
			return of.NewPredicateOracle().Eval
		}
		return nil
	},
	adj:             (*graph.Graph).Neighbors,
	weight:          (*graph.Graph).EdgeWeight,
	toggle:          (*graph.Graph).ToggleEdge,
	setWeight:       (*graph.Graph).SetEdgeWeight,
	setVertexWeight: (*graph.Graph).SetVertexWeight,
}

// arcKind is the directed graph kind.
var arcKind = kind[*graph.Digraph]{
	noun: "arcs",
	hash: graph.ArcHash,
	oracle: func(fam any) func(*graph.Digraph) (bool, error) {
		if of, ok := fam.(DigraphOracleFamily); ok {
			return of.NewDigraphPredicateOracle().Eval
		}
		return nil
	},
	directed: true,
	adj:      (*graph.Digraph).OutNeighbors,
	weight:   (*graph.Digraph).ArcWeight,
	toggle:   (*graph.Digraph).ToggleArc,
	// The arc journal records presence only, so a directed family whose
	// input changes weights has no delta.
	setWeight:       func(*graph.Digraph, int, int, int64) error { return errArcWeights },
	setVertexWeight: func(*graph.Digraph, int, int64) error { return errArcWeights },
}

var errArcWeights = errors.New("the input changes weights, which the digraph journal does not record")
