// Package lbfamily implements the paper's central abstraction, the family
// of lower bound graphs (Definition 1.1), and makes Theorem 1.1 executable:
//
//   - A Family builds the graph G_{x,y} for any input pair and exposes the
//     fixed Alice/Bob vertex partition and the predicate P.
//   - Verify checks conditions 1-4 of Definition 1.1 exhaustively (all
//     2^K x 2^K input pairs) using an exact solver as the predicate oracle;
//     VerifySampled spot-checks larger parameters.
//   - Every in-repo family is a fixed skeleton plus O(1) edges per input
//     bit and implements DeltaFamily by embedding a Delta, which derives
//     each bit's change list from Build. The sweeps then walk the input
//     cube in Gray-code order and pay O(delta) per pair instead of
//     rebuilding, re-freezing and re-hashing every G_{x,y} from scratch,
//     once the consistency gate (GatedDelta) has checked the delta
//     against Build.
//   - Sweep is the one engine every pair sweep runs on — Verify and
//     VerifyDigraph here, Certify and CertifyDigraph in the reduction
//     package: column claiming, worker-private delta instances, the
//     earliest failure in the caller's report order, panic confinement
//     and cancellation. One worker walks the pairs in order.
//   - ImpliedLowerBound evaluates the Theorem 1.1 round bound
//     Ω(CC(f) / (|E_cut| log n)) from the measured family parameters.
//   - SimulateTwoParty runs a CONGEST algorithm on G_{x,y} with the cut
//     metered, realizing the Alice-Bob simulation that proves Theorem 1.1.
package lbfamily

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// Family is a family of lower bound graphs {G_{x,y}} with respect to a
// two-party function f and a graph predicate P (Definition 1.1).
type Family interface {
	// Name identifies the family, e.g. "mds".
	Name() string
	// K is the input length per player.
	K() int
	// Func is the function f the family reduces from. By Definition 1.1
	// condition 4, Predicate(Build(x,y)) must equal Func().Eval(x,y).
	Func() comm.Function
	// Build constructs G_{x,y}.
	Build(x, y comm.Bits) (*graph.Graph, error)
	// AliceSide marks V_A in the (input-independent) vertex set.
	AliceSide() []bool
	// Predicate decides P exactly (it may be expensive; it is the
	// verification oracle, not part of the construction).
	Predicate(g *graph.Graph) (bool, error)
}

// Input-bit owners for DeltaFamily.ApplyBit.
const (
	// PlayerX marks a bit of Alice's input x.
	PlayerX = 0
	// PlayerY marks a bit of Bob's input y.
	PlayerY = 1
)

// DeltaFamily is the incremental-construction extension of Family for
// "pure bit gadget" constructions: G_{x,y} is a fixed skeleton (BuildBase,
// the all-zeros instance G_{0,0}) plus a bounded set of changes attached
// to each input bit. ApplyBit applies exactly those changes, so the sweeps
// can walk the 2^(2K) input pairs in Gray-code order and update one
// instance graph in O(delta) per pair. The in-repo families get both
// methods by embedding a Delta, which derives them from Build.
//
// Contract: ApplyBit(g, player, bit, val) transforms the instance graph of
// an input whose (player, bit) is !val into the instance graph where it is
// val, mutating edges and vertex weights only (no vertex additions) and
// only through ToggleEdge/SetEdgeWeight/SetVertexWeight, so the graph's
// mutation journals capture the delta; it rejects a player other than
// PlayerX and PlayerY and a bit outside [0,K). Verify and Certify trust
// the surface only after the consistency gate (GatedDelta) has matched it
// against Build, and rebuild every pair otherwise. Exhaustive pair-for-pair
// agreement of the two paths is asserted by the package's differential
// tests for the in-repo families.
type DeltaFamily interface {
	Family
	// BuildBase constructs the all-zeros instance G_{0,0}.
	BuildBase() (*graph.Graph, error)
	// ApplyBit applies the change of one input bit to val.
	ApplyBit(g *graph.Graph, player, bit int, val bool) error
}

// PredicateOracle is a reusable predicate evaluator (typically wrapping an
// arena-backed solver oracle) that a verification worker holds across many
// pairs so predicate evaluation stops paying per-call allocation.
type PredicateOracle interface {
	Eval(g *graph.Graph) (bool, error)
}

// OracleFamily is implemented by families whose predicate can be evaluated
// through a reusable per-worker oracle. NewPredicateOracle must return an
// oracle whose verdicts (and errors) match Predicate exactly.
type OracleFamily interface {
	Family
	NewPredicateOracle() PredicateOracle
}

// DigraphFamily is the directed-graph analogue of Family, used by the
// Hamiltonian path and directed Steiner constructions.
type DigraphFamily interface {
	Name() string
	K() int
	Func() comm.Function
	Build(x, y comm.Bits) (*graph.Digraph, error)
	AliceSide() []bool
	Predicate(d *graph.Digraph) (bool, error)
}

// Stats are the measured parameters of a family that determine the
// Theorem 1.1 bound.
type Stats struct {
	N       int // vertices in G_{x,y} (fixed across inputs)
	M       int // edges of the all-zero instance
	CutSize int // |E_cut|
	K       int // input bits per player
}

// MeasureStats builds the all-zeros instance and reports its parameters.
func MeasureStats(fam Family) (Stats, error) {
	zero := comm.NewBits(fam.K())
	g, err := fam.Build(zero, zero)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		N:       g.N(),
		M:       g.M(),
		CutSize: len(g.CutEdges(fam.AliceSide())),
		K:       fam.K(),
	}, nil
}

// ImpliedLowerBound evaluates Theorem 1.1: a family w.r.t. f yields a round
// lower bound of Ω(CC(f) / (|E_cut| log n)). CC(f) is taken from the known
// complexity table (DISJ and EQ and their negations); the result drops
// constant factors.
func ImpliedLowerBound(stats Stats, f comm.Function) (float64, error) {
	cc, ok := comm.KnownDeterministicCC(f, stats.K)
	if !ok {
		return 0, fmt.Errorf("no known complexity for function %s", f.Name())
	}
	if stats.CutSize == 0 || stats.N < 2 {
		return 0, fmt.Errorf("degenerate family stats: %+v", stats)
	}
	return cc / (float64(stats.CutSize) * math.Log2(float64(stats.N))), nil
}

// Verify checks Definition 1.1 exhaustively for all input pairs; it
// requires K <= 12 (2^(2K) predicate evaluations). It checks:
//
//  1. the vertex set (count and order) is fixed;
//  2. for fixed y, varying x changes nothing in G[V_B] nor the cut;
//  3. symmetrically for x;
//  4. Predicate(G_{x,y}) == f(x, y) for every pair.
//
// The pairs run through the sweep engine (see Sweep), one column per
// y. Families implementing DeltaFamily are verified delta-driven: each
// worker walks its columns in Gray-code order over x, from x = ȳ (see
// CubeWalk), toggling only the changed bit's edges between pairs. Everything observable — the checks,
// the first-error choice and its message — is identical to the
// rebuild-every-pair path, which remains the transparent fallback.
func Verify(fam Family) error { return VerifyCtx(context.Background(), fam) }

// VerifyCtx is Verify with cancellation: when ctx is cancelled (or its
// deadline passes) mid-sweep, the workers drain promptly and the call
// returns a *CancelledError carrying the completed/total pair counts
// instead of running the remaining pairs to completion. A panic inside a
// worker is confined to its pair and surfaces as a *PanicError naming the
// (x, y) pair.
func VerifyCtx(ctx context.Context, fam Family) error {
	inputs, err := exhaustiveInputs(fam.K(), "VerifySampled")
	if err != nil {
		return err
	}
	return verify(ctx, fam, edgeKind, inputs, inputs, false)
}

// VerifySampled checks Definition 1.1 on up to trials distinct random
// input pairs plus the all-zeros and all-ones corners (random draws are
// deduplicated — a repeated string would only re-run identical predicate
// evaluations). Structural conditions (1-3) are checked pairwise across
// the sample.
func VerifySampled(fam Family, rng *rand.Rand, trials int) error {
	return VerifySampledCtx(context.Background(), fam, rng, trials)
}

// VerifySampledCtx is VerifySampled with cancellation, like VerifyCtx.
func VerifySampledCtx(ctx context.Context, fam Family, rng *rand.Rand, trials int) error {
	inputs := sampledInputs(fam.K(), rng, trials)
	return verify(ctx, fam, edgeKind, inputs, inputs, false)
}

// SimulateTwoParty runs a CONGEST algorithm on G_{x,y} with Alice
// simulating V_A and Bob V_B, metering the bits that cross the cut. This is
// the simulation at the heart of Theorem 1.1: a T-round algorithm yields a
// protocol exchanging at most 2*T*|E_cut|*B bits.
func SimulateTwoParty(fam Family, x, y comm.Bits, factory congest.Factory) (*congest.Result, error) {
	g, err := fam.Build(x, y)
	if err != nil {
		return nil, err
	}
	return congest.Run(g, factory, congest.Options{CutSide: fam.AliceSide()})
}

// DerivedFamily implements Theorem 2.6 (reductions between families of
// lower bound graphs): it transforms every graph of an inner family with a
// fixed, input-oblivious transformation and replaces the predicate. If the
// transformation maps V_A-local structure to V'_A-local structure (and
// symmetrically) — which Verify re-checks from scratch — the derived family
// is again a family of lower bound graphs.
type DerivedFamily struct {
	// Inner is the source family (P1 in Theorem 2.6).
	Inner Family
	// FamilyName names the derived family.
	FamilyName string
	// Transform maps G_{x,y} and the inner Alice side to the derived graph
	// and its Alice side. It must be deterministic and input-oblivious.
	Transform func(g *graph.Graph, aliceSide []bool) (*graph.Graph, []bool, error)
	// Pred decides the derived predicate P2.
	Pred func(g *graph.Graph) (bool, error)
	// F overrides the function; nil keeps the inner family's function.
	F comm.Function

	// The derived side is input-oblivious, so it is learned exactly once
	// from the all-zeros instance.
	sideOnce   sync.Once
	cachedSide []bool
	sideErr    error

	// delta is the family's derived delta, made on first use.
	deltaOnce sync.Once
	delta     *Delta[*graph.Graph]
}

var _ DeltaFamily = (*DerivedFamily)(nil)

// Name returns the derived family's name.
func (d *DerivedFamily) Name() string { return d.FamilyName }

// K returns the inner family's input length.
func (d *DerivedFamily) K() int { return d.Inner.K() }

// Func returns the override function or the inner one.
func (d *DerivedFamily) Func() comm.Function {
	if d.F != nil {
		return d.F
	}
	return d.Inner.Func()
}

// Build builds the inner graph and applies the transformation.
func (d *DerivedFamily) Build(x, y comm.Bits) (*graph.Graph, error) {
	g, err := d.Inner.Build(x, y)
	if err != nil {
		return nil, err
	}
	out, _, err := d.Transform(g, d.Inner.AliceSide())
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AliceSideChecked returns the derived partition, building the all-zeros
// instance once (guarded by sync.Once) to learn it, and surfaces the build
// or transform error instead of silently returning nil.
func (d *DerivedFamily) AliceSideChecked() ([]bool, error) {
	d.sideOnce.Do(func() {
		zero := comm.NewBits(d.K())
		g, err := d.Inner.Build(zero, zero)
		if err != nil {
			d.sideErr = err
			return
		}
		_, side, err := d.Transform(g, d.Inner.AliceSide())
		if err != nil {
			d.sideErr = err
			return
		}
		d.cachedSide = side
	})
	return d.cachedSide, d.sideErr
}

// AliceSide returns the derived partition (building the zero instance once
// if needed to learn it); nil if that build fails — use AliceSideChecked
// for the error.
func (d *DerivedFamily) AliceSide() []bool {
	side, _ := d.AliceSideChecked()
	return side
}

// Predicate decides the derived predicate.
func (d *DerivedFamily) Predicate(g *graph.Graph) (bool, error) { return d.Pred(g) }

// derived returns the family's derived delta, making it on first use.
func (d *DerivedFamily) derived() *Delta[*graph.Graph] {
	d.deltaOnce.Do(func() { d.delta = NewDelta(d) })
	return d.delta
}

// BuildBase returns the derived all-zeros instance (see Delta).
func (d *DerivedFamily) BuildBase() (*graph.Graph, error) { return d.derived().BuildBase() }

// ApplyBit applies one input bit's derived change list (see Delta). A
// transform that does not keep the inner family's changes additive, such
// as a graph power, fails the consistency gate, and the family's sweeps
// rebuild every pair.
func (d *DerivedFamily) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	return d.derived().ApplyBit(g, player, bit, val)
}
