package lbfamily

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"congesthard/internal/comm"
	"congesthard/internal/graph"
)

// Delta is the one implementation of the BuildBase and ApplyBit methods
// of DeltaFamily and DeltaDigraphFamily, derived from a family's Build.
// A family embeds the *Delta its constructor makes with NewDelta or
// NewDigraphDelta.
//
// On first use Delta builds G_{0,0} and, for every (player, bit), the
// instance with only that bit set, and keeps each bit's difference to
// G_{0,0} as a change list: edges or arcs that appear or disappear, with
// their weights, and edge-weight and vertex-weight deltas. ApplyBit
// replays a bit's list, or undoes it, through the graph's journaled
// mutators. The lists reproduce Build exactly when the family is
// additive: the changes of different bits compose. A family whose changes
// do not compose makes ApplyBit fail or disagree with Build, which the
// consistency gate (GatedDelta) detects before any sweep trusts it.
type Delta[G Instance[G]] struct {
	src interface {
		K() int
		Build(x, y comm.Bits) (G, error)
	}
	kd *kind[G]

	once sync.Once
	err  error
	base G
	ops  []change
	// at[p][i] and at[p][i+1] bound the change list of player p's bit i
	// in ops.
	at [2][]int

	// gateOnce guards gateOK, the gate's verdict on this delta as the
	// surface of its own family (see GatedDelta).
	gateOnce sync.Once
	gateOK   bool
}

// NewDelta returns the derived delta of an undirected family.
func NewDelta(fam Family) *Delta[*graph.Graph] {
	return &Delta[*graph.Graph]{src: fam, kd: &edgeKind}
}

// NewDigraphDelta returns the derived delta of a directed family. A
// directed family's inputs may add and remove arcs only: the digraph
// journal records no weight changes, so ApplyBit fails on them.
func NewDigraphDelta(fam DigraphFamily) *Delta[*graph.Digraph] {
	return &Delta[*graph.Digraph]{src: fam, kd: &arcKind}
}

// changeOp is what one change does to the instance when its bit is set.
type changeOp uint8

const (
	opAdd    changeOp = iota // the edge or arc (u, v) appears with weight w
	opRemove                 // the edge or arc (u, v) of weight w disappears
	opWeight                 // the weight of (u, v) grows by w
	opVertex                 // the weight of vertex u grows by w
)

// change is one entry of a bit's change list.
type change struct {
	op   changeOp
	u, v int
	w    int64
}

// BuildBase returns a copy of the all-zeros instance G_{0,0}.
func (d *Delta[G]) BuildBase() (G, error) {
	if err := d.derive(); err != nil {
		var zero G
		return zero, err
	}
	return d.base.Clone(), nil
}

// ApplyBit sets the bit of player (PlayerX or PlayerY) to val on g,
// which must be the instance of an input where that bit is !val. An
// out-of-range player or bit is an error that leaves g unchanged.
//
//hardness:hotpath
func (d *Delta[G]) ApplyBit(g G, player, bit int, val bool) error {
	if player != PlayerX && player != PlayerY {
		return fmt.Errorf("player %d is neither PlayerX nor PlayerY", player)
	}
	if err := d.derive(); err != nil {
		return err
	}
	at := d.at[player]
	if bit < 0 || bit >= len(at)-1 {
		return fmt.Errorf("bit %d out of range [0,%d)", bit, len(at)-1)
	}
	// The changes of one bit touch distinct elements, so undoing them
	// needs no particular order.
	ops, toggle := d.ops[at[bit]:at[bit+1]], d.kd.toggle
	for i := range ops {
		c := &ops[i]
		if c.op > opRemove {
			if err := d.reweight(g, c, val); err != nil {
				return fmt.Errorf("bit %d of player %d: %w", bit, player, err)
			}
			continue
		}
		added, err := toggle(g, c.u, c.v, c.w)
		if err != nil {
			return fmt.Errorf("bit %d of player %d: %w", bit, player, err)
		}
		if added != ((c.op == opAdd) == val) {
			return fmt.Errorf("bit %d of player %d: %s (%d,%d) out of sync", bit, player, d.kd.noun, c.u, c.v)
		}
	}
	return nil
}

// reweight applies a weight change to g, or undoes it when val is false.
func (d *Delta[G]) reweight(g G, c *change, val bool) error {
	w := c.w
	if !val {
		w = -w
	}
	if c.op == opVertex {
		return d.kd.setVertexWeight(g, c.u, g.VertexWeight(c.u)+w)
	}
	old, ok := d.kd.weight(g, c.u, c.v)
	if !ok {
		return fmt.Errorf("%s (%d,%d) missing", d.kd.noun, c.u, c.v)
	}
	return d.kd.setWeight(g, c.u, c.v, old+w)
}

// derive computes the change lists once; a failure is kept and returned
// by every later call.
func (d *Delta[G]) derive() error {
	d.once.Do(func() { d.err = d.diffAll() })
	return d.err
}

// diffAll builds G_{0,0} and the 2K single-bit instances and records
// each bit's change list. A panic in Build fails the derivation, so a
// sweep falls back to rebuilding, which confines the panic to its pair.
func (d *Delta[G]) diffAll() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("deriving the delta: panic: %v", r)
		}
	}()
	k := d.src.K()
	zero, e := comm.NewBits(k), comm.NewBits(k)
	base, err := d.src.Build(zero, zero)
	if err != nil {
		return fmt.Errorf("build(%s,%s): %w", zero, zero, err)
	}
	for p := range d.at {
		d.at[p] = make([]int, k+1)
		d.at[p][0] = len(d.ops)
		for i := 0; i < k; i++ {
			e.Set(i, true)
			x, y := e, zero
			if p == PlayerY {
				x, y = zero, e
			}
			g, err := d.src.Build(x, y)
			if err != nil {
				return fmt.Errorf("build(%s,%s): %w", x, y, err)
			}
			if d.ops, err = d.appendDiff(d.ops, base, g); err != nil {
				return fmt.Errorf("bit %d of player %d: %w", i, p, err)
			}
			d.at[p][i+1] = len(d.ops)
			e.Set(i, false)
		}
	}
	d.base = base
	return nil
}

// appendDiff appends the changes that turn base into g, sorted by
// operation and element, so the toggles of one bit append to the
// adjacency lists in a fixed order.
func (d *Delta[G]) appendDiff(ops []change, base, g G) ([]change, error) {
	kd := d.kd
	if g.N() != base.N() {
		return ops, fmt.Errorf("vertex count %d != %d", g.N(), base.N())
	}
	start := len(ops)
	for u := 0; u < g.N(); u++ {
		for _, h := range kd.adj(g, u) {
			if !kd.directed && h.To < u {
				continue // an edge is listed at both ends
			}
			if w, ok := kd.weight(base, u, h.To); !ok {
				ops = append(ops, change{op: opAdd, u: u, v: h.To, w: h.Weight})
			} else if w != h.Weight {
				ops = append(ops, change{op: opWeight, u: u, v: h.To, w: h.Weight - w})
			}
		}
		for _, h := range kd.adj(base, u) {
			if kd.directed || h.To > u {
				if _, ok := kd.weight(g, u, h.To); !ok {
					ops = append(ops, change{op: opRemove, u: u, v: h.To, w: h.Weight})
				}
			}
		}
		if dw := g.VertexWeight(u) - base.VertexWeight(u); dw != 0 {
			ops = append(ops, change{op: opVertex, u: u, w: dw})
		}
	}
	slices.SortFunc(ops[start:], func(a, b change) int {
		return cmp.Or(cmp.Compare(a.op, b.op), cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})
	return ops, nil
}

// derived returns d. A family that embeds d inherits the method, which
// tells GatedDelta whose delta the family's surface is.
func (d *Delta[G]) derived() *Delta[G] { return d }

// gateSeed fixes the order in which the gate sets the input bits.
const gateSeed = 0x5eed

// GatedDelta is the consistency gate every sweep runs before trusting a
// delta source: it returns fam's BuildBase/ApplyBit surface, or nil when
// fam has none or the surface disagrees with fam's Build. The gate
// starts from BuildBase and sets all 2K input bits with ApplyBit in a
// seeded order; after every third of them, and at the all-ones pair, the
// instance must match Build of the bits set so far — vertex count, cut
// hash and both induced-side hashes. A surface that fails, errs or
// panics is not trusted, and the sweep rebuilds every pair instead.
//
// The verdict on a family's own derived delta (the family the Delta was
// made from, reaching it through the embedded methods) is computed once
// per Delta; every other surface is checked on every call.
func GatedDelta[G Instance[G]](fam interface {
	Build(x, y comm.Bits) (G, error)
}, side []bool) DeltaSource[G] {
	df, ok := fam.(DeltaSource[G])
	if !ok {
		return nil
	}
	if dv, own := fam.(interface{ derived() *Delta[G] }); own && any(dv.derived().src) == any(fam) {
		d := dv.derived()
		d.gateOnce.Do(func() { d.gateOK = deltaConsistent(fam, df, side) })
		ok = d.gateOK
	} else {
		ok = deltaConsistent(fam, df, side)
	}
	if !ok {
		return nil
	}
	return df
}

// deltaConsistent runs the gate's checks on df against fam.Build.
func deltaConsistent[G Instance[G]](fam interface {
	Build(x, y comm.Bits) (G, error)
}, df DeltaSource[G], side []bool) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	bobSide := bobSideOf(side)
	g, err := df.BuildBase()
	if err != nil || g.N() != len(side) {
		return false
	}
	k := df.K()
	in := [2]comm.Bits{comm.NewBits(k), comm.NewBits(k)}
	matches := func() bool {
		want, err := fam.Build(in[PlayerX], in[PlayerY])
		return err == nil && want.N() == len(side) && hashesOf(g, side, bobSide) == hashesOf(want, side, bobSide)
	}
	slots := rand.New(rand.NewPCG(gateSeed, 0)).Perm(2 * k)
	step := max(1, (2*k+2)/3)
	for i, s := range slots {
		player, bit := s/k, s%k
		if err := df.ApplyBit(g, player, bit, true); err != nil {
			return false
		}
		in[player].Set(bit, true)
		if (i+1)%step == 0 && i+1 < len(slots) && !matches() {
			return false
		}
	}
	return matches()
}
