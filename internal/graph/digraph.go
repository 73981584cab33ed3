package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Arc is a directed edge with its weight.
type Arc struct {
	From, To int
	Weight   int64
}

// Digraph is a directed graph with arc and vertex weights. Self loops and
// parallel arcs (same direction) are rejected; antiparallel arcs are allowed.
type Digraph struct {
	out [][]Half
	in  [][]Half
	vw  []int64

	// csr caches the Freeze() out-adjacency snapshot: ToggleArc splices
	// it, other mutators reset it. atomic as in Graph.
	csr atomic.Pointer[CSR]

	journal
}

// NewDigraph returns a directed graph with n isolated vertices.
func NewDigraph(n int) *Digraph {
	d := &Digraph{
		out: make([][]Half, n),
		in:  make([][]Half, n),
		vw:  make([]int64, n),
	}
	for i := range d.vw {
		d.vw[i] = 1
	}
	return d
}

// Recycle makes d an arcless digraph on n vertices of weight 1, as
// NewDigraph(n) would, but keeps the capacity of its vertex and adjacency
// lists (see Graph.Recycle). It drops any snapshot and journal.
func (d *Digraph) Recycle(n int) {
	d.out = recycleAdj(d.out, n)
	d.in = recycleAdj(d.in, n)
	d.vw = recycleWeights(d.vw, n)
	d.csr.Store(nil)
	d.journal.on = false
	d.ClearJournal()
}

// N returns the number of vertices.
func (d *Digraph) N() int { return len(d.out) }

// M returns the number of arcs.
func (d *Digraph) M() int {
	total := 0
	for _, nbrs := range d.out {
		total += len(nbrs)
	}
	return total
}

func (d *Digraph) checkVertex(v int) error {
	if v < 0 || v >= len(d.out) {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, len(d.out))
	}
	return nil
}

// AddArc adds the weight-1 arc (u, v).
func (d *Digraph) AddArc(u, v int) error { return d.AddWeightedArc(u, v, 1) }

// AddWeightedArc adds the arc (u, v) with weight w.
func (d *Digraph) AddWeightedArc(u, v int, w int64) error {
	if err := d.checkVertex(u); err != nil {
		return err
	}
	if err := d.checkVertex(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("self loop at vertex %d", u)
	}
	if d.HasArc(u, v) {
		return fmt.Errorf("duplicate arc (%d,%d)", u, v)
	}
	d.out[u] = append(d.out[u], Half{To: v, Weight: w})
	d.in[v] = append(d.in[v], Half{To: u, Weight: w})
	d.csr.Store(nil)
	d.record(u, v, w, true)
	return nil
}

// MustAddArc is AddArc that panics on error; for validated builders only.
func (d *Digraph) MustAddArc(u, v int) { d.MustAddWeightedArc(u, v, 1) }

// MustAddWeightedArc is AddWeightedArc that panics on error.
func (d *Digraph) MustAddWeightedArc(u, v int, w int64) {
	if err := d.AddWeightedArc(u, v, w); err != nil {
		panic(err)
	}
}

// HasArc reports whether the arc (u, v) exists. On a frozen digraph this
// is a binary search, O(log outdeg).
func (d *Digraph) HasArc(u, v int) bool {
	if u < 0 || u >= len(d.out) || v < 0 || v >= len(d.out) {
		return false
	}
	if c := d.csr.Load(); c != nil {
		return c.Rank(u, v) >= 0
	}
	for _, h := range d.out[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// ArcWeight returns the weight of arc (u, v) and whether it exists.
func (d *Digraph) ArcWeight(u, v int) (int64, bool) {
	if u < 0 || u >= len(d.out) {
		return 0, false
	}
	if c := d.csr.Load(); c != nil {
		return c.EdgeWeight(u, v)
	}
	for _, h := range d.out[u] {
		if h.To == v {
			return h.Weight, true
		}
	}
	return 0, false
}

// OutNeighbors returns the out-adjacency of v (internal storage; read-only).
func (d *Digraph) OutNeighbors(v int) []Half { return d.out[v] }

// InNeighbors returns the in-adjacency of v (internal storage; read-only).
func (d *Digraph) InNeighbors(v int) []Half { return d.in[v] }

// OutDegree returns the number of arcs leaving v.
func (d *Digraph) OutDegree(v int) int { return len(d.out[v]) }

// InDegree returns the number of arcs entering v.
func (d *Digraph) InDegree(v int) int { return len(d.in[v]) }

// VertexWeight returns the weight of vertex v.
func (d *Digraph) VertexWeight(v int) int64 { return d.vw[v] }

// SetVertexWeight sets the weight of vertex v.
func (d *Digraph) SetVertexWeight(v int, w int64) error {
	if err := d.checkVertex(v); err != nil {
		return err
	}
	d.vw[v] = w
	return nil
}

// Arcs returns all arcs sorted by (From, To).
func (d *Digraph) Arcs() []Arc {
	arcs := make([]Arc, 0, d.M())
	for u, nbrs := range d.out {
		for _, h := range nbrs {
			arcs = append(arcs, Arc{From: u, To: h.To, Weight: h.Weight})
		}
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].From != arcs[j].From {
			return arcs[i].From < arcs[j].From
		}
		return arcs[i].To < arcs[j].To
	})
	return arcs
}

// Clone returns a deep copy of d.
func (d *Digraph) Clone() *Digraph {
	c := &Digraph{
		out: make([][]Half, len(d.out)),
		in:  make([][]Half, len(d.in)),
		vw:  make([]int64, len(d.vw)),
	}
	copy(c.vw, d.vw)
	for v := range d.out {
		c.out[v] = append([]Half(nil), d.out[v]...)
		c.in[v] = append([]Half(nil), d.in[v]...)
	}
	return c
}

// InducedSubdigraph returns the sub-digraph induced by keep (a vertex
// predicate), along with the mapping from new vertex ids to original ids.
// Vertices keep their relative order, so inducing on the full vertex set
// is the identity relabeling.
func (d *Digraph) InducedSubdigraph(keep func(v int) bool) (*Digraph, []int) {
	origID := make([]int, 0, len(d.out))
	newID := make([]int, len(d.out))
	for v := range d.out {
		newID[v] = -1
		if keep(v) {
			newID[v] = len(origID)
			origID = append(origID, v)
		}
	}
	sub := NewDigraph(len(origID))
	for i, v := range origID {
		sub.vw[i] = d.vw[v]
		for _, h := range d.out[v] {
			if newID[h.To] >= 0 {
				sub.MustAddWeightedArc(i, newID[h.To], h.Weight)
			}
		}
	}
	return sub, origID
}

// Underlying returns the undirected graph obtained by forgetting arc
// directions (antiparallel arcs collapse to a single edge keeping the first
// weight seen).
func (d *Digraph) Underlying() *Graph {
	g := New(d.N())
	for v := range d.vw {
		g.vw[v] = d.vw[v]
	}
	for u, nbrs := range d.out {
		for _, h := range nbrs {
			if !g.HasEdge(u, h.To) {
				g.MustAddWeightedEdge(u, h.To, h.Weight)
			}
		}
	}
	return g
}

// SplitDirected implements the classic reduction from directed to undirected
// Hamiltonicity used in Lemma 2.2 of the paper: every vertex v becomes a
// path v_in - v_mid - v_out, and every arc (u, v) becomes the undirected
// edge {u_out, v_in}. Vertex v maps to 3v (in), 3v+1 (mid), 3v+2 (out).
func (d *Digraph) SplitDirected() *Graph {
	g := New(3 * d.N())
	for v := 0; v < d.N(); v++ {
		g.MustAddEdge(3*v, 3*v+1)
		g.MustAddEdge(3*v+1, 3*v+2)
	}
	for u, nbrs := range d.out {
		for _, h := range nbrs {
			g.MustAddEdge(3*u+2, 3*h.To)
		}
	}
	return g
}

// String returns a compact human-readable description of the digraph.
func (d *Digraph) String() string {
	return fmt.Sprintf("digraph{n=%d m=%d}", d.N(), d.M())
}

// CutArcs returns the arcs crossing the side partition (either direction),
// sorted.
func (d *Digraph) CutArcs(side []bool) []Arc {
	var cut []Arc
	for _, a := range d.Arcs() {
		if side[a.From] != side[a.To] {
			cut = append(cut, a)
		}
	}
	return cut
}
