package graph

import (
	"fmt"
	"sync/atomic"
)

// CSR is a compressed-sparse-row snapshot of a graph's adjacency:
// per-vertex neighbor windows sorted by neighbor id. Graph.Freeze builds it
// over the edges, Digraph.Freeze over the out-arcs; it is the one snapshot
// the graph keeps, shared by every hot path that would otherwise rescan
// adjacency lists — the CONGEST front ends' link windows, the solvers'
// membership tests and the delta walks of the lower-bound-family sweeps.
//
// Each window is followed by spare slots, so ToggleEdge, SetEdgeWeight
// and ToggleArc splice the snapshot in place instead of rebuilding it.
// A snapshot is therefore valid only until the graph's next mutation,
// like a Neighbors slice. Readers never write to it, so concurrent
// readers of an unmutated graph may share it.
type CSR struct {
	offsets []int32 // len n+1; vertex v's window starts at offsets[v]
	ends    []int32 // window ends; the slack runs from ends[v] to offsets[v+1]
	nbr     []int32 // neighbor ids, sorted within each window
	wt      []int64 // edge weights, parallel to nbr
	slack   int     // spare slots per window when built
}

// initialSlack is the number of spare slots a fresh snapshot leaves after
// every window.
const initialSlack = 4

// Freeze returns the CSR snapshot of g, building and caching it on first
// use. ToggleEdge and SetEdgeWeight splice it in place; AddEdge, AddVertex
// and Recycle drop it. It is valid until g's next mutation. Concurrent
// Freeze calls are safe; concurrent mutation is not (as with any Graph
// method).
func (g *Graph) Freeze() *CSR { return freeze(&g.csr, g.adj) }

// Freeze returns the CSR snapshot of d's out-adjacency, building and
// caching it on first use. ToggleArc splices it in place; AddArc and
// Recycle drop it. It is valid until d's next mutation, and concurrent
// Freeze calls are safe, as with Graph.Freeze.
func (d *Digraph) Freeze() *CSR { return freeze(&d.csr, d.out) }

// freeze returns the snapshot cached in p, building it from adj with
// initialSlack spare slots per window on first use.
func freeze(p *atomic.Pointer[CSR], adj [][]Half) *CSR {
	if c := p.Load(); c != nil {
		return c
	}
	c := newCSR(adj, initialSlack)
	p.Store(c)
	return c
}

// newCSR builds the snapshot of adj with slack spare slots after every
// window.
func newCSR(adj [][]Half, slack int) *CSR {
	n := len(adj)
	c := &CSR{offsets: make([]int32, n+1), ends: make([]int32, n), slack: slack}
	total := 0
	for v, nbrs := range adj {
		c.ends[v] = int32(total + len(nbrs))
		total += len(nbrs) + slack
		c.offsets[v+1] = int32(total)
	}
	c.nbr = make([]int32, total)
	c.wt = make([]int64, total)
	for v, nbrs := range adj {
		base := int(c.offsets[v])
		for i, h := range nbrs {
			c.nbr[base+i] = int32(h.To)
			c.wt[base+i] = h.Weight
		}
		sortWindow(c.nbr[base:base+len(nbrs)], c.wt[base:base+len(nbrs)])
	}
	return c
}

// sortWindow sorts a window by neighbor id, moving each weight with its
// neighbor, in place and without allocating: insertion sort for short
// windows, heapsort for long ones.
func sortWindow(nbr []int32, wt []int64) {
	n := len(nbr)
	if n <= 12 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && nbr[j] < nbr[j-1]; j-- {
				nbr[j], nbr[j-1] = nbr[j-1], nbr[j]
				wt[j], wt[j-1] = wt[j-1], wt[j]
			}
		}
		return
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(nbr, wt, i, n)
	}
	for end := n - 1; end > 0; end-- {
		nbr[0], nbr[end] = nbr[end], nbr[0]
		wt[0], wt[end] = wt[end], wt[0]
		siftDown(nbr, wt, 0, end)
	}
}

// siftDown restores the max-heap order of nbr[:n] below root.
func siftDown(nbr []int32, wt []int64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && nbr[child] < nbr[child+1] {
			child++
		}
		if nbr[root] >= nbr[child] {
			return
		}
		nbr[root], nbr[child] = nbr[child], nbr[root]
		wt[root], wt[child] = wt[child], wt[root]
		root = child
	}
}

// spliceInsert inserts v into u's sorted window in place, O(deg). It
// reports false when the window has no slack left (caller rebuilds).
func (c *CSR) spliceInsert(u, v int, w int64) bool {
	lo, hi := c.offsets[u], c.ends[u]
	if hi == c.offsets[u+1] {
		return false
	}
	target := int32(v)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.nbr[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := c.ends[u]
	copy(c.nbr[lo+1:end+1], c.nbr[lo:end])
	copy(c.wt[lo+1:end+1], c.wt[lo:end])
	c.nbr[lo] = target
	c.wt[lo] = w
	c.ends[u] = end + 1
	return true
}

// spliceRemove removes v from u's sorted window in place, O(deg).
func (c *CSR) spliceRemove(u, v int) {
	r := c.Rank(u, v)
	if r < 0 {
		// Unreachable unless the snapshot's journal and window diverge;
		// delta sweeps run under the recover-into-*PanicError machinery.
		panic(fmt.Sprintf("graph: snapshot missing edge {%d,%d}", u, v)) //nolint:hardlint/panicsite broken-snapshot invariant; confined by sweep recovery
	}
	pos := c.offsets[u] + int32(r)
	end := c.ends[u]
	copy(c.nbr[pos:end-1], c.nbr[pos+1:end])
	copy(c.wt[pos:end-1], c.wt[pos+1:end])
	c.ends[u] = end - 1
}

// setWeight updates the stored weight of the directed slot u -> v.
func (c *CSR) setWeight(u, v int, w int64) {
	r := c.Rank(u, v)
	if r < 0 {
		// Unreachable unless the snapshot's journal and window diverge;
		// delta sweeps run under the recover-into-*PanicError machinery.
		panic(fmt.Sprintf("graph: snapshot missing edge {%d,%d}", u, v)) //nolint:hardlint/panicsite broken-snapshot invariant; confined by sweep recovery
	}
	c.wt[c.offsets[u]+int32(r)] = w
}

// N returns the number of vertices in the snapshot.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int { return int(c.ends[v] - c.offsets[v]) }

// Window returns v's neighbor ids and edge weights, sorted by neighbor id.
// Both slices are the snapshot's internal storage and must not be modified.
func (c *CSR) Window(v int) ([]int32, []int64) {
	return c.nbr[c.offsets[v]:c.ends[v]], c.wt[c.offsets[v]:c.ends[v]]
}

// Rank returns the position of v within u's sorted neighbor window, or -1
// if the edge {u, v} does not exist.
func (c *CSR) Rank(u, v int) int {
	lo, hi := c.offsets[u], c.ends[u]
	target := int32(v)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.nbr[mid] < target:
			lo = mid + 1
		case c.nbr[mid] > target:
			hi = mid
		default:
			return int(mid - c.offsets[u])
		}
	}
	return -1
}

// EdgeWeight returns the weight of {u, v} and whether it exists.
func (c *CSR) EdgeWeight(u, v int) (int64, bool) {
	if u < 0 || u >= c.N() || v < 0 || v >= c.N() {
		return 0, false
	}
	r := c.Rank(u, v)
	if r < 0 {
		return 0, false
	}
	return c.wt[c.offsets[u]+int32(r)], true
}

// The structural hashes below are XOR-folds of per-element 64-bit hashes:
// each labeled weighted edge (or vertex, or arc) is mixed through a
// splitmix64 finalizer and the element hashes are XORed together. XOR makes
// the fold order-free and — crucially for the delta-driven verifier —
// invertible: adding or removing an element updates the fold with a single
// XOR, so the hash of G ± one edge costs O(1) given the hash of G.
// Two graphs agree iff their element multisets agree (up to hash
// collision, ~2^-64; elements within one graph are distinct by
// construction, so the multiset is a set).
const (
	edgeSeed   = 0x9e3779b97f4a7c15
	vertexSeed = 0xd1b54a32d192ed03
	arcSeed    = 0x8bb84b93962eacc9
)

// mix64 is the splitmix64 finalizer: a cheap 64-bit permutation with full
// avalanche, so XOR-folding element hashes does not cancel structure.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EdgeHash returns the element hash of the labeled weighted undirected edge
// {u, v} — the unit the XOR-fold structural hashes are built from. It is
// exported so incremental observers (the lower-bound-family verifier) can
// maintain CutHash/HashWithin values in O(1) per edge delta.
func EdgeHash(u, v int, w int64) uint64 {
	if u > v {
		u, v = v, u
	}
	return mix64(mix64(mix64(uint64(u)^edgeSeed)+uint64(v)) + uint64(w))
}

// VertexHash returns the element hash of a labeled weighted vertex. Like
// EdgeHash it is exported so incremental observers can fold vertex-weight
// deltas (families whose inputs drive vertex weights rather than edges)
// into HashWithin values with one XOR per change.
func VertexHash(v int, w int64) uint64 {
	return mix64(mix64(uint64(v)^vertexSeed) + uint64(w))
}

// ArcHash is the directed analogue of EdgeHash (direction is significant).
func ArcHash(from, to int, w int64) uint64 {
	return mix64(mix64(mix64(uint64(from)^arcSeed)+uint64(to)) + uint64(w))
}

// HashWithin returns a 64-bit structural hash of the subgraph induced by
// the vertex set marked by within: vertex ids and weights of the marked
// vertices plus the canonical edge list among them. It iterates the
// adjacency directly (no Freeze needed), and the XOR-fold form means the
// value can alternatively be maintained incrementally via EdgeHash as
// edges toggle.
func (g *Graph) HashWithin(within []bool) uint64 {
	h := uint64(0)
	for v, w := range g.vw {
		if within[v] {
			h ^= VertexHash(v, w)
		}
	}
	for u, nbrs := range g.adj {
		if !within[u] {
			continue
		}
		for _, half := range nbrs {
			if u < half.To && within[half.To] {
				h ^= EdgeHash(u, half.To, half.Weight)
			}
		}
	}
	return h
}

// CutHash returns a 64-bit hash of the canonical cut edge list (the edges
// with exactly one endpoint in side, with weights) — the hashed analogue
// of rendering CutEdges to a string, maintainable in O(1) per edge delta.
func (g *Graph) CutHash(side []bool) uint64 {
	h := uint64(0)
	for u, nbrs := range g.adj {
		for _, half := range nbrs {
			if u < half.To && side[u] != side[half.To] {
				h ^= EdgeHash(u, half.To, half.Weight)
			}
		}
	}
	return h
}

// HashWithin is the directed analogue of Graph.HashWithin: vertex ids and
// weights of the marked vertices plus the canonical arc list among them.
func (d *Digraph) HashWithin(within []bool) uint64 {
	h := uint64(0)
	for v, w := range d.vw {
		if within[v] {
			h ^= VertexHash(v, w)
		}
	}
	for u, nbrs := range d.out {
		if !within[u] {
			continue
		}
		for _, half := range nbrs {
			if within[half.To] {
				h ^= ArcHash(u, half.To, half.Weight)
			}
		}
	}
	return h
}

// CutHash returns a 64-bit hash of the canonical list of arcs crossing the
// side partition (either direction, with weights).
func (d *Digraph) CutHash(side []bool) uint64 {
	h := uint64(0)
	for u, nbrs := range d.out {
		for _, half := range nbrs {
			if side[u] != side[half.To] {
				h ^= ArcHash(u, half.To, half.Weight)
			}
		}
	}
	return h
}
