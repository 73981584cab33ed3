// Package graph provides the graph substrate used throughout the library:
// undirected and directed graphs with integer edge and vertex weights,
// generators, traversals and structural queries.
//
// Vertices are dense integers in [0, N). Weights are int64; an unweighted
// graph is simply a graph whose edge weights are all 1. The zero values of
// Graph and Digraph are empty graphs with no vertices.
//
// All constructions in this module are deterministic; randomized generators
// take an explicit *rand.Rand so callers control seeding.
package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Half is one endpoint of an edge as seen from the other endpoint: the
// neighbor vertex and the weight of the connecting edge.
type Half struct {
	To     int
	Weight int64
}

// Edge is an undirected edge with its weight. For undirected graphs the
// canonical form has U < V.
type Edge struct {
	U, V   int
	Weight int64
}

// Graph is an undirected multigraph-free graph with edge and vertex weights.
// Self loops and parallel edges are rejected by AddEdge.
type Graph struct {
	adj [][]Half
	vw  []int64

	// csr caches the Freeze() snapshot: ToggleEdge and SetEdgeWeight
	// splice it, other mutators reset it. atomic so that concurrent
	// readers (e.g. parallel family verification workers that share a
	// graph) may Freeze safely.
	csr atomic.Pointer[CSR]

	journal
}

// New returns an undirected graph with n isolated vertices, all of vertex
// weight 1 and no edges.
func New(n int) *Graph {
	g := &Graph{
		adj: make([][]Half, n),
		vw:  make([]int64, n),
	}
	for i := range g.vw {
		g.vw[i] = 1
	}
	return g
}

// Recycle makes g an edgeless graph on n vertices of weight 1, as New(n)
// would, but keeps the capacity of its vertex and adjacency lists, so a
// graph rebuilt over and over stops allocating once it has seen its
// largest instance. It drops any snapshot and journal.
func (g *Graph) Recycle(n int) {
	g.adj = recycleAdj(g.adj, n)
	g.vw = recycleWeights(g.vw, n)
	g.csr.Store(nil)
	g.journal.on = false
	g.ClearJournal()
}

// recycleAdj returns adj resized to n empty adjacency lists, reusing the
// lists' storage, including that of lists beyond a previous shorter length.
func recycleAdj(adj [][]Half, n int) [][]Half {
	if cap(adj) < n {
		grown := make([][]Half, n)
		copy(grown, adj[:cap(adj)])
		adj = grown
	}
	adj = adj[:n]
	for v := range adj {
		adj[v] = adj[v][:0]
	}
	return adj
}

// recycleWeights returns vw resized to n unit vertex weights.
func recycleWeights(vw []int64, n int) []int64 {
	if cap(vw) < n {
		vw = make([]int64, n)
	}
	vw = vw[:n]
	for i := range vw {
		vw[i] = 1
	}
	return vw
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// AddVertex appends a new isolated vertex of weight 1 and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	g.vw = append(g.vw, 1)
	g.csr.Store(nil)
	return len(g.adj) - 1
}

func (g *Graph) checkVertex(v int) error {
	if v < 0 || v >= len(g.adj) {
		return fmt.Errorf("vertex %d out of range [0,%d)", v, len(g.adj))
	}
	return nil
}

// AddEdge adds the unweighted (weight-1) edge {u, v}.
func (g *Graph) AddEdge(u, v int) error { return g.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge adds the edge {u, v} with weight w. It rejects self loops,
// out-of-range endpoints and duplicate edges.
func (g *Graph) AddWeightedEdge(u, v int, w int64) error {
	if err := g.checkVertex(u); err != nil {
		return err
	}
	if err := g.checkVertex(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("self loop at vertex %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], Half{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Half{To: u, Weight: w})
	g.csr.Store(nil)
	g.record(min(u, v), max(u, v), w, true)
	return nil
}

// MustAddEdge is AddEdge for construction code where the arguments are known
// valid by construction; it panics on error. It is intended for package-level
// graph builders whose inputs are validated up front.
func (g *Graph) MustAddEdge(u, v int) {
	g.MustAddWeightedEdge(u, v, 1)
}

// MustAddWeightedEdge is AddWeightedEdge that panics on error.
func (g *Graph) MustAddWeightedEdge(u, v int, w int64) {
	if err := g.AddWeightedEdge(u, v, w); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the edge {u, v} exists. On a frozen graph this is
// a binary search, O(log deg); otherwise a linear scan of the shorter list.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	if c := g.csr.Load(); c != nil {
		return c.Rank(u, v) >= 0
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u, v}, and whether it exists. On a
// frozen graph this is a binary search, O(log deg).
func (g *Graph) EdgeWeight(u, v int) (int64, bool) {
	if u < 0 || u >= len(g.adj) {
		return 0, false
	}
	if c := g.csr.Load(); c != nil {
		return c.EdgeWeight(u, v)
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.Weight, true
		}
	}
	return 0, false
}

// SetEdgeWeight updates the weight of an existing edge {u, v}. The Freeze
// snapshot is updated in place, O(log deg).
func (g *Graph) SetEdgeWeight(u, v int, w int64) error {
	if err := g.checkVertex(u); err != nil {
		return err
	}
	if err := g.checkVertex(v); err != nil {
		return err
	}
	i := halfIndex(g.adj[u], v)
	if i < 0 {
		return fmt.Errorf("edge {%d,%d} not found", u, v)
	}
	oldW := g.adj[u][i].Weight
	g.adj[u][i].Weight = w
	g.adj[v][halfIndex(g.adj[v], u)].Weight = w
	if c := g.csr.Load(); c != nil {
		c.setWeight(u, v, w)
		c.setWeight(v, u, w)
	}
	if oldW != w {
		g.record(min(u, v), max(u, v), oldW, false)
		g.record(min(u, v), max(u, v), w, true)
	}
	return nil
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for _, nbrs := range g.adj {
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
	}
	return maxDeg
}

// Neighbors returns the adjacency list of v. The returned slice is the
// graph's internal storage and must not be modified; it is exposed without
// copying because it sits on the hot path of every solver.
func (g *Graph) Neighbors(v int) []Half { return g.adj[v] }

// NeighborIDs returns a freshly allocated slice of the neighbor vertex ids
// of v, in adjacency order.
func (g *Graph) NeighborIDs(v int) []int {
	ids := make([]int, len(g.adj[v]))
	for i, h := range g.adj[v] {
		ids[i] = h.To
	}
	return ids
}

// VertexWeight returns the weight of vertex v.
func (g *Graph) VertexWeight(v int) int64 { return g.vw[v] }

// SetVertexWeight sets the weight of vertex v. The change is journaled
// (see StartJournal) as a remove/add pair, so delta-family constructions
// whose inputs drive vertex weights can be verified incrementally.
// Equal-weight sets are no-ops, so the journal carries only real deltas.
func (g *Graph) SetVertexWeight(v int, w int64) error {
	if err := g.checkVertex(v); err != nil {
		return err
	}
	old := g.vw[v]
	if old == w {
		return nil
	}
	g.vw[v] = w
	if g.journal.on {
		g.journal.vertices = append(g.journal.vertices,
			VertexDelta{V: v, W: old, Add: false},
			VertexDelta{V: v, W: w, Add: true})
	}
	return nil
}

// TotalEdgeWeight returns the sum of all edge weights.
func (g *Graph) TotalEdgeWeight() int64 {
	var total int64
	for u, nbrs := range g.adj {
		for _, h := range nbrs {
			if u < h.To {
				total += h.Weight
			}
		}
	}
	return total
}

// Edges returns all edges in canonical (U < V) form, sorted by (U, V). On a
// frozen graph the list is read off the sorted CSR windows without sorting.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.M())
	if c := g.csr.Load(); c != nil {
		for u := range c.N() {
			nbr, wt := c.Window(u)
			for i, v := range nbr {
				if u < int(v) {
					edges = append(edges, Edge{U: u, V: int(v), Weight: wt[i]})
				}
			}
		}
		return edges
	}
	for u, nbrs := range g.adj {
		for _, h := range nbrs {
			if u < h.To {
				edges = append(edges, Edge{U: u, V: h.To, Weight: h.Weight})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	return edges
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj: make([][]Half, len(g.adj)),
		vw:  make([]int64, len(g.vw)),
	}
	copy(c.vw, g.vw)
	for v, nbrs := range g.adj {
		c.adj[v] = make([]Half, len(nbrs))
		copy(c.adj[v], nbrs)
	}
	return c
}

// InducedSubgraph returns the subgraph induced by keep (a vertex predicate),
// along with the mapping from new vertex ids to original ids.
func (g *Graph) InducedSubgraph(keep func(v int) bool) (*Graph, []int) {
	origID := make([]int, 0, len(g.adj))
	newID := make([]int, len(g.adj))
	for v := range g.adj {
		newID[v] = -1
		if keep(v) {
			newID[v] = len(origID)
			origID = append(origID, v)
		}
	}
	sub := New(len(origID))
	for i, v := range origID {
		sub.vw[i] = g.vw[v]
		for _, h := range g.adj[v] {
			if v < h.To && newID[h.To] >= 0 {
				sub.MustAddWeightedEdge(i, newID[h.To], h.Weight)
			}
		}
	}
	return sub, origID
}

// String returns a compact human-readable description of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}
