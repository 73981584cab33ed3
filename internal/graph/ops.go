package graph

import (
	"container/heap"
	"strconv"
	"strings"
)

// BFS returns the vector of hop distances from src; unreachable vertices get
// distance -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range g.adj[v] {
			if dist[h.To] < 0 {
				dist[h.To] = dist[v] + 1
				queue = append(queue, h.To)
			}
		}
	}
	return dist
}

// IsConnected reports whether g is connected (true for the empty graph and
// single vertices).
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Components returns the component index of every vertex and the number of
// connected components.
func (g *Graph) Components() ([]int, int) {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	for s := range comp {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = count
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, h := range g.adj[v] {
				if comp[h.To] < 0 {
					comp[h.To] = count
					queue = append(queue, h.To)
				}
			}
		}
		count++
	}
	return comp, count
}

// Diameter returns the hop diameter of g, or -1 if g is disconnected or
// empty.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diameter := 0
	for v := 0; v < g.N(); v++ {
		dist := g.BFS(v)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}

// Dijkstra returns weighted shortest-path distances from src using edge
// weights, which must be non-negative. Unreachable vertices get -1.
func (g *Graph) Dijkstra(src int) []int64 {
	const unreached = int64(-1)
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = unreached
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	pq := &dijkstraHeap{}
	heap.Push(pq, dijkstraItem{v: src, d: 0})
	for pq.Len() > 0 {
		it := heap.Pop(pq).(dijkstraItem)
		if dist[it.v] != unreached {
			continue
		}
		dist[it.v] = it.d
		for _, h := range g.adj[it.v] {
			if dist[h.To] == unreached {
				heap.Push(pq, dijkstraItem{v: h.To, d: it.d + h.Weight})
			}
		}
	}
	return dist
}

type dijkstraItem struct {
	v int
	d int64
}

type dijkstraHeap []dijkstraItem

func (h dijkstraHeap) Len() int           { return len(h) }
func (h dijkstraHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h dijkstraHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *dijkstraHeap) Push(x interface{}) { *h = append(*h, x.(dijkstraItem)) }

func (h *dijkstraHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Power returns the k-th power graph G^k: same vertex set, an edge between
// every pair of distinct vertices at hop distance at most k in g. Vertex
// weights are preserved; edges are unweighted.
func (g *Graph) Power(k int) *Graph {
	p := New(g.N())
	copy(p.vw, g.vw)
	for v := 0; v < g.N(); v++ {
		dist := g.BFS(v)
		for u := v + 1; u < g.N(); u++ {
			if dist[u] >= 1 && dist[u] <= k {
				p.MustAddEdge(v, u)
			}
		}
	}
	return p
}

// Bridges returns the bridge edges of g in canonical form.
func (g *Graph) Bridges() []Edge {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	var bridges []Edge
	timer := 0
	// Iterative DFS to avoid recursion limits on long path-like graphs.
	type frame struct {
		v, parent, idx int
	}
	for s := 0; s < n; s++ {
		if disc[s] >= 0 {
			continue
		}
		stack := []frame{{v: s, parent: -1}}
		disc[s], low[s] = timer, timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(g.adj[f.v]) {
				h := g.adj[f.v][f.idx]
				f.idx++
				if h.To == f.parent {
					// Parallel edges are impossible by construction, so the
					// single edge back to the parent is always a tree edge.
					continue
				}
				if disc[h.To] < 0 {
					disc[h.To], low[h.To] = timer, timer
					timer++
					stack = append(stack, frame{v: h.To, parent: f.v})
				} else if low[f.v] > disc[h.To] {
					low[f.v] = disc[h.To]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
				if low[f.v] > disc[p.v] {
					u, v := p.v, f.v
					if u > v {
						u, v = v, u
					}
					w, _ := g.EdgeWeight(u, v)
					bridges = append(bridges, Edge{U: u, V: v, Weight: w})
				}
			}
		}
	}
	return bridges
}

// Is2EdgeConnected reports whether g is connected, has at least 2 vertices,
// and contains no bridges.
func (g *Graph) Is2EdgeConnected() bool {
	if g.N() < 2 || !g.IsConnected() {
		return false
	}
	return len(g.Bridges()) == 0
}

// Signature returns a canonical string encoding of the graph (vertex count,
// vertex weights, sorted weighted edge list). Two graphs have equal
// signatures iff they are identical as labeled weighted graphs. It is used
// by the lower-bound-family verifier to check which parts of a construction
// depend on which player's input.
func (g *Graph) Signature() string {
	var b strings.Builder
	b.WriteString("n=")
	b.WriteString(strconv.Itoa(g.N()))
	b.WriteString(";vw=")
	for _, w := range g.vw {
		b.WriteString(strconv.FormatInt(w, 10))
		b.WriteByte(',')
	}
	b.WriteString(";e=")
	for _, e := range g.Edges() {
		b.WriteString(strconv.Itoa(e.U))
		b.WriteByte('-')
		b.WriteString(strconv.Itoa(e.V))
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(e.Weight, 10))
		b.WriteByte(',')
	}
	return b.String()
}

// CutEdges returns the edges with exactly one endpoint in side (canonical
// form, sorted).
func (g *Graph) CutEdges(side []bool) []Edge {
	var cut []Edge
	for _, e := range g.Edges() {
		if side[e.U] != side[e.V] {
			cut = append(cut, e)
		}
	}
	return cut
}

// CutWeight returns the total weight of edges crossing the side partition.
func (g *Graph) CutWeight(side []bool) int64 {
	var total int64
	for u, nbrs := range g.adj {
		for _, h := range nbrs {
			if u < h.To && side[u] != side[h.To] {
				total += h.Weight
			}
		}
	}
	return total
}
