package solver

import (
	"fmt"

	"congesthard/internal/graph"
)

// MaxFlow computes the maximum s-t flow in the digraph d, using arc weights
// as capacities (Dinic's algorithm), and a flow realizing it, arc by arc in
// d.Arcs() order. By max-flow/min-cut duality the value also equals the
// minimum s-t cut, which is how the Section 5.2 nondeterministic protocols
// certify both directions (Claim 5.11).
func MaxFlow(d *graph.Digraph, s, t int) (int64, []int64, error) {
	f, value, err := runDinic(d, s, t)
	if err != nil {
		return 0, nil, err
	}
	flow := make([]int64, len(f.arcs))
	for i, at := range f.arcs {
		e := f.adj[at[0]][at[1]]
		flow[i] = f.adj[e.to][e.rev].cap
	}
	return value, flow, nil
}

// MinSTCut computes the minimum s-t cut value and a realizing side (true =
// source side), via max-flow and residual reachability. The side is the
// witness for the "MF < k" nondeterministic protocol of Claim 5.11.
func MinSTCut(d *graph.Digraph, s, t int) (int64, []bool, error) {
	f, value, err := runDinic(d, s, t)
	if err != nil {
		return 0, nil, err
	}
	// Residual reachability from s.
	side := make([]bool, d.N())
	queue := []int{s}
	side[s] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range f.adj[v] {
			if e.cap > 0 && !side[e.to] {
				side[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return value, side, nil
}

// runDinic runs Dinic's algorithm from s to t on d's arcs and returns the
// residual network with the flow value.
func runDinic(d *graph.Digraph, s, t int) (*dinic, int64, error) {
	n := d.N()
	if s < 0 || s >= n || t < 0 || t >= n {
		return nil, 0, fmt.Errorf("source/sink out of range: s=%d t=%d n=%d", s, t, n)
	}
	if s == t {
		return nil, 0, fmt.Errorf("source equals sink (%d)", s)
	}
	f := newDinic(n)
	for _, a := range d.Arcs() {
		if a.Weight < 0 {
			return nil, 0, fmt.Errorf("negative capacity on arc (%d,%d)", a.From, a.To)
		}
		f.addEdge(a.From, a.To, a.Weight)
	}
	return f, f.maxFlow(s, t), nil
}

// CutCapacity returns the total capacity of arcs leaving the true side.
func CutCapacity(d *graph.Digraph, side []bool) int64 {
	var total int64
	for _, a := range d.Arcs() {
		if side[a.From] && !side[a.To] {
			total += a.Weight
		}
	}
	return total
}

type dinicEdge struct {
	to, rev int
	cap     int64
}

type dinic struct {
	adj   [][]dinicEdge
	arcs  [][2]int // arcs[i] = (u, index in adj[u]) of the i-th added edge
	level []int
	iter  []int
}

func newDinic(n int) *dinic {
	return &dinic{
		adj:   make([][]dinicEdge, n),
		level: make([]int, n),
		iter:  make([]int, n),
	}
}

func (f *dinic) addEdge(u, v int, cap int64) {
	f.arcs = append(f.arcs, [2]int{u, len(f.adj[u])})
	f.adj[u] = append(f.adj[u], dinicEdge{to: v, rev: len(f.adj[v]), cap: cap})
	f.adj[v] = append(f.adj[v], dinicEdge{to: u, rev: len(f.adj[u]) - 1, cap: 0})
}

func (f *dinic) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	queue := []int{s}
	f.level[s] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range f.adj[v] {
			if e.cap > 0 && f.level[e.to] < 0 {
				f.level[e.to] = f.level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return f.level[t] >= 0
}

func (f *dinic) dfs(v, t int, limit int64) int64 {
	if v == t {
		return limit
	}
	for ; f.iter[v] < len(f.adj[v]); f.iter[v]++ {
		e := &f.adj[v][f.iter[v]]
		if e.cap > 0 && f.level[v] < f.level[e.to] {
			pushed := limit
			if e.cap < pushed {
				pushed = e.cap
			}
			got := f.dfs(e.to, t, pushed)
			if got > 0 {
				e.cap -= got
				f.adj[e.to][e.rev].cap += got
				return got
			}
		}
	}
	return 0
}

func (f *dinic) maxFlow(s, t int) int64 {
	const inf = int64(1) << 62
	var flow int64
	for f.bfs(s, t) {
		for i := range f.iter {
			f.iter[i] = 0
		}
		for {
			pushed := f.dfs(s, t, inf)
			if pushed == 0 {
				break
			}
			flow += pushed
		}
	}
	return flow
}
