package solver

import (
	"congesthard/internal/graph"
)

// Every decision oracle that Verify reaches carries a certificate for its
// YES answers: a dominating set, a Hamiltonian path, a cut side, a Steiner
// vertex set, an arc set or an independent set (the nondeterministic
// certificates of Section 5). A YES found by a search is confirmed by the
// checker of its kind below before it is returned, and the oracle keeps
// it; decide (carry.go) checks it against the next instance first.
// Consecutive pairs of a Gray walk differ by one bit's change list, so the
// last certificate often survives. A certificate is trusted only because
// its check passed on the instance at hand, never because of where it
// came from. Each checker is independent of the search it confirms, runs
// in O(n + m) and allocates nothing: its scratch is passed in.

// markBuf returns *buf cleared and sized for n bits, growing it only when
// it is too small.
func markBuf(buf *bitset, n int) bitset {
	words := (n + 63) / 64
	if cap(*buf) < words {
		*buf = newBitset(n)
	}
	b := (*buf)[:words]
	clear(b)
	return b
}

// checkDominatingSet reports whether set dominates every vertex of g and
// weighs at most limit: every vertex weighs 1 when unit, else its vertex
// weight. mark holds at least n bits.
func checkDominatingSet(g *graph.Graph, set []int, unit bool, limit int64, mark bitset) bool {
	n := g.N()
	clear(mark)
	var weight int64
	for _, v := range set {
		if v < 0 || v >= n {
			return false
		}
		if unit {
			weight++
		} else {
			weight += g.VertexWeight(v)
		}
		mark.set(v)
		for _, h := range g.Neighbors(v) {
			mark.set(h.To)
		}
	}
	return weight <= limit && mark.count() == n
}

// checkHamPath reports whether path visits every vertex of d once along
// arcs of d, starting at start and, if end >= 0, ending at end (start < 0:
// any start). mark holds at least n bits.
func checkHamPath(d *graph.Digraph, path []int, start, end int, mark bitset) bool {
	n := d.N()
	if len(path) != n || n > 0 && (start >= 0 && path[0] != start || end >= 0 && path[n-1] != end) {
		return false
	}
	clear(mark)
	for i, v := range path {
		if v < 0 || v >= n || mark.get(v) {
			return false
		}
		mark.set(v)
		if i > 0 && !d.HasArc(path[i-1], v) {
			return false
		}
	}
	return true
}

// checkCut reports whether side assigns every vertex of g a side and the
// edges between the sides weigh at least target.
func checkCut(g *graph.Graph, side []bool, target int64) bool {
	n := g.N()
	if len(side) != n {
		return false
	}
	var weight int64
	for u := 0; u < n; u++ {
		for _, h := range g.Neighbors(u) {
			if u < h.To && side[u] != side[h.To] {
				weight += h.Weight
			}
		}
	}
	return weight >= target
}

// checkSteinerSet reports whether set, a list of distinct vertices of g,
// holds every terminal, has at most maxEdges+1 vertices and induces a
// connected subgraph, whose spanning tree is then a Steiner tree of at
// most maxEdges edges. mark holds at least n bits and queue has capacity
// at least len(set).
func checkSteinerSet(g *graph.Graph, set, terminals []int, maxEdges int, mark bitset, queue []int) bool {
	n := g.N()
	if len(set) == 0 || len(set)-1 > maxEdges {
		return false
	}
	clear(mark)
	for _, v := range set {
		if v < 0 || v >= n || mark.get(v) {
			return false
		}
		mark.set(v)
	}
	for _, t := range terminals {
		if t < 0 || t >= n || !mark.get(t) {
			return false
		}
	}
	// Flood from set[0], clearing each vertex's mark as it is reached.
	queue = append(queue[:0], set[0])
	mark.clear(set[0])
	for head := 0; head < len(queue); head++ {
		for _, h := range g.Neighbors(queue[head]) {
			if mark.get(h.To) {
				mark.clear(h.To)
				queue = append(queue, h.To)
			}
		}
	}
	return len(queue) == len(set)
}

// arcCheck is checkArcSet's scratch: a stamp per arc slot (the j-th
// out-arc of u is slot off[u]+j) and per vertex, and the flood queue.
type arcCheck struct {
	off       []int
	arcStamp  []uint32
	vertStamp []uint32
	stamp     uint32
	queue     []int
}

// checkArcSet reports whether arcs, distinct arcs of d of positive weight
// totalling at most budget, make every terminal reachable from root
// together with the zero-weight arcs of d.
func (c *arcCheck) checkArcSet(d *graph.Digraph, arcs [][2]int, root int, terminals []int, budget int64) bool {
	n := d.N()
	if root < 0 || root >= n {
		return false
	}
	if len(c.off) < n+1 {
		c.off = make([]int, n+1)
		c.vertStamp = make([]uint32, n)
		c.queue = make([]int, 0, n)
	}
	for u := 0; u < n; u++ {
		c.off[u+1] = c.off[u] + len(d.OutNeighbors(u))
	}
	if m := c.off[n]; len(c.arcStamp) < m {
		c.arcStamp = make([]uint32, m+m/2)
	}
	if c.stamp++; c.stamp == 0 { // wrapped: forget every old stamp
		clear(c.arcStamp)
		clear(c.vertStamp)
		c.stamp = 1
	}
	var total int64
	for _, a := range arcs {
		u, v := a[0], a[1]
		if u < 0 || u >= n {
			return false
		}
		slot := -1
		for j, h := range d.OutNeighbors(u) {
			if h.To == v {
				slot, total = c.off[u]+j, total+h.Weight
				if h.Weight <= 0 {
					return false
				}
				break
			}
		}
		if slot < 0 || c.arcStamp[slot] == c.stamp {
			return false // absent or repeated
		}
		c.arcStamp[slot] = c.stamp
	}
	if total > budget {
		return false
	}
	c.queue = append(c.queue[:0], root)
	c.vertStamp[root] = c.stamp
	for head := 0; head < len(c.queue); head++ {
		u := c.queue[head]
		for j, h := range d.OutNeighbors(u) {
			if (h.Weight == 0 || c.arcStamp[c.off[u]+j] == c.stamp) && c.vertStamp[h.To] != c.stamp {
				c.vertStamp[h.To] = c.stamp
				c.queue = append(c.queue, h.To)
			}
		}
	}
	for _, t := range terminals {
		if t < 0 || t >= n || c.vertStamp[t] != c.stamp {
			return false
		}
	}
	return true
}

// checkIndependentSet reports whether no edge of g joins two vertices of
// set and its distinct vertices weigh at least target: every vertex weighs
// 1 when unit, else its vertex weight. mark holds at least n bits.
func checkIndependentSet(g *graph.Graph, set []int, unit bool, target int64, mark bitset) bool {
	n := g.N()
	clear(mark)
	var weight int64
	for _, v := range set {
		if v < 0 || v >= n {
			return false
		}
		if mark.get(v) {
			continue
		}
		mark.set(v)
		if unit {
			weight++
		} else {
			weight += g.VertexWeight(v)
		}
	}
	for _, v := range set {
		for _, h := range g.Neighbors(v) {
			if mark.get(h.To) {
				return false
			}
		}
	}
	return weight >= target
}
