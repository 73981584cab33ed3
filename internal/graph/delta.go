package graph

import "fmt"

// EdgeDelta records one edge or arc mutation: the element {U, V} either
// became present with weight W (Add) or was removed while carrying weight
// W (!Add). A Graph records the canonical U < V; a Digraph records the
// arc's tail as U and its head as V, since direction is part of the arc's
// identity (see ArcHash). A weight change is recorded as a remove of the
// old weight followed by an add of the new one. Deltas are the currency
// of the incremental observers built on top of the graph kinds: the
// lower-bound-family verifier folds them into its structural hashes in
// O(1) per delta instead of rehashing the whole instance per input pair.
type EdgeDelta struct {
	U, V int
	W    int64
	Add  bool
}

// VertexDelta records one vertex-weight mutation in the same remove/add
// currency as EdgeDelta: vertex V either took on weight W (Add) or gave
// up weight W (!Add), so a weight change is a remove of the old weight
// followed by an add of the new one. Incremental observers fold each
// entry into the affected side's HashWithin with one VertexHash XOR.
type VertexDelta struct {
	V   int
	W   int64
	Add bool
}

// journal is the mutation journal Graph and Digraph embed, which supports
// the delta machinery in this file. Vertex-weight mutations are journaled
// apart from edge mutations because they fold into different structural
// hashes; only a Graph records them.
type journal struct {
	on       bool
	edges    []EdgeDelta
	vertices []VertexDelta
}

// StartJournal begins recording edge or arc mutations (ToggleEdge,
// SetEdgeWeight, ToggleArc and the AddEdge and AddArc variants) and a
// Graph's vertex-weight mutations (SetVertexWeight) into journals
// readable via Journal and VertexJournal. Vertex additions (AddVertex)
// are not journaled; incremental observers require a fixed vertex set,
// which is exactly the Definition 1.1 condition 1 the verifier's families
// guarantee.
func (j *journal) StartJournal() {
	j.on = true
	j.ClearJournal()
}

// Journal returns the edge or arc mutations recorded since the last
// ClearJournal (or StartJournal). The slice is internal storage: read it,
// then ClearJournal.
func (j *journal) Journal() []EdgeDelta { return j.edges }

// VertexJournal returns the vertex-weight mutations recorded since the
// last ClearJournal (or StartJournal); internal storage, like Journal.
func (j *journal) VertexJournal() []VertexDelta { return j.vertices }

// ClearJournal drops the recorded mutations while keeping recording on.
func (j *journal) ClearJournal() {
	j.edges = j.edges[:0]
	j.vertices = j.vertices[:0]
}

// record logs one edge or arc mutation into the journal.
func (j *journal) record(u, v int, w int64, add bool) {
	if j.on {
		j.edges = append(j.edges, EdgeDelta{U: u, V: v, W: w, Add: add})
	}
}

// ToggleEdge adds the edge {u, v} with weight w if it is absent and removes
// it (ignoring w) if it is present, reporting whether the edge is present
// after the call. This is the verifier's delta primitive: unlike AddEdge
// it keeps the Freeze snapshot valid by splicing the affected CSR windows
// in place, O(deg) per endpoint, instead of discarding the snapshot.
//
//hardness:hotpath
func (g *Graph) ToggleEdge(u, v int, w int64) (added bool, err error) {
	if err := g.checkVertex(u); err != nil {
		return false, err
	}
	if err := g.checkVertex(v); err != nil {
		return false, err
	}
	if u == v {
		return false, fmt.Errorf("self loop at vertex %d", u)
	}
	if i := halfIndex(g.adj[u], v); i >= 0 {
		oldW := g.adj[u][i].Weight
		g.removeHalf(u, i)
		g.removeHalf(v, halfIndex(g.adj[v], u))
		if c := g.csr.Load(); c != nil {
			c.spliceRemove(u, v)
			c.spliceRemove(v, u)
		}
		g.record(min(u, v), max(u, v), oldW, false)
		return false, nil
	}
	g.adj[u] = append(g.adj[u], Half{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], Half{To: u, Weight: w})
	if c := g.csr.Load(); c != nil && (!c.spliceInsert(u, v, w) || !c.spliceInsert(v, u, w)) {
		// A window ran out of slack: rebuild the snapshot with doubled
		// slack. Amortized O(1) per toggle — the delta walks revisit the
		// same bounded degree range, so rebuilds stop once the peak degree
		// has been seen.
		g.csr.Store(newCSR(g.adj, 2*c.slack))
	}
	g.record(min(u, v), max(u, v), w, true)
	return true, nil
}

// halfIndex returns the position of neighbor v in the adjacency list, or -1.
func halfIndex(nbrs []Half, v int) int {
	for i, h := range nbrs {
		if h.To == v {
			return i
		}
	}
	return -1
}

// ToggleArc adds the arc (u, v) with weight w if it is absent and removes
// it (ignoring w) if it is present, reporting whether the arc is present
// after the call. This is the directed verifier's delta primitive: unlike
// AddArc it keeps the Freeze snapshot valid by splicing the affected
// out-window in place, O(outdeg), instead of discarding the snapshot.
//
//hardness:hotpath
func (d *Digraph) ToggleArc(u, v int, w int64) (added bool, err error) {
	if err := d.checkVertex(u); err != nil {
		return false, err
	}
	if err := d.checkVertex(v); err != nil {
		return false, err
	}
	if u == v {
		return false, fmt.Errorf("self loop at vertex %d", u)
	}
	if i := halfIndex(d.out[u], v); i >= 0 {
		oldW := d.out[u][i].Weight
		d.out[u] = removeHalfAt(d.out[u], i)
		d.in[v] = removeHalfAt(d.in[v], halfIndex(d.in[v], u))
		if c := d.csr.Load(); c != nil {
			c.spliceRemove(u, v)
		}
		d.record(u, v, oldW, false)
		return false, nil
	}
	d.out[u] = append(d.out[u], Half{To: v, Weight: w})
	d.in[v] = append(d.in[v], Half{To: u, Weight: w})
	if c := d.csr.Load(); c != nil && !c.spliceInsert(u, v, w) {
		// The out-window ran out of slack: rebuild the snapshot with
		// doubled slack, amortized O(1) per toggle.
		d.csr.Store(newCSR(d.out, 2*c.slack))
	}
	d.record(u, v, w, true)
	return true, nil
}

// removeHalf deletes entry i of u's adjacency list, preserving order.
func (g *Graph) removeHalf(u, i int) {
	g.adj[u] = removeHalfAt(g.adj[u], i)
}

// removeHalfAt deletes entry i of an adjacency list, preserving order.
func removeHalfAt(nbrs []Half, i int) []Half {
	copy(nbrs[i:], nbrs[i+1:])
	return nbrs[:len(nbrs)-1]
}
