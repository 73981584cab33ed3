package graph

import "fmt"

// EdgeDelta records one edge mutation: the edge {U, V} (canonical U < V)
// either became present with weight W (Add) or was removed while carrying
// weight W (!Add). A weight change is recorded as a remove of the old
// weight followed by an add of the new one. Deltas are the currency of the
// incremental observers built on top of the graph: the lower-bound-family
// verifier folds them into its structural hashes in O(1) per delta instead
// of rehashing the whole graph per input pair.
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

// StartJournal begins recording edge mutations (ToggleEdge, SetEdgeWeight,
// AddEdge variants) and vertex-weight mutations (SetVertexWeight) into
// internal journals readable via Journal and VertexJournal. Vertex
// additions (AddVertex) are not journaled; incremental observers require a
// fixed vertex set, which is exactly the Definition 1.1 condition 1 the
// verifier's families guarantee.
func (g *Graph) StartJournal() {
	g.journalOn = true
	g.journal = g.journal[:0]
	g.vwJournal = g.vwJournal[:0]
}

// Journal returns the edge mutations recorded since the last ClearJournal
// (or StartJournal). The slice is internal storage: read it, then
// ClearJournal.
func (g *Graph) Journal() []EdgeDelta { return g.journal }

// VertexJournal returns the vertex-weight mutations recorded since the
// last ClearJournal (or StartJournal); internal storage, like Journal.
func (g *Graph) VertexJournal() []VertexDelta { return g.vwJournal }

// ClearJournal drops the recorded mutations while keeping recording on.
func (g *Graph) ClearJournal() {
	g.journal = g.journal[:0]
	g.vwJournal = g.vwJournal[:0]
}

// record logs one edge mutation into the journal.
func (g *Graph) record(u, v int, w int64, add bool) {
	if !g.journalOn {
		return
	}
	if u > v {
		u, v = v, u
	}
	g.journal = append(g.journal, EdgeDelta{U: u, V: v, W: w, Add: add})
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
		g.record(u, v, oldW, false)
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
	g.record(u, v, w, true)
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

// removeHalf deletes entry i of u's adjacency list, preserving order.
func (g *Graph) removeHalf(u, i int) {
	g.adj[u] = removeHalfAt(g.adj[u], i)
}
