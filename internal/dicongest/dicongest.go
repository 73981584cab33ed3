// Package dicongest simulates the CONGEST model on directed input graphs:
// n nodes communicate in synchronous rounds over the *links* of a digraph —
// every arc is a full-duplex physical link (antiparallel arc pairs collapse
// to one link), carrying at most one B-bit message per direction per round,
// with B = O(log n). Arc directions and weights are input data each endpoint
// knows at wakeup, which is exactly the setting of the paper's directed
// Section 2.2/4 constructions (Hamiltonian path, directed Steiner): the
// network is bidirectional, the problem instance is oriented.
//
// The network is therefore the digraph's underlying undirected graph, and
// Run is a front end on package congest's simulator core
// (congest.RunLinks): it merges the digraph's out-adjacency snapshot with
// its in-adjacency into sorted link windows and hands the core a directed
// Local per vertex. Everything else — message, node and result types,
// options, arena, port addressing, faults, metering, tracing and the
// event-driven round loop (congest.Sleeper, and the steady jump of
// congest.Repeater) — is congest's, and a run is bit-identical to
// congest.Run on d.Underlying() for any program that reads only its link
// neighbors.
//
// Cut metering classifies each link against the bipartition: the crossing
// links are exactly the arc cut E_cut (antiparallel cut arcs share one
// link), so a T-round run exchanges at most 2·T·B·|E_cut| crossing bits —
// the Theorem 1.1 budget for the directed families.
package dicongest

import (
	"slices"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// The simulation types are congest's: the directed front end differs only
// in what a node knows at wakeup (Local) and how its program is built
// (Factory).
type (
	Message  = congest.Message
	Incoming = congest.Incoming
	Node     = congest.Node
	Result   = congest.Result
	Options  = congest.Options
	Arena    = congest.Arena
)

// Local is the information a node knows at wakeup: its id, the network
// size, its link neighbors (the union of out- and in-neighbors, sorted by
// id — the vertices it can exchange messages with; a neighbor's index
// here is its port, as in congest.Local), its out-arcs and in-arcs with
// their weights (index-aligned, sorted by the other endpoint's id), its
// own vertex weight, and optional problem input. The slices are borrowed
// from the run's arena with congest.Local's lifetime: valid until that
// arena's next run, not to be modified.
type Local struct {
	ID           int
	N            int
	Neighbors    []int
	OutNeighbors []int
	OutWeights   []int64
	InNeighbors  []int
	InWeights    []int64
	VertexWeight int64
	Data         interface{}
}

// Factory constructs the program for one vertex.
type Factory func(local Local) Node

// buildChannels merges the out-adjacency CSR windows with the in-adjacency
// lists into sorted link windows, in the arena's link storage;
// antiparallel arc pairs collapse to a single link.
func buildChannels(d *graph.Digraph, out *graph.CSR, ar *Arena) congest.Links {
	n := d.N()
	offsets, nbr := ar.LinkBuffers(n, 2*d.M())
	offsets[0] = 0
	for v := 0; v < n; v++ {
		start := len(nbr)
		onbrs, _ := out.Window(v)
		nbr = append(nbr, onbrs...)
		for _, h := range d.InNeighbors(v) {
			if out.Rank(v, h.To) < 0 {
				nbr = append(nbr, int32(h.To))
			}
		}
		slices.Sort(nbr[start:])
		offsets[v+1] = int32(len(nbr))
	}
	return congest.Links{Offsets: offsets, Nbr: nbr}
}

// Run simulates the factory's programs on d until every node terminates:
// congest's core over d's links, read in either direction. Each node's
// Local views are carved in id order from the arena (see congest.Local
// for their lifetime); the in-arcs are the link neighbors that have an
// arc to the vertex, so they come out sorted without a sort.
func Run(d *graph.Digraph, factory Factory, opts Options) (*Result, error) {
	n, m := d.N(), d.M()
	out := d.Freeze()
	links := buildChannels(d, out, opts.Arena)
	ids, weights := opts.Arena.LocalBuffers(len(links.Nbr)+2*m, 2*m)
	return congest.RunLinks(links, func(v int) Node {
		window := links.Nbr[links.Offsets[v]:links.Offsets[v+1]]
		onbrs, owts := out.Window(v)
		local := Local{
			ID:           v,
			N:            n,
			Neighbors:    carve(&ids, len(window)),
			OutNeighbors: carve(&ids, len(onbrs)),
			OutWeights:   carve(&weights, len(onbrs)),
			InNeighbors:  carve(&ids, d.InDegree(v))[:0],
			InWeights:    carve(&weights, d.InDegree(v))[:0],
			VertexWeight: d.VertexWeight(v),
		}
		for i, to := range window {
			local.Neighbors[i] = int(to)
			if w, ok := out.EdgeWeight(int(to), v); ok {
				local.InNeighbors = append(local.InNeighbors, int(to))
				local.InWeights = append(local.InWeights, w)
			}
		}
		for i, to := range onbrs {
			local.OutNeighbors[i] = int(to)
		}
		copy(local.OutWeights, owts)
		return factory(local)
	}, opts)
}

// carve cuts the next k elements off the front of *buf, capped at k.
func carve[T any](buf *[]T, k int) []T {
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}
