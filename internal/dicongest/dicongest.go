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
// options, arena, routing, faults, metering and tracing — is congest's,
// and a run is bit-identical to congest.Run on d.Underlying() for any
// program that reads only its link neighbors.
//
// Cut metering classifies each link against the bipartition: the crossing
// links are exactly the arc cut E_cut (antiparallel cut arcs share one
// link), so a T-round run exchanges at most 2·T·B·|E_cut| crossing bits —
// the Theorem 1.1 budget for the directed families.
package dicongest

import (
	"slices"
	"sort"

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
	FuncNode = congest.FuncNode
	Metrics  = congest.Metrics
	Result   = congest.Result
	Options  = congest.Options
	Arena    = congest.Arena
)

// Local is the information a node knows at wakeup: its id, the network
// size, its link neighbors (the union of out- and in-neighbors, sorted by
// id — the vertices it can exchange messages with), its out-arcs and
// in-arcs with their weights (index-aligned, sorted by the other
// endpoint's id), its own vertex weight, and optional problem input.
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

// sortedArcs renders one adjacency list as parallel (ids, weights) slices
// sorted by the other endpoint's id.
func sortedArcs(nbrs []graph.Half) ([]int, []int64) {
	ids := make([]int, len(nbrs))
	wts := make([]int64, len(nbrs))
	for i, h := range nbrs {
		ids[i] = h.To
		wts[i] = h.Weight
	}
	sort.Sort(&arcPairs{ids: ids, wts: wts})
	return ids, wts
}

type arcPairs struct {
	ids []int
	wts []int64
}

func (a *arcPairs) Len() int           { return len(a.ids) }
func (a *arcPairs) Less(i, j int) bool { return a.ids[i] < a.ids[j] }
func (a *arcPairs) Swap(i, j int) {
	a.ids[i], a.ids[j] = a.ids[j], a.ids[i]
	a.wts[i], a.wts[j] = a.wts[j], a.wts[i]
}

// Run simulates the factory's programs on d until every node terminates:
// congest's core over d's links, read in either direction.
func Run(d *graph.Digraph, factory Factory, opts Options) (*Result, error) {
	n := d.N()
	out := d.FreezePatchable()
	links := buildChannels(d, out, opts.Arena)
	return congest.RunLinks(links, func(v int) Node {
		window := links.Nbr[links.Offsets[v]:links.Offsets[v+1]]
		onbrs, owts := out.Window(v)
		local := Local{
			ID:           v,
			N:            n,
			Neighbors:    make([]int, len(window)),
			OutNeighbors: make([]int, len(onbrs)),
			OutWeights:   make([]int64, len(onbrs)),
			VertexWeight: d.VertexWeight(v),
		}
		for i, to := range window {
			local.Neighbors[i] = int(to)
		}
		for i, to := range onbrs {
			local.OutNeighbors[i] = int(to)
			local.OutWeights[i] = owts[i]
		}
		local.InNeighbors, local.InWeights = sortedArcs(d.InNeighbors(v))
		return factory(local)
	}, opts)
}
