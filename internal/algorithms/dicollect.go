package algorithms

import (
	"fmt"

	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
)

// This file runs collect.go's gossip collect on directed instances, as a
// dicongest program over the vertex's full-duplex links. What differs:
//
//   - A record is the oriented weighted arc (from, to, w), and its id
//     chunk is from*n + to. Zero- and alpha-weighted arcs, as in the
//     directed Steiner family, force a weight chunk.
//   - Both endpoints of an arc know it at wakeup and seed it.
//   - Records flow against arc direction too, so a vertex learns its weak
//     component, and the roots are the minimum ids of the weak
//     components: root election reads the records as undirected edges,
//     and a root evaluates its induced weak component sub-digraph.
//
// Reconstruction carries arcs and their weights but not remote vertex
// weights (like the undirected collect), so Eval must not depend on
// non-default vertex weights.

// DiCollectSpec configures one run of the directed gossip collect program.
type DiCollectSpec struct {
	// Eval runs at each root on its collected digraph: the root's weak
	// component (reindexed ascending, so a spanning component keeps
	// original ids). The per-root values are combined by CollectTotal. As
	// with CollectSpec.Eval, the digraph is rebuilt in the workspace: Eval
	// must depend only on its vertices, arcs and weights, and must neither
	// modify nor keep it.
	Eval func(collected *graph.Digraph) (int64, error)
	// Workspace, if non-nil, supplies the factory's node state and the
	// roots' reconstruction digraph; nil allocates fresh memory.
	Workspace *Workspace
}

// DiCollectFactory builds the directed gossip program for d and returns
// the node factory together with the round budget baked into it. bandwidth
// must be the BandwidthBits the simulation will run with (0 selects the
// default), because the frame layout depends on it. Like CollectFactory's,
// the factory carves its nodes' state from spec.Workspace (a fresh one if
// nil), is bound to it once, and must not drive concurrent Runs.
func DiCollectFactory(d *graph.Digraph, bandwidth int, spec DiCollectSpec) (dicongest.Factory, int, error) {
	n := d.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("collect requires a non-empty digraph")
	}
	bandwidth, err := gossipBandwidth(n, bandwidth, "arc", "digraph")
	if err != nil {
		return nil, 0, err
	}
	records, wchunks, neg, ok := frameLayout(n, d.OutNeighbors, nil, bandwidth)
	if !ok {
		return nil, 0, fmt.Errorf("collect cannot encode negative weight %d on arc (%d,%d)", neg.Weight, neg.From, neg.To)
	}
	budget := collectBudget(n, records, wchunks)
	ws := orNewWorkspace(spec.Workspace)
	ws.diEval = spec.Eval
	// A vertex links to each distinct in- or out-neighbor once: at most
	// OutDegree + InDegree links.
	load(ws, &ws.diNodes, n, records, bandwidth, wchunks, budget,
		func(v int) int { return d.OutDegree(v) + d.InDegree(v) })
	if ws.directed == nil {
		ws.directed = ws.newDiNode
	}
	return ws.directed, budget, nil
}

// newDiNode is DiCollectFactory's factory, bound to the workspace once.
func (ws *Workspace) newDiNode(local dicongest.Local) dicongest.Node {
	c := slabNode(ws.diNodes, local.ID)
	c.bw, c.budget, c.wchunks, c.self = ws.chunk, ws.budget, ws.wchunks, c
	c.recordStore, c.links, c.outbox = ws.slab.state(local.ID, len(local.Neighbors))
	c.local = congest.Local{ID: local.ID, N: local.N, Neighbors: local.Neighbors}
	c.ws = ws
	for i, to := range local.OutNeighbors {
		c.learn(int64(local.ID)*int64(c.n)+int64(to), local.OutWeights[i])
	}
	for i, from := range local.InNeighbors {
		c.learn(int64(from)*int64(c.n)+int64(local.ID), local.InWeights[i])
	}
	return c
}

// diCollectNode is the gossip collect program on a directed instance: the
// undirected program's relay, whose root step rebuilds a digraph.
type diCollectNode struct {
	collectNode
}

// finish is the root step over the workspace's digraphs.
func (c *diCollectNode) finish() {
	ws := c.ws
	rootStep(&c.collectCore, false, &ws.digraph, &ws.subdigraph, (*graph.Digraph).AddWeightedArc, ws.diEval, "digraph")
}
