package algorithms

import (
	"fmt"

	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
)

// This file implements collect-and-solve for directed instances as a real
// dicongest program: collect.go's gossip relay, run over the vertex's
// full-duplex links, with arc records and a weak-component finish. Every
// vertex gossips *arc* records over its links, one fixed-length frame chunk
// per arc per round. A record is the oriented weighted arc (from, to, w);
// its frame is 1 + weightChunks messages: first the id chunk from*n + to
// (which fits the CONGEST bandwidth B >= 2*ceil(log2(n+1))), then the
// weight in B-bit little-endian chunks (zero chunks when every kept weight
// is exactly 1 — zero- and alpha-weighted arcs, as in the directed Steiner
// family, force a weight chunk). Both endpoints of an arc know it at
// wakeup; every vertex relays every record it learns to every link
// neighbor exactly once, and receivers deduplicate by id in a node-local
// key set (a bitset or a hash set, as in collect.go). After the round
// budget expires the roots reconstruct the collected digraph and solve
// locally; no other vertex reconstructs.
//
// Who evaluates depends on the collection mode. With full collection
// (Keep == nil) every vertex learns its entire weakly-connected component
// (links are full duplex, so records flow against arc direction too), and
// the minimum-id vertex of each weak component is its root, evaluating
// Eval on the induced component sub-digraph — disconnected instances are
// handled by summing the per-component values, exact for
// component-additive quantities. Root election is the undirected one: a
// union-find over the vertex's own records, read as undirected edges,
// rules out every vertex they join to a smaller id, and only the others
// reconstruct. A union-find that joined all n vertices means the vertex
// is 0 and its weak component is the whole collected digraph, evaluated
// as rebuilt — no underlying graph, components or induced copy; any other
// survivor checks its weak component in the reconstruction. With a Keep
// filter the collected records no longer witness connectivity, so the
// digraph must be weakly connected and vertex 0 is the sole root.
// Reconstruction carries arcs and their weights but not remote vertex
// weights (like the undirected collect), so Eval must not depend on
// non-default vertex weights. Node state and the reconstruction digraph
// come from a Workspace, as in the undirected collect.
//
// The budget frame*(T + n + 2) + 4, with T the number of kept records,
// dominates the pipelined-flooding bound frame*(T + D) exactly as in the
// undirected analysis; nodes terminate at the budget rather than detecting
// quiescence. As in the undirected collect, a node sleeps from its last
// frame to the budget (the embedded relay's Wake), and the reported round
// count is still the budget T.

// DiCollectSpec configures one run of the directed gossip collect program.
type DiCollectSpec struct {
	// Keep filters which arcs are collected (nil keeps every arc). The
	// filter must be deterministic — both endpoints evaluate it
	// independently (shared randomness). A non-nil Keep requires a weakly
	// connected digraph (see above).
	Keep func(from, to int, w int64) bool
	// Eval runs at each root on its collected digraph: the root's weak
	// component (reindexed ascending, so a spanning component keeps
	// original ids) or the whole filtered collection (Keep != nil). The
	// per-root values are combined by CollectTotal. As with
	// CollectSpec.Eval, a spanning or filtered collection is the
	// workspace's rebuilt digraph: Eval must depend only on its vertices,
	// arcs and weights, and must neither modify nor keep it.
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
// nil) and must not drive concurrent Runs.
func DiCollectFactory(d *graph.Digraph, bandwidth int, spec DiCollectSpec) (dicongest.Factory, int, error) {
	n := d.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("collect requires a non-empty digraph")
	}
	if spec.Keep != nil && !weaklyConnected(d) {
		return nil, 0, fmt.Errorf("filtered collect requires a weakly connected digraph")
	}
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(n)
	}
	if err := congest.CheckBandwidth(bandwidth); err != nil {
		return nil, 0, err
	}
	if int64(n)*int64(n) > int64(1)<<bandwidth {
		return nil, 0, fmt.Errorf("bandwidth %d cannot carry arc ids of an n=%d digraph", bandwidth, n)
	}
	records, wchunks, neg, ok := frameLayout(n, d.OutNeighbors, spec.Keep, bandwidth)
	if !ok {
		return nil, 0, fmt.Errorf("collect cannot encode negative weight %d on arc (%d,%d)", neg.Weight, neg.From, neg.To)
	}
	frame := 1 + wchunks
	budget := frame*(records+n+2) + 4
	// A vertex links to each distinct in- or out-neighbor once: at most
	// OutDegree + InDegree links.
	spec.Workspace = orNewWorkspace(spec.Workspace)
	ws := spec.Workspace
	slab := newCollectSlab(ws, &ws.diNodes, n, records, bandwidth,
		func(v int) int { return d.OutDegree(v) + d.InDegree(v) })
	factory := func(local dicongest.Local) dicongest.Node {
		c := slab.node(local.ID)
		c.local = congest.Local{ID: local.ID, N: local.N, Neighbors: local.Neighbors}
		c.bw, c.budget, c.wchunks, c.spec, c.self = bandwidth, budget, wchunks, spec, c
		c.recordStore, c.links, c.outbox = slab.state(local.ID, len(local.Neighbors))
		c.parent = slab.parent
		for i, to := range local.OutNeighbors {
			c.consider(local.ID, to, local.OutWeights[i])
		}
		for i, from := range local.InNeighbors {
			c.consider(from, local.ID, local.InWeights[i])
		}
		return c
	}
	return factory, budget, nil
}

// weaklyConnected reports whether d's underlying undirected structure is
// connected.
func weaklyConnected(d *graph.Digraph) bool {
	return d.Underlying().IsConnected()
}

// diCollectNode is the gossip collect program on a directed instance: the
// undirected program's relay over the vertex's links, with arc records
// and a weak-component finish. Its spec shadows the embedded core's,
// which a directed node leaves zero.
type diCollectNode struct {
	collectNode
	spec DiCollectSpec // its Workspace is the factory's
}

func (c *diCollectNode) consider(from, to int, w int64) {
	if c.spec.Keep == nil || c.spec.Keep(from, to, w) {
		c.learn(int64(from)*int64(c.n)+int64(to), w)
	}
}

// finish decides root status and evaluates. Under filtered collection
// vertex 0 is the sole root and evaluates the whole collection. Under full
// collection the union-find first rules out a vertex its records join to
// a smaller id; any other vertex reconstructs the collected digraph. If
// the union-find joined all n vertices, the reconstruction is the
// vertex's weak component and it evaluates it directly; otherwise it
// checks whether it is the minimum id of its weak component there and
// evaluates the induced component sub-digraph.
func (c *diCollectNode) finish() {
	spanning := false
	if c.spec.Keep == nil {
		var joined bool
		if joined, spanning = c.elect(c.local.ID, c.parent); joined {
			return
		}
	}
	collected := &c.spec.Workspace.digraph
	collected.Recycle(c.n)
	for _, rec := range c.records {
		from, to := c.decode(rec.key)
		if err := collected.AddWeightedArc(from, to, rec.w); err != nil {
			if c.local.ID == 0 {
				c.out = collectOutput{root: true, err: fmt.Errorf("reconstructing collected digraph: %w", err)}
			}
			return
		}
	}
	if c.spec.Keep != nil {
		if c.local.ID == 0 {
			c.out.root = true
			c.out.value, c.out.err = c.spec.Eval(collected)
		}
		return
	}
	if spanning {
		c.out.root = true
		c.out.value, c.out.err = c.spec.Eval(collected)
		return
	}
	comp, _ := collected.Underlying().Components()
	mine := comp[c.local.ID]
	for v := 0; v < c.local.ID; v++ {
		if comp[v] == mine {
			return // a smaller id shares the component: not the root
		}
	}
	component, _ := collected.InducedSubdigraph(func(v int) bool { return comp[v] == mine })
	c.out.root = true
	c.out.value, c.out.err = c.spec.Eval(component)
}
