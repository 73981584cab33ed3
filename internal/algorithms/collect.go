package algorithms

import (
	"fmt"
	"math/bits"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// This file implements the collect upper bound as a real simulator
// program, so its communication is metered message by message (unlike
// CollectAndSolve, which only computes the round count analytically).
//
// Protocol: every vertex gossips edge records to all neighbors, one
// fixed-length frame chunk per edge per round. A record is the canonical
// weighted edge {u, v, w}; its frame is 1 + weightChunks messages: first
// the id chunk u*n + v (which always fits the CONGEST bandwidth
// B >= 2*ceil(log2(n+1)) because u*n + v < n^2 <= 2^B), then the weight in
// B-bit little-endian chunks (zero chunks when every kept weight is
// exactly 1). Each vertex relays every record it learns to every neighbor
// exactly once; receivers deduplicate by id in a node-local key set: a
// bitset over every id the bandwidth carries, or a hash set when that
// bitset would be larger (see keySetWords).
// After the round budget expires the roots reconstruct the collected
// graph and solve locally; no other vertex reconstructs anything.
//
// Who evaluates depends on the collection mode. With full collection
// (Keep == nil) every vertex learns its entire connected component, and
// the minimum-id vertex of each component is its root, evaluating Eval on
// that component — disconnected instances (e.g. the MDS family's
// all-zeros graph) are handled by summing the per-component values, which
// is exact for component-additive quantities like the domination number.
// Root election runs a union-find over the vertex's own records: a vertex
// that they join to a smaller id is not a root and outputs the zero value
// without reconstructing anything. Any other vertex reconstructs its
// collected graph (a reconstruction error makes it a non-root, as
// before). If the union-find joined all n vertices, the vertex is 0 and
// its component is the whole collected graph, which it evaluates as
// rebuilt; otherwise it finds its component in the reconstruction and
// evaluates the induced component subgraph if no smaller id shares it.
// The election is exact even when drops leave a vertex a partial,
// disconnected view: records that join it to a smaller id join it in the
// reconstruction too, whatever else the vertex knows.
// With a Keep filter the collected records no longer witness
// connectivity, so the graph must be connected and vertex 0 is the sole
// root, evaluating Eval on the full filtered collection.
//
// Memory: a factory carves every node's state from a Workspace and its
// roots rebuild into the workspace's graph, so a factory built on a warm
// workspace (CollectSpec.Workspace) allocates no node state. Without one
// the factory allocates a workspace of its own.
//
// The budget frame*(T + n + 2) + 4, with T the number of kept records,
// dominates the classic pipelined-flooding bound frame*(T + D): a record
// waits behind at most T-1 earlier frames per hop and travels at most
// D <= n - 1 hops. Nodes terminate at the budget rather than detecting
// quiescence — the budget is computed by the harness from (n, m), the
// same simulation shortcut CollectAndSolve documents.

// CollectSpec configures one run of the gossip collect program.
type CollectSpec struct {
	// Keep filters which edges are collected (nil keeps every edge). The
	// filter must be symmetric in its endpoints and deterministic — both
	// endpoints evaluate it independently (shared randomness). A non-nil
	// Keep requires a connected graph (see above).
	Keep func(u, v int, w int64) bool
	// Eval runs at each root on its collected graph: the root's connected
	// component (reindexed, full collection) or the whole filtered
	// collection (Keep != nil). The per-root values are combined by
	// CollectTotal. A spanning or filtered collection is passed as
	// rebuilt in the workspace, whose adjacency lists follow the order the
	// root learned its records, so Eval must depend only on the graph's
	// vertices, edges and weights, and must neither modify the graph nor
	// keep it past its return.
	Eval func(collected *graph.Graph) (int64, error)
	// Workspace, if non-nil, supplies the factory's node state and the
	// roots' reconstruction graph (see Workspace for its ownership rule);
	// nil allocates fresh memory for the factory.
	Workspace *Workspace
}

// collectOutput is a root's Output value (zero value at non-roots).
type collectOutput struct {
	root  bool
	value int64
	err   error
}

// CollectFactory builds the gossip program for g and returns the node
// factory together with the round budget baked into it. bandwidth must be
// the BandwidthBits the simulation will run with (0 selects the default),
// because the frame layout depends on it. The factory carves the state of
// every node it creates from spec.Workspace (a fresh one if nil): it can
// drive several Runs one after another, but must not drive concurrent
// Runs (the same rule as congest.Arena), nor run once another factory has
// been built on its workspace.
func CollectFactory(g *graph.Graph, bandwidth int, spec CollectSpec) (congest.Factory, int, error) {
	n := g.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("collect requires a non-empty graph")
	}
	if spec.Keep != nil && !g.IsConnected() {
		return nil, 0, fmt.Errorf("filtered collect requires a connected graph")
	}
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(n)
	}
	if err := congest.CheckBandwidth(bandwidth); err != nil {
		return nil, 0, err
	}
	if int64(n)*int64(n) > int64(1)<<bandwidth {
		return nil, 0, fmt.Errorf("bandwidth %d cannot carry edge ids of an n=%d graph", bandwidth, n)
	}
	records, wchunks, neg, ok := frameLayout(n, g.Neighbors, canonical(spec.Keep), bandwidth)
	if !ok {
		return nil, 0, negativeEdge(neg)
	}
	frame := 1 + wchunks
	budget := frame*(records+n+2) + 4
	spec.Workspace = orNewWorkspace(spec.Workspace)
	ws := spec.Workspace
	slab := newCollectSlab(ws, &ws.collectNodes, &ws.outbox, n, records, bandwidth, g.Degree)
	factory := func(local congest.Local) congest.Node {
		c := slab.node(local.ID)
		c.bw, c.budget, c.wchunks = bandwidth, budget, wchunks
		c.recordStore, c.links, c.outbox = slab.state(local.ID, len(local.Neighbors))
		c.seed(local, spec, slab.parent)
		return c
	}
	return factory, budget, nil
}

// frameLayout derives the frame shape of an n-vertex instance from its
// kept records — (u, h.To, h.Weight) for every h in nbrs(u) that keep
// accepts (nil keeps all) — straight from the adjacency lists: the record
// count T, and the number of chunkBits-wide weight chunks (zero when
// every kept weight is exactly 1). A negative weight cannot be encoded:
// ok = false names the first kept negative record in ascending (u, v)
// order. Shared by the three collect factories; collect-retry's chunks
// are bandwidth minus the retry header.
func frameLayout(n int, nbrs func(u int) []graph.Half, keep func(u, v int, w int64) bool, chunkBits int) (records, wchunks int, neg graph.Arc, ok bool) {
	var maxW int64
	weighted := false
	for u := 0; u < n; u++ {
		neg.From = -1
		for _, h := range nbrs(u) {
			switch {
			case keep != nil && !keep(u, h.To, h.Weight):
			case h.Weight < 0:
				if neg.From < 0 || h.To < neg.To {
					neg = graph.Arc{From: u, To: h.To, Weight: h.Weight}
				}
			default:
				records++
				weighted = weighted || h.Weight != 1
				maxW = max(maxW, h.Weight)
			}
		}
		if neg.From >= 0 {
			return 0, 0, neg, false
		}
	}
	if weighted {
		wchunks = max((bits.Len64(uint64(maxW))+chunkBits-1)/chunkBits, 1)
	}
	return records, wchunks, graph.Arc{}, true
}

// canonical wraps a Keep filter for frameLayout over undirected adjacency
// lists, which hold each edge at both endpoints: it keeps the u < v
// orientation only.
func canonical(keep func(u, v int, w int64) bool) func(u, v int, w int64) bool {
	return func(u, v int, w int64) bool { return u < v && (keep == nil || keep(u, v, w)) }
}

// negativeEdge is the error for a kept edge frameLayout cannot encode.
func negativeEdge(e graph.Arc) error {
	return fmt.Errorf("collect cannot encode negative weight %d on edge {%d,%d}", e.Weight, e.From, e.To)
}

// CollectTotal sums the root values of a finished run: the single root's
// value under filtered collection, the per-component values under full
// collection (exact for component-additive quantities).
func CollectTotal(res *congest.Result) (int64, error) {
	var total int64
	roots := 0
	for v, out := range res.Outputs {
		c, ok := out.(collectOutput)
		if !ok {
			return 0, fmt.Errorf("vertex %d did not run the collect program", v)
		}
		if !c.root {
			continue
		}
		if c.err != nil {
			return 0, fmt.Errorf("root %d: %w", v, c.err)
		}
		roots++
		total += c.value
	}
	if roots == 0 {
		return 0, fmt.Errorf("no root produced a value")
	}
	return total, nil
}

// collectCore is the record store and root-evaluation logic shared by the
// gossip collect program and its retransmitting variant: which edges this
// vertex knows, and the end-of-budget root election and evaluation.
type collectCore struct {
	recordStore
	local  congest.Local
	spec   CollectSpec // its Workspace is the factory's
	parent []int32     // union-find scratch, shared by the run's nodes
	out    collectOutput
}

type collectNode struct {
	collectCore
	bw      int
	budget  int
	wchunks int

	links  []linkState
	outbox []congest.Message
}

// seed sets up the vertex's core around its empty record store and
// learns its incident kept edges (canonical u < v orientation).
func (c *collectCore) seed(local congest.Local, spec CollectSpec, parent []int32) {
	c.local, c.spec, c.parent = local, spec, parent
	for i, nbr := range local.Neighbors {
		u, v, w := local.ID, nbr, local.EdgeWeights[i]
		if u > v {
			u, v = v, u
		}
		if spec.Keep == nil || spec.Keep(u, v, w) {
			c.learn(int64(u)*int64(c.n)+int64(v), w)
		}
	}
}

// Round ingests the per-neighbor frame streams and emits the next chunk of
// each neighbor's stream; at the budget the roots reconstruct and evaluate.
func (c *collectNode) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	next := 0
	for _, msg := range inbox {
		i := linkIndex(c.local.Neighbors, msg.From, next)
		if i < 0 {
			continue
		}
		next = i + 1
		l := &c.links[i]
		if l.rcvChunk == 0 {
			if c.wchunks == 0 {
				c.learn(msg.Payload, 1)
			} else {
				l.rcvKey = msg.Payload
				l.rcvW = 0
				l.rcvChunk = 1
			}
			continue
		}
		l.rcvW |= msg.Payload << uint(c.bw*(l.rcvChunk-1))
		l.rcvChunk++
		if l.rcvChunk > c.wchunks {
			c.learn(l.rcvKey, l.rcvW)
			l.rcvChunk = 0
		}
	}
	if round >= c.budget {
		c.finish()
		return nil, true
	}
	mask := int64(1)<<uint(c.bw) - 1
	c.outbox = c.outbox[:0]
	for i, nbr := range c.local.Neighbors {
		l := &c.links[i]
		if l.sendRec >= len(c.records) {
			continue
		}
		rec := c.records[l.sendRec]
		payload := rec.key
		if l.sendChunk > 0 {
			payload = rec.w >> uint(c.bw*(l.sendChunk-1)) & mask
		}
		c.outbox = append(c.outbox, congest.Message{To: nbr, Payload: payload})
		l.sendChunk++
		if l.sendChunk > c.wchunks {
			l.sendChunk = 0
			l.sendRec++
		}
	}
	return c.outbox, false
}

// finish decides root status and evaluates. Under filtered collection
// vertex 0 is the sole root and evaluates the whole collection. Under full
// collection the union-find first rules out a vertex its records join to
// a smaller id; any other vertex reconstructs the collected graph. If the
// union-find joined all n vertices, the reconstruction is the vertex's
// component and it evaluates it directly; otherwise it checks whether it
// is the minimum id of its component there and evaluates the induced
// component subgraph.
func (c *collectCore) finish() {
	spanning := false
	if c.spec.Keep == nil {
		var joined bool
		if joined, spanning = c.elect(c.local.ID, c.parent); joined {
			return
		}
	}
	collected := &c.spec.Workspace.graph
	collected.Recycle(c.n)
	for _, rec := range c.records {
		u, v := c.decode(rec.key)
		if err := collected.AddWeightedEdge(u, v, rec.w); err != nil {
			if c.local.ID == 0 {
				c.out = collectOutput{root: true, err: fmt.Errorf("reconstructing collected graph: %w", err)}
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
	comp, _ := collected.Components()
	mine := comp[c.local.ID]
	for v := 0; v < c.local.ID; v++ {
		if comp[v] == mine {
			return // a smaller id shares the component: not the root
		}
	}
	component, _ := collected.InducedSubgraph(func(v int) bool { return comp[v] == mine })
	c.out.root = true
	c.out.value, c.out.err = c.spec.Eval(component)
}

// nonRootOutput is the zero collectOutput, boxed once so that non-roots
// hand it out without allocating.
var nonRootOutput interface{} = collectOutput{}

// Output returns the root's collectOutput (zero value elsewhere).
func (c *collectCore) Output() interface{} {
	if !c.out.root {
		return nonRootOutput
	}
	return c.out
}
