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
// without reconstructing anything. Any other vertex is the minimum of its
// union-find set and reconstructs its collected graph (a reconstruction
// error makes it a non-root, and vertex 0 a root that reports the error).
// If the union-find joined all n vertices, the vertex is 0 and its
// component is the whole collected graph, which it evaluates as rebuilt;
// otherwise its union-find set is its component in the reconstruction,
// and it evaluates the induced component subgraph.
// The election is exact even when drops leave a vertex a partial,
// disconnected view: records that join it to a smaller id join it in the
// reconstruction too, whatever else the vertex knows.
// With a Keep filter the collected records no longer witness
// connectivity, so the graph must be connected and vertex 0 is the sole
// root, evaluating Eval on the full filtered collection.
//
// Memory: a factory carves every node's state from a Workspace and its
// roots rebuild their collection and their component into the
// workspace's graphs, so a factory built on a warm workspace
// (CollectSpec.Workspace) allocates nothing, and its runs allocate
// nothing either when the simulator runs them on an arena and the root
// values are small (see Output). Without a workspace the factory
// allocates one of its own.
//
// The budget frame*(T + n + 2) + 4, with T the number of kept records,
// dominates the classic pipelined-flooding bound frame*(T + D): a record
// waits behind at most T-1 earlier frames per hop and travels at most
// D <= n - 1 hops. Nodes terminate at the budget rather than detecting
// quiescence — the budget is computed by the harness from (n, m), the
// same simulation shortcut CollectAndSolve documents. A node sleeps
// (congest.Sleeper) from its last frame to the budget, woken only by an
// arriving message, so the simulator skips its idle rounds and jumps
// over rounds in which every node sleeps; the reported round count is
// still the budget T.

// CollectSpec configures one run of the gossip collect program.
type CollectSpec struct {
	// Keep filters which edges are collected (nil keeps every edge). The
	// filter must be symmetric in its endpoints and deterministic — both
	// endpoints evaluate it independently (shared randomness). A non-nil
	// Keep requires a connected graph (see above).
	Keep func(u, v int, w int64) bool
	// Eval runs at each root on its collected graph: the root's connected
	// component (reindexed in ascending id order, full collection) or the
	// whole filtered collection (Keep != nil). The per-root values are
	// combined by CollectTotal. Either is rebuilt in the workspace, with
	// adjacency lists in the order the root learned its records, so Eval
	// must depend only on the graph's vertices, edges and weights, and
	// must neither modify the graph nor keep it past its return.
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
// every node it creates from spec.Workspace (a fresh one if nil), and is
// the same function value every time it is built on that workspace: it
// can drive several Runs one after another, but must not drive concurrent
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
	bandwidth, err := gossipBandwidth(n, bandwidth, "edge", "graph")
	if err != nil {
		return nil, 0, err
	}
	records, wchunks, neg, ok := frameLayout(n, g.Neighbors, canonical(spec.Keep), bandwidth)
	if !ok {
		return nil, 0, negativeEdge(neg)
	}
	budget := collectBudget(n, records, wchunks)
	ws := orNewWorkspace(spec.Workspace)
	ws.spec = spec
	load(ws, &ws.collectNodes, n, records, bandwidth, wchunks, budget, g.Degree)
	if ws.collect == nil {
		ws.collect = ws.newCollectNode
	}
	return ws.collect, budget, nil
}

// newCollectNode is CollectFactory's factory, bound to the workspace once.
func (ws *Workspace) newCollectNode(local congest.Local) congest.Node {
	c := slabNode(ws.collectNodes, local.ID)
	c.bw, c.budget, c.wchunks, c.self = ws.chunk, ws.budget, ws.wchunks, c
	c.recordStore, c.links, c.outbox = ws.slab.state(local.ID, len(local.Neighbors))
	c.seed(local, ws)
	return c
}

// gossipBandwidth resolves the bandwidth of a gossip collect run on an
// n-vertex instance (0 selects the CONGEST default) and checks that the
// simulators accept it and that one chunk carries every record id
// u*n + v; elem and noun name the records and the instance in the error.
func gossipBandwidth(n, bandwidth int, elem, noun string) (int, error) {
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(n)
	}
	if err := congest.CheckBandwidth(bandwidth); err != nil {
		return 0, err
	}
	if int64(n)*int64(n) > int64(1)<<bandwidth {
		return 0, fmt.Errorf("bandwidth %d cannot carry %s ids of an n=%d %s", bandwidth, elem, n, noun)
	}
	return bandwidth, nil
}

// collectBudget is the fault-free round budget frame*(T + n + 2) + 4 of
// an n-vertex instance with T kept records in frames of 1 + wchunks
// chunks (see the analysis above).
func collectBudget(n, records, wchunks int) int {
	return (1+wchunks)*(records+n+2) + 4
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

// CollectTotal sums the root values of a finished run of either gossip
// collect program or collect-retry: the single root's value under
// filtered collection, the per-component (per-weak-component, for a
// digraph) values under full collection (exact for component-additive
// quantities). A crashed vertex is an error, not a skipped non-root: had
// it been its component's root, the component would go unevaluated.
func CollectTotal(res *congest.Result) (int64, error) {
	var total int64
	roots := 0
	for v, out := range res.Outputs {
		if out == nil {
			return 0, fmt.Errorf("vertex %d crashed and produced no output", v)
		}
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

// collectCore is the record store and root-evaluation logic shared by
// the three collect programs: which edges this vertex knows, and the
// end-of-budget root election and evaluation, which read the factory's
// parameters and scratch in its workspace.
type collectCore struct {
	recordStore
	local congest.Local
	ws    *Workspace
	out   collectOutput
}

// collectNode is the gossip relay of the collect program, undirected and
// directed alike: both relay records over the vertex's links and differ
// only in their end-of-budget finish, which self selects.
type collectNode struct {
	collectCore
	bw      int
	budget  int
	wchunks int
	// sendRec and sendChunk are the node's send cursor: the record, and
	// the chunk of its frame, that goes out next. Every link relays the
	// same record stream from its start, one chunk a round, so a single
	// cursor serves them all. round is the round of the last Round call.
	sendRec, sendChunk int
	round              int

	links  []linkState
	outbox []congest.Message
	// self is the node as its program's type, whose finish runs at the
	// budget: the core's for an undirected node, diCollectNode's for a
	// directed one.
	self interface{ finish() }
}

// seed sets up the vertex's core around its empty record store and
// learns its incident kept edges (canonical u < v orientation).
func (c *collectCore) seed(local congest.Local, ws *Workspace) {
	c.local, c.ws = local, ws
	keep := ws.spec.Keep
	for i, nbr := range local.Neighbors {
		u, v, w := local.ID, nbr, local.EdgeWeights[i]
		if u > v {
			u, v = v, u
		}
		if keep == nil || keep(u, v, w) {
			c.learn(int64(u)*int64(c.n)+int64(v), w)
		}
	}
}

// Round ingests the per-neighbor frame streams and emits the next chunk of
// each neighbor's stream; at the budget the roots reconstruct and evaluate.
func (c *collectNode) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	for _, msg := range inbox {
		l := &c.links[msg.Port]
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
		c.self.finish()
		return nil, true
	}
	c.round = round
	c.outbox = c.outbox[:0]
	if c.sendRec < len(c.records) {
		rec := c.records[c.sendRec]
		payload := rec.key
		if c.sendChunk > 0 {
			payload = rec.w >> uint(c.bw*(c.sendChunk-1)) & (int64(1)<<uint(c.bw) - 1)
		}
		for i := range c.links {
			c.outbox = append(c.outbox, congest.Message{Port: i, Payload: payload})
		}
		c.sendChunk++
		if c.sendChunk > c.wchunks {
			c.sendChunk = 0
			c.sendRec++
		}
	}
	return c.outbox, false
}

// Wake implements congest.Sleeper: the node runs every round while it has
// a chunk left to send, and after its last frame sleeps until a message
// arrives or the budget ends.
func (c *collectNode) Wake() int {
	if c.sendRec < len(c.records) {
		return c.round + 1
	}
	return c.budget
}

// finish is the root step of the undirected programs, over the
// workspace's graphs.
func (c *collectCore) finish() {
	ws := c.ws
	rootStep(c, ws.spec.Keep != nil, &ws.graph, &ws.component, (*graph.Graph).AddWeightedEdge, ws.spec.Eval, "graph")
}

// rootStep is the end-of-budget step of every collect program, for the
// kind G its roots rebuild into collected, and component roots their
// component into component, with add. Under filtered collection vertex 0
// is the sole root and evaluates the whole collection. Under full
// collection the union-find first rules out a vertex its records join to
// a smaller id; any other vertex rebuilds its records. If the union-find
// joined all n vertices, the rebuild is the vertex's component and it
// evaluates it directly. Otherwise a rebuild that succeeded held only
// valid records, so the vertex's union-find set, of which it is the
// minimum, is exactly its (weak) component there: it rebuilds the records
// within that set into component, renumbering the set's members in
// ascending id order, and evaluates that. noun names the kind in a
// rebuild error, which vertex 0 reports.
func rootStep[G interface{ Recycle(n int) }](c *collectCore, filtered bool, collected, component G,
	add func(G, int, int, int64) error, eval func(G) (int64, error), noun string) {
	id := c.local.ID
	parent := c.ws.slab.parent
	spanning := false
	if filtered {
		if id != 0 {
			return
		}
	} else {
		var joined bool
		if joined, spanning = c.elect(id, parent); joined {
			return
		}
	}
	collected.Recycle(c.n)
	for _, rec := range c.records {
		u, v := c.decode(rec.key)
		if err := add(collected, u, v, rec.w); err != nil {
			if id == 0 {
				c.out = collectOutput{root: true, err: fmt.Errorf("reconstructing collected %s: %w", noun, err)}
			}
			return
		}
	}
	c.out.root = true
	if filtered || spanning {
		c.out.value, c.out.err = eval(collected)
		return
	}
	// parent still holds the union-find elect ran to the end, and every
	// record is valid: a record with one endpoint in the set has both.
	me := int32(id)
	rank := fit(&c.ws.rank, c.n)
	size := int32(0)
	for v := range rank {
		rank[v] = -1
		if find(parent, int32(v)) == me {
			rank[v] = size
			size++
		}
	}
	component.Recycle(int(size))
	for _, rec := range c.records {
		u, v := c.decode(rec.key)
		if rank[u] < 0 {
			continue
		}
		if err := add(component, int(rank[u]), int(rank[v]), rec.w); err != nil {
			c.out.err = err
			return
		}
	}
	c.out.value, c.out.err = eval(component)
}

// nonRootOutput is the zero collectOutput, boxed once so that non-roots
// hand it out without allocating.
var nonRootOutput interface{} = collectOutput{}

// smallRootOutputs are the error-free root outputs of the values 0 to 63,
// boxed once like nonRootOutput (and the runtime's small integers), so
// that roots with small values hand them out without allocating. The
// boxes are immutable and shared by every run.
var smallRootOutputs = func() (boxes [64]interface{}) {
	for v := range boxes {
		boxes[v] = collectOutput{root: true, value: int64(v)}
	}
	return boxes
}()

// Output returns the root's collectOutput (zero value elsewhere), boxed
// anew only when it is neither the zero value nor a small error-free
// value.
func (c *collectCore) Output() interface{} {
	switch {
	case !c.out.root:
		return nonRootOutput
	case c.out.err == nil && uint64(c.out.value) < uint64(len(smallRootOutputs)):
		return smallRootOutputs[c.out.value]
	}
	return c.out
}
