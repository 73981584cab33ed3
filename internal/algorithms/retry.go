package algorithms

import (
	"fmt"
	"math/bits"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// This file implements collect-retry, a retransmitting variant of the
// gossip collect program that stays exact over lossy links: every
// per-neighbor chunk stream runs an alternating-bit protocol (stop-and-
// wait ARQ). Each frame spends three header bits —
//
//	payload = chunk<<3 | hasData<<2 | seq<<1 | ack
//
// — so the data chunk narrows to bandwidth-3 bits. The sender retransmits
// its current chunk every round until the piggybacked ack echoes the
// chunk's sequence bit, then flips the bit and advances; the receiver
// accepts a data chunk only when its sequence bit matches the expected
// one, so duplicates created by retransmission (or by bounded delivery
// delay) are discarded. Acks ride on every frame — a node with nothing
// left to send still emits pure-ack frames — which is what lets the
// protocol survive per-link message drops: over a FIFO link that delivers
// infinitely often, the alternating-bit protocol transfers the stream
// exactly. The round budget is RetryBudgetFactor times the fault-free
// collect budget, covering the protocol's inherent round trip per chunk
// plus retransmissions at bounded drop rates; the collection, root
// election and evaluation logic is collectCore, shared with collect.

const (
	// retryHeaderBits is the per-frame header: hasData, seq, ack.
	retryHeaderBits = 3
	// RetryBudgetFactor scales the fault-free collect budget: a chunk
	// costs a round trip (2 rounds) even on a clean link, and the
	// remaining slack absorbs retransmissions under bounded drop rates
	// and bounded delivery delay.
	RetryBudgetFactor = 8
)

// CollectRetryMinBandwidth returns the smallest bandwidth collect-retry
// can run with on an n-vertex graph: the edge id u*n+v must fit beside
// the three header bits, and the result is never below the CONGEST
// default 2*ceil(log2(n+1)).
func CollectRetryMinBandwidth(n int) int {
	need := retryHeaderBits
	if n > 0 {
		need += bits.Len64(uint64(n)*uint64(n) - 1)
	}
	if b := congest.DefaultBandwidth(n); b > need {
		need = b
	}
	return need
}

// CollectRetryRoundsCap bounds the round budget CollectRetryFactory can
// bake into a program on any n-vertex unweighted graph (every record is
// a single one-chunk frame), plus the final evaluation round: at most
// n(n-1)/2 records yield a budget of RetryBudgetFactor*(records+n+6).
// Use it for a MaxRounds override when certifying collect-retry — the
// budget can exceed the simulators' default guard on small graphs.
func CollectRetryRoundsCap(n int) int {
	return RetryBudgetFactor*(n*(n-1)/2+n+6) + 2
}

// CollectRetryFactory builds the retransmitting gossip program for g and
// returns the node factory together with the round budget baked into it.
// bandwidth must be the BandwidthBits the simulation will run with
// (0 selects CollectRetryMinBandwidth); it must leave room for the edge
// id beside the three header bits. Like CollectFactory's, the factory
// carves its nodes' state from spec.Workspace, is bound to it once, and
// must not drive concurrent Runs.
func CollectRetryFactory(g *graph.Graph, bandwidth int, spec CollectSpec) (congest.Factory, int, error) {
	n := g.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("collect-retry requires a non-empty graph")
	}
	if spec.Keep != nil && !g.IsConnected() {
		return nil, 0, fmt.Errorf("filtered collect-retry requires a connected graph")
	}
	if bandwidth == 0 {
		bandwidth = CollectRetryMinBandwidth(n)
	}
	if err := congest.CheckBandwidth(bandwidth); err != nil {
		return nil, 0, err
	}
	cw := bandwidth - retryHeaderBits
	if cw < 1 || int64(n)*int64(n) > int64(1)<<cw {
		return nil, 0, fmt.Errorf("bandwidth %d cannot carry edge ids of an n=%d graph beside the %d retry header bits (need >= %d)",
			bandwidth, n, retryHeaderBits, CollectRetryMinBandwidth(n))
	}
	records, wchunks, neg, ok := frameLayout(n, g.Neighbors, canonical(spec.Keep), cw)
	if !ok {
		return nil, 0, negativeEdge(neg)
	}
	budget := RetryBudgetFactor * collectBudget(n, records, wchunks)
	ws := orNewWorkspace(spec.Workspace)
	ws.spec = spec
	load(ws, &ws.retryNodes, n, records, cw, wchunks, budget, g.Degree)
	if ws.retry == nil {
		ws.retry = ws.newRetryNode
	}
	return ws.retry, budget, nil
}

// newRetryNode is CollectRetryFactory's factory, bound to the workspace
// once.
func (ws *Workspace) newRetryNode(local congest.Local) congest.Node {
	c := slabNode(ws.retryNodes, local.ID)
	c.cw, c.budget, c.wchunks = ws.chunk, ws.budget, ws.wchunks
	c.recordStore, c.links, c.outbox = ws.slab.state(local.ID, len(local.Neighbors))
	c.seed(local, ws)
	for i := range c.links {
		// lastAcc starts opposite the first data sequence bit, so the
		// ack on a frame sent before anything was accepted cannot
		// advance the neighbor's stream.
		c.links[i].lastAcc = 1
	}
	return c
}

type collectRetryNode struct {
	collectCore
	cw      int // data bits per chunk (bandwidth minus header)
	budget  int
	wchunks int

	// Per neighbor: the sender's stream cursor and the alternating bit of
	// the chunk in flight (curSeq); the receiver's sequence bit expected
	// next (expSeq), the last one accepted (lastAcc, echoed as the ack on
	// every outgoing frame) and the frame reassembly registers.
	links  []linkState
	outbox []congest.Message
}

// Round ingests frames (acks advance our streams, fresh data chunks feed
// reassembly), then emits one frame per neighbor — the current chunk,
// retransmitted until acknowledged, or a pure-ack frame when the stream
// is drained. At the budget the roots reconstruct and evaluate.
func (c *collectRetryNode) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	for _, msg := range inbox {
		l := &c.links[msg.Port]
		ack := byte(msg.Payload & 1)
		seq := byte(msg.Payload >> 1 & 1)
		hasData := msg.Payload>>2&1 == 1
		chunk := msg.Payload >> retryHeaderBits

		// The piggybacked ack echoes the last sequence bit the neighbor
		// accepted from us; a match with the in-flight chunk's bit means
		// delivery, so flip the bit and advance the cursor. Stale acks
		// (from retransmitted or delayed frames) carry the old bit and
		// cannot advance the stream twice.
		if l.sendRec < len(c.records) && ack == l.curSeq {
			l.curSeq ^= 1
			l.sendChunk++
			if l.sendChunk > c.wchunks {
				l.sendChunk = 0
				l.sendRec++
			}
		}

		if !hasData || seq != l.expSeq {
			continue // pure ack, or a duplicate of an accepted chunk
		}
		l.lastAcc = seq
		l.expSeq ^= 1
		if l.rcvChunk == 0 {
			if c.wchunks == 0 {
				c.learn(chunk, 1)
			} else {
				l.rcvKey = chunk
				l.rcvW = 0
				l.rcvChunk = 1
			}
			continue
		}
		l.rcvW |= chunk << uint(c.cw*(l.rcvChunk-1))
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
	mask := int64(1)<<uint(c.cw) - 1
	c.outbox = c.outbox[:0]
	for i := range c.links {
		l := &c.links[i]
		payload := int64(l.lastAcc)
		if l.sendRec < len(c.records) {
			rec := c.records[l.sendRec]
			chunk := rec.key
			if l.sendChunk > 0 {
				chunk = rec.w >> uint(c.cw*(l.sendChunk-1)) & mask
			}
			payload |= chunk<<retryHeaderBits | 1<<2 | int64(l.curSeq)<<1
		}
		c.outbox = append(c.outbox, congest.Message{Port: i, Payload: payload})
	}
	return c.outbox, false
}
