// Package dicongest simulates the CONGEST model on directed input graphs:
// n nodes communicate in synchronous rounds over the *links* of a digraph —
// every arc is a full-duplex physical link (antiparallel arc pairs collapse
// to one link), carrying at most one B-bit message per direction per round,
// with B = O(log n). Arc directions and weights are input data each endpoint
// knows at wakeup, which is exactly the setting of the paper's directed
// Section 2.2/4 constructions (Hamiltonian path, directed Steiner): the
// network is bidirectional, the problem instance is oriented.
//
// The simulator mirrors the zero-allocation core of package congest: Run
// precomputes a channel routing index from the digraph's FreezePatchable
// out-adjacency CSR merged with the in-adjacency (per-directed-channel
// slots for O(1) message validation, duplicate detection and delivery) and
// double-buffers flat, offset-addressed inbox arrays, so after setup no
// heap allocation happens per round. Inboxes arrive in ascending sender-id
// order by construction — no sorting.
//
// Cut metering reuses package congest's Meter/Direction machinery over a
// validated bipartition of the vertex set: the crossing links are exactly
// the arc cut E_cut (antiparallel cut arcs share one link), so a T-round
// run exchanges at most 2·T·B·|E_cut| crossing bits — the Theorem 1.1
// budget for the directed families.
package dicongest

import (
	"fmt"
	"sort"

	"congesthard/internal/congest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// Message is an outgoing message: a payload addressed to a link neighbor.
type Message struct {
	To      int
	Payload int64
}

// Incoming is a received message tagged with its sender.
type Incoming struct {
	From    int
	Payload int64
}

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

// Node is one vertex's program, round-driven exactly like congest.Node:
// Round receives the messages delivered this round (the inbox slice is
// reused across rounds) and returns the outbox plus a termination flag.
type Node interface {
	Round(round int, inbox []Incoming) (outbox []Message, done bool)
	// Output returns the node's final (or current) output value.
	Output() interface{}
}

// Factory constructs the program for one vertex.
type Factory func(local Local) Node

// Options configures a simulation. The zero value selects defaults.
type Options struct {
	// BandwidthBits is the per-message bit budget B. 0 selects
	// 2*ceil(log2(n+1)), the standard O(log n) CONGEST bandwidth.
	BandwidthBits int
	// MaxRounds aborts runaway programs: at most MaxRounds rounds are
	// executed. 0 selects 4*n^2 + 64.
	MaxRounds int
	// CutSide, if non-nil, marks Alice's side of a bipartition; messages
	// crossing the arc cut are metered (Theorem 1.1 accounting).
	CutSide []bool
	// Meter, if non-nil, observes every accepted message with its cut
	// classification. The congest.Meter interface is shared between both
	// simulators, so transcript recorders and counting meters work on
	// either. It requires CutSide; Run rejects a nil or wrongly-sized
	// bipartition with a descriptive error.
	Meter congest.Meter
	// Faults, if non-nil, opts the run into deterministic fault injection
	// (see internal/faults), exactly as in congest.Options: faults act
	// after send validation and metering, link failures apply to the
	// unordered vertex pair (antiparallel arcs share one link and fail
	// together), and the same digraph + plan replays bit-identically.
	// With Faults == nil the round loop is untouched.
	Faults *faults.Plan
	// Trace, if non-nil, observes every synchronous round after it
	// executes, exactly as in congest.Options: one nil-check per round
	// when disabled, a stack-passed congest.RoundTrace per round when
	// enabled. The congest.Tracer interface is shared between both
	// simulators, so one tracer can watch a mixed sweep.
	Trace congest.Tracer
	// Arena, if non-nil, lends Run reusable setup scratch — channel
	// structure, routing index, inbox buffers, fault rings — mirroring
	// congest.Options.Arena: a caller looping over many runs (the sharded
	// certify sweep) amortizes the per-run setup allocations away.
	// Results are bit-identical with or without an arena; an Arena must
	// not be shared by concurrent Runs.
	Arena *Arena
}

// Arena is reusable per-run scratch for Run — the dicongest twin of
// congest.Arena. The zero value is ready to use; an arena is not safe
// for concurrent use. Buffers that escape the run (Local views, Result
// outputs) are never arena-backed.
type Arena struct {
	nodes       []Node
	chOffsets   []int32
	chNbr       []int32
	chTmp       []int32
	denseIdx    []int32
	sparseIdx   map[int64]int32
	recvAt      []int32
	slotDir     []congest.Direction
	crashAt     []int32
	crashed     []bool
	ringPayload []int64
	ringStamp   []int32
	payload     []int64
	stamp       []int32
	lastSent    []int32
	inbox       []Incoming
	done        []bool
}

// arenaSlice returns *buf resized to n, reusing the backing array when
// capacity allows; element contents are unspecified.
func arenaSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Metrics are the measured costs of a simulation.
type Metrics struct {
	Rounds        int
	Messages      int64
	CutMessages   int64
	CutBits       int64
	BandwidthBits int
}

// Result is the outcome of a simulation: metrics plus per-vertex outputs.
type Result struct {
	Metrics
	Outputs []interface{}
}

// maxDenseChannelIndex caps the n*n dense routing table at 4 MB; larger
// networks fall back to a prebuilt hash map (still O(1) expected, still
// allocation-free per round).
const maxDenseChannelIndex = 1 << 10

// channelIndex resolves (from, to) to the global directed-channel slot in
// O(1), or -1 when the link does not exist. It is built once per Run.
type channelIndex struct {
	n      int
	dense  []int32         // n*n table, or nil
	sparse map[int64]int32 // used when n > maxDenseChannelIndex
}

// channels is the merged link adjacency: for each vertex the sorted union
// of its out- and in-neighbors, flattened CSR-style. Slot offsets[v]+i is
// the directed channel v -> nbr[offsets[v]+i].
type channels struct {
	offsets []int32
	nbr     []int32
}

func (ch *channels) window(v int) []int32 { return ch.nbr[ch.offsets[v]:ch.offsets[v+1]] }

func (ch *channels) slots() int { return len(ch.nbr) }

// rank returns the position of v within u's sorted link window, or -1.
func (ch *channels) rank(u, v int) int32 {
	lo, hi := ch.offsets[u], ch.offsets[u+1]
	target := int32(v)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ch.nbr[mid] < target:
			lo = mid + 1
		case ch.nbr[mid] > target:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// buildChannels merges the out-adjacency CSR windows with the in-adjacency
// lists into the sorted link structure; antiparallel arc pairs collapse to
// a single channel per direction.
func buildChannels(d *graph.Digraph, out *graph.CSR, ar *Arena) channels {
	n := d.N()
	ch := channels{offsets: arenaSlice(&ar.chOffsets, n+1)}
	ch.offsets[0] = 0
	if cap(ar.chNbr) < 2*d.M() {
		ar.chNbr = make([]int32, 0, 2*d.M())
	}
	ch.nbr = ar.chNbr[:0]
	tmp := ar.chTmp[:0]
	for v := 0; v < n; v++ {
		tmp = tmp[:0]
		onbrs, _ := out.Window(v)
		tmp = append(tmp, onbrs...)
		for _, h := range d.InNeighbors(v) {
			if out.Rank(v, h.To) < 0 {
				tmp = append(tmp, int32(h.To))
			}
		}
		sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
		ch.nbr = append(ch.nbr, tmp...)
		ch.offsets[v+1] = int32(len(ch.nbr))
	}
	ar.chNbr = ch.nbr
	ar.chTmp = tmp
	return ch
}

// buildChannelIndex constructs the routing index, borrowing the table
// (or map) from the arena.
func buildChannelIndex(ch *channels, ar *Arena) channelIndex {
	n := len(ch.offsets) - 1
	ci := channelIndex{n: n}
	if n <= maxDenseChannelIndex {
		ci.dense = arenaSlice(&ar.denseIdx, n*n)
		for i := range ci.dense {
			ci.dense[i] = -1
		}
		for v := 0; v < n; v++ {
			base := ch.offsets[v]
			for i, to := range ch.window(v) {
				ci.dense[v*n+int(to)] = base + int32(i)
			}
		}
		return ci
	}
	if ar.sparseIdx == nil {
		ar.sparseIdx = make(map[int64]int32, ch.slots())
	} else {
		clear(ar.sparseIdx)
	}
	ci.sparse = ar.sparseIdx
	for v := 0; v < n; v++ {
		base := ch.offsets[v]
		for i, to := range ch.window(v) {
			ci.sparse[int64(v)*int64(n)+int64(to)] = base + int32(i)
		}
	}
	return ci
}

func (ci *channelIndex) slot(from, to int) int32 {
	if to < 0 || to >= ci.n {
		return -1
	}
	if ci.dense != nil {
		return ci.dense[from*ci.n+to]
	}
	if s, ok := ci.sparse[int64(from)*int64(ci.n)+int64(to)]; ok {
		return s
	}
	return -1
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

// Run simulates the factory's programs on d until every node terminates.
//
//hardness:hotpath
func Run(d *graph.Digraph, factory Factory, opts Options) (*Result, error) {
	n := d.N()
	if opts.Meter != nil && opts.CutSide == nil {
		return nil, fmt.Errorf("metering enabled (Options.Meter) but no cut bipartition: CutSide is nil, want %d entries marking Alice's side", n)
	}
	if opts.CutSide != nil && len(opts.CutSide) != n {
		return nil, fmt.Errorf("cut bipartition has %d entries for %d vertices: CutSide must mark every vertex", len(opts.CutSide), n)
	}
	if n == 0 {
		return &Result{}, nil
	}
	bandwidth := opts.BandwidthBits
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(n)
	}
	if err := congest.CheckBandwidth(bandwidth); err != nil {
		return nil, err
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*n*n + 64
	}

	out := d.FreezePatchable()
	ar := opts.Arena
	if ar == nil {
		ar = &Arena{} // a throwaway arena: every borrow allocates fresh
	}
	ch := buildChannels(d, out, ar)
	slots := ch.slots()

	nodes := arenaSlice(&ar.nodes, n)
	//hardness:setup
	for v := 0; v < n; v++ {
		onbrs, owts := out.Window(v)
		local := Local{
			ID:           v,
			N:            n,
			Neighbors:    make([]int, len(ch.window(v))),
			OutNeighbors: make([]int, len(onbrs)),
			OutWeights:   make([]int64, len(onbrs)),
			VertexWeight: d.VertexWeight(v),
		}
		for i, to := range ch.window(v) {
			local.Neighbors[i] = int(to)
		}
		for i, to := range onbrs {
			local.OutNeighbors[i] = int(to)
			local.OutWeights[i] = owts[i]
		}
		local.InNeighbors, local.InWeights = sortedArcs(d.InNeighbors(v))
		nodes[v] = factory(local)
	}

	// Routing index: for the directed channel v -> to stored at slot s in
	// v's link window, recvAt[s] is the slot of that message in to's inbox
	// (the rank of v among to's sorted link neighbors).
	ci := buildChannelIndex(&ch, ar)
	recvAt := arenaSlice(&ar.recvAt, slots)
	for v := 0; v < n; v++ {
		base := int(ch.offsets[v])
		for i, to := range ch.window(v) {
			recvAt[base+i] = ch.rank(int(to), v)
		}
	}
	// slotDir classifies each directed channel relative to the bipartition:
	// internal, Alice→Bob or Bob→Alice. Crossing channels are exactly the
	// arc cut's links. Built only when a cut is supplied, so unmetered runs
	// pay nothing.
	var slotDir []congest.Direction
	if opts.CutSide != nil {
		slotDir = arenaSlice(&ar.slotDir, slots)
		for v := 0; v < n; v++ {
			base := int(ch.offsets[v])
			for i, to := range ch.window(v) {
				if opts.CutSide[v] != opts.CutSide[to] {
					if opts.CutSide[v] {
						slotDir[base+i] = congest.DirAliceToBob
					} else {
						slotDir[base+i] = congest.DirBobToAlice
					}
				} else {
					slotDir[base+i] = congest.DirInternal
				}
			}
		}
	}

	// Fault injection (opt-in, mirroring the Meter hook and congest.Run):
	// the plan is compiled per run, and delivery goes through a per-slot
	// ring of RingDepth cells so bounded delays land in future rounds.
	// The fault-free path below is untouched.
	var inj *faults.Injector
	var crashAt []int32
	var crashed []bool
	var ringPayload []int64
	var ringStamp []int32
	ringD := 0
	if opts.Faults != nil {
		var err error
		inj, err = faults.NewInjector(opts.Faults, n, slots)
		if err != nil {
			return nil, fmt.Errorf("fault plan: %w", err)
		}
		for v := 0; v < n; v++ {
			base := int(ch.offsets[v])
			for i, to := range ch.window(v) {
				inj.BindSlot(int32(base+i), v, int(to))
			}
		}
		crashAt = arenaSlice(&ar.crashAt, n)
		for v := range crashAt {
			crashAt[v] = inj.CrashRound(v)
		}
		crashed = arenaSlice(&ar.crashed, n)
		clear(crashed)
		ringD = inj.RingDepth()
		ringPayload = arenaSlice(&ar.ringPayload, slots*ringD)
		ringStamp = arenaSlice(&ar.ringStamp, slots*ringD)
		for i := range ringStamp {
			ringStamp[i] = -1
		}
	}

	// Double-buffered flat inboxes with round stamps, exactly as in
	// congest.Run: stale slots are never read, so no per-round clearing,
	// and the arena's compacted windows are handed to Round in ascending
	// sender-id order by construction. With faults on, the ring arrays
	// above replace the double buffer.
	var curPayload, nextPayload []int64
	var curStamp, nextStamp []int32
	if inj == nil {
		payload := arenaSlice(&ar.payload, 2*slots)
		curPayload, nextPayload = payload[:slots], payload[slots:]
		stamp := arenaSlice(&ar.stamp, 2*slots)
		curStamp, nextStamp = stamp[:slots], stamp[slots:]
		for i := 0; i < slots; i++ {
			curStamp[i] = -1
			nextStamp[i] = -1
		}
	}
	lastSent := arenaSlice(&ar.lastSent, slots)
	for i := 0; i < slots; i++ {
		lastSent[i] = -1
	}
	inboxArena := arenaSlice(&ar.inbox, slots)

	done := arenaSlice(&ar.done, n)
	clear(done)
	metrics := Metrics{BandwidthBits: bandwidth}
	maxPayload := int64(1)<<uint(bandwidth) - 1
	// Per-round trace accounting, mirroring congest.Run: unconditional
	// integer bookkeeping, one nil-check per round.
	trActive := n

	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, congest.RoundsExceededError(maxRounds, done)
		}
		allDone := true
		trSentBase := metrics.Messages
		trDelivered, trDropped := 0, 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			if inj != nil && int32(round) >= crashAt[v] {
				// Crash-stop: the node executes rounds 0..crash-1 only
				// and produces no output.
				done[v] = true
				crashed[v] = true
				trActive--
				continue
			}
			base, end := int(ch.offsets[v]), int(ch.offsets[v+1])
			window := ch.window(v)
			cnt := 0
			if inj == nil {
				for i := base; i < end; i++ {
					if curStamp[i] == int32(round) {
						inboxArena[base+cnt] = Incoming{From: int(window[i-base]), Payload: curPayload[i]}
						cnt++
					}
				}
			} else {
				ri := round % ringD
				for i := base; i < end; i++ {
					if ringStamp[i*ringD+ri] == int32(round) {
						inboxArena[base+cnt] = Incoming{From: int(window[i-base]), Payload: ringPayload[i*ringD+ri]}
						cnt++
					}
				}
			}
			trDelivered += cnt
			outbox, finished := nodes[v].Round(round, inboxArena[base:base+cnt])
			if finished {
				done[v] = true
				trActive--
			} else {
				allDone = false
			}
			for _, msg := range outbox {
				s := ci.slot(v, msg.To)
				if s < 0 {
					return nil, fmt.Errorf("round %d: node %d sent to non-neighbor %d (no arc either way)", round, v, msg.To)
				}
				if lastSent[s] == int32(round) {
					return nil, fmt.Errorf("round %d: node %d sent two messages to %d", round, v, msg.To)
				}
				lastSent[s] = int32(round)
				if msg.Payload < 0 || msg.Payload > maxPayload {
					return nil, fmt.Errorf("round %d: node %d payload %d exceeds %d-bit bandwidth", round, v, msg.Payload, bandwidth)
				}
				if inj == nil {
					nextPayload[recvAt[s]] = msg.Payload
					nextStamp[recvAt[s]] = int32(round + 1)
				} else if at, ok := inj.DeliverAt(round, v, msg.To, s); ok {
					cell := int(recvAt[s])*ringD + at%ringD
					ringPayload[cell] = msg.Payload
					ringStamp[cell] = int32(at)
				} else {
					trDropped++
				}
				metrics.Messages++
				if slotDir != nil {
					dir := slotDir[s]
					if dir != congest.DirInternal {
						metrics.CutMessages++
						metrics.CutBits += int64(bandwidth)
					}
					if opts.Meter != nil {
						opts.Meter.Observe(round, v, msg.To, msg.Payload, bandwidth, dir)
					}
				}
			}
		}
		metrics.Rounds = round + 1
		if opts.Trace != nil {
			opts.Trace.ObserveRound(congest.RoundTrace{
				Round:     round,
				Sent:      int(metrics.Messages - trSentBase),
				Delivered: trDelivered,
				Dropped:   trDropped,
				Active:    trActive,
			})
		}
		if allDone {
			// Messages sent in the final round (or still delayed in the
			// ring) would be delivered to already-terminated nodes; they
			// are dropped (but metered, and the round still counts).
			break
		}
		if inj == nil {
			curPayload, nextPayload = nextPayload, curPayload
			curStamp, nextStamp = nextStamp, curStamp
		}
	}

	outputs := make([]interface{}, n)
	for v := range nodes {
		if crashed != nil && crashed[v] {
			continue // a crashed node produces no output
		}
		outputs[v] = nodes[v].Output()
	}
	return &Result{Metrics: metrics, Outputs: outputs}, nil
}

// FuncNode adapts a pair of closures to the Node interface, for small
// programs and tests.
type FuncNode struct {
	RoundFunc  func(round int, inbox []Incoming) ([]Message, bool)
	OutputFunc func() interface{}
}

var _ Node = (*FuncNode)(nil)

// Round delegates to RoundFunc.
func (f *FuncNode) Round(round int, inbox []Incoming) ([]Message, bool) {
	return f.RoundFunc(round, inbox)
}

// Output delegates to OutputFunc (nil yields nil).
func (f *FuncNode) Output() interface{} {
	if f.OutputFunc == nil {
		return nil
	}
	return f.OutputFunc()
}
