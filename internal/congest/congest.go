// Package congest simulates the CONGEST model of distributed computing:
// n nodes communicate over the edges of an underlying graph in synchronous
// rounds, sending at most one B-bit message per edge per direction per
// round, with B = O(log n) (the paper's Section 1 setting).
//
// The simulator is deterministic and single-goroutine: node programs are
// state machines driven round by round. It meters rounds, messages and —
// when a vertex bipartition is supplied — the messages and bits crossing
// the cut, which is exactly the quantity that the Alice-Bob framework of
// Theorem 1.1 charges for.
//
// The core is allocation-free in steady state: Run precomputes a routing
// index from the graph's CSR snapshot (per-directed-edge slots for O(1)
// message validation, duplicate detection and delivery) and double-buffers
// flat, CSR-offset inbox arrays, so after setup no heap allocation happens
// per round. Inboxes are delivered in neighbor-rank order (ascending
// sender id) by construction — no sorting.
package congest

import (
	"fmt"

	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// Message is an outgoing message: a payload addressed to a neighbor.
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
// size, its incident edges (neighbor ids and edge weights, index-aligned,
// sorted by neighbor id), its own vertex weight, and optional
// problem-specific input.
type Local struct {
	ID           int
	N            int
	Neighbors    []int
	EdgeWeights  []int64
	VertexWeight int64
	Data         interface{}
}

// Node is one vertex's program. Round is called once per synchronous round
// with the messages received at the start of the round (round 0 has an
// empty inbox); it returns the messages to send and whether the node has
// terminated. A terminated node's Round is no longer called and it sends
// nothing further.
//
// The inbox slice is only valid for the duration of the Round call: the
// simulator reuses its backing storage across rounds.
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
	// crossing the cut are metered (Theorem 1.1 accounting).
	CutSide []bool
	// Meter, if non-nil, observes every accepted message with its cut
	// classification (see Meter). It requires CutSide; Run rejects a nil
	// or wrongly-sized bipartition with a descriptive error instead of
	// silently skipping the classification.
	Meter Meter
	// Faults, if non-nil, opts the run into deterministic fault injection:
	// seeded per-link drops, bounded FIFO delivery delay, crash-stop nodes
	// and permanent link failures (see internal/faults). Faults act after
	// send validation and metering — a dropped or delayed message still
	// costs its sender bandwidth and is still observed by Meter; the
	// network simply loses or holds it. The same graph + plan replays
	// bit-identically, and with Faults == nil the round loop is untouched
	// (still allocation-free, like the Meter hook).
	Faults *faults.Plan
	// Trace, if non-nil, observes every synchronous round after it
	// executes (see Tracer and RoundTrace). Strictly opt-in like Meter
	// and Faults: with Trace == nil the round loop pays one nil-check
	// per round and stays allocation-free; with a tracer installed the
	// callback receives a stack-passed struct, so an allocation-free
	// tracer keeps the run allocation-free.
	Trace Tracer
	// Arena, if non-nil, lends Run reusable setup scratch — routing
	// index, inbox buffers, fault rings — so a caller looping over many
	// runs (the sharded certify sweep) amortizes the per-run setup
	// allocations away. Results are bit-identical with or without an
	// arena; an Arena must not be shared by concurrent Runs.
	Arena *Arena
}

// Arena is reusable per-run scratch for Run: every internal buffer the
// simulator would otherwise allocate per run (the dense routing table,
// receive-slot map, cut classification, double-buffered inboxes, fault
// rings, node table) is borrowed from the arena and grown on demand, so
// steady-state reuse allocates only what escapes the run (Local views
// and Result outputs). The zero value is ready to use. An arena is not
// safe for concurrent use: give each goroutine its own.
type Arena struct {
	nodes       []Node
	denseIdx    []int32
	sparseIdx   map[int64]int32
	recvAt      []int32
	slotDir     []Direction
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
// capacity allows; element contents are unspecified — callers that rely
// on zero values must clear or overwrite.
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

// DefaultBandwidth returns the default per-message bit budget for an
// n-vertex network: 2*ceil(log2(n+1)), i.e. Θ(log n).
func DefaultBandwidth(n int) int {
	b := 1
	for (1 << uint(b)) < n+1 {
		b++
	}
	return 2 * b
}

// CheckBandwidth rejects a bandwidth B the simulators cannot run. A payload
// is an int64 in [0, 2^B), and both simulators support B in [1, 62].
func CheckBandwidth(bandwidth int) error {
	if bandwidth < 1 || bandwidth > 62 {
		return fmt.Errorf("bandwidth %d out of supported range [1,62]", bandwidth)
	}
	return nil
}

// maxDenseEdgeIndex caps the n*n dense routing table at 4 MB; larger
// networks fall back to a prebuilt hash map (still O(1) expected, still
// allocation-free per round).
const maxDenseEdgeIndex = 1 << 10

// edgeIndex resolves (from, to) to the global directed-edge slot in O(1),
// or -1 when the edge does not exist. It is built once per Run.
type edgeIndex struct {
	n      int
	dense  []int32         // n*n table, or nil
	sparse map[int64]int32 // used when n > maxDenseEdgeIndex
}

// buildEdgeIndex constructs the routing index, borrowing the table (or
// map) from the arena.
func buildEdgeIndex(c *graph.CSR, ar *Arena) edgeIndex {
	n := c.N()
	ei := edgeIndex{n: n}
	if n <= maxDenseEdgeIndex {
		ei.dense = arenaSlice(&ar.denseIdx, n*n)
		for i := range ei.dense {
			ei.dense[i] = -1
		}
		for v := 0; v < n; v++ {
			nbrs, _ := c.Window(v)
			base := c.Offset(v)
			for i, to := range nbrs {
				ei.dense[v*n+int(to)] = int32(base + i)
			}
		}
		return ei
	}
	if ar.sparseIdx == nil {
		ar.sparseIdx = make(map[int64]int32, c.Slots())
	} else {
		clear(ar.sparseIdx)
	}
	ei.sparse = ar.sparseIdx
	for v := 0; v < n; v++ {
		nbrs, _ := c.Window(v)
		base := c.Offset(v)
		for i, to := range nbrs {
			ei.sparse[int64(v)*int64(n)+int64(to)] = int32(base + i)
		}
	}
	return ei
}

func (ei *edgeIndex) slot(from, to int) int32 {
	if to < 0 || to >= ei.n {
		return -1
	}
	if ei.dense != nil {
		return ei.dense[from*ei.n+to]
	}
	if s, ok := ei.sparse[int64(from)*int64(ei.n)+int64(to)]; ok {
		return s
	}
	return -1
}

// Run simulates the factory's programs on g until every node terminates.
//
//hardness:hotpath
func Run(g *graph.Graph, factory Factory, opts Options) (*Result, error) {
	n := g.N()
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
		bandwidth = DefaultBandwidth(n)
	}
	if err := CheckBandwidth(bandwidth); err != nil {
		return nil, err
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 4*n*n + 64
	}

	csr := g.Freeze()
	slots := csr.Slots()
	ar := opts.Arena
	if ar == nil {
		ar = &Arena{} // a throwaway arena: every borrow allocates fresh
	}

	nodes := arenaSlice(&ar.nodes, n)
	//hardness:setup
	for v := 0; v < n; v++ {
		nbrs, wts := csr.Window(v)
		local := Local{
			ID:           v,
			N:            n,
			Neighbors:    make([]int, len(nbrs)),
			EdgeWeights:  make([]int64, len(nbrs)),
			VertexWeight: g.VertexWeight(v),
		}
		for i, to := range nbrs {
			local.Neighbors[i] = int(to)
			local.EdgeWeights[i] = wts[i]
		}
		nodes[v] = factory(local)
	}

	// Routing index: for the directed edge v -> to stored at slot s in v's
	// window, recvAt[s] is the slot of that message in to's inbox (the rank
	// of v among to's sorted neighbors), and cutCross[s] marks cut edges.
	ei := buildEdgeIndex(csr, ar)
	recvAt := arenaSlice(&ar.recvAt, slots)
	for v := 0; v < n; v++ {
		nbrs, _ := csr.Window(v)
		base := csr.Offset(v)
		for i, to := range nbrs {
			recvAt[base+i] = int32(csr.Slot(int(to), v))
		}
	}
	// slotDir classifies each directed edge relative to the bipartition:
	// internal, Alice→Bob or Bob→Alice. Built only when a cut is supplied,
	// so unmetered runs pay nothing. Every slot is written (the arena may
	// hold a previous run's classification).
	var slotDir []Direction
	if opts.CutSide != nil {
		slotDir = arenaSlice(&ar.slotDir, slots)
		for v := 0; v < n; v++ {
			nbrs, _ := csr.Window(v)
			base := csr.Offset(v)
			for i, to := range nbrs {
				if opts.CutSide[v] != opts.CutSide[to] {
					if opts.CutSide[v] {
						slotDir[base+i] = DirAliceToBob
					} else {
						slotDir[base+i] = DirBobToAlice
					}
				} else {
					slotDir[base+i] = DirInternal
				}
			}
		}
	}

	// Fault injection (opt-in, mirroring the Meter hook): the plan is
	// compiled into a per-run injector during setup, and delivery runs
	// through a per-slot ring of RingDepth cells instead of the two-buffer
	// flip, so bounded delays land in future rounds. The fault-free path
	// below is untouched.
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
			nbrs, _ := csr.Window(v)
			base := csr.Offset(v)
			for i, to := range nbrs {
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

	// Double-buffered flat inboxes: slot s of the current buffer holds the
	// payload sent over the corresponding directed edge, stamped with the
	// round it is to be delivered in (stale slots are simply never read —
	// no per-round clearing, which also makes arena reuse across runs
	// safe). inboxArena holds the compacted inbox slices handed to Round,
	// one CSR window per vertex, delivered in neighbor-rank (ascending
	// sender id) order by construction. With faults on, the ring arrays
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
	// Per-round trace accounting: plain integer bookkeeping kept cheap
	// enough to run unconditionally; the only per-round branch Trace
	// adds is the single nil-check at the bottom of the loop.
	trActive := n

	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, RoundsExceededError(maxRounds, done)
		}
		allDone := true
		trSentBase := metrics.Messages
		trDelivered, trDropped := 0, 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			if inj != nil && int32(round) >= crashAt[v] {
				// Crash-stop: the node executes rounds 0..crash-1 only;
				// messages already addressed to it are lost like messages
				// to any terminated node, and it produces no output.
				done[v] = true
				crashed[v] = true
				trActive--
				continue
			}
			base, end := csr.Offset(v), csr.Offset(v+1)
			nbrs, _ := csr.Window(v)
			cnt := 0
			if inj == nil {
				for i := base; i < end; i++ {
					if curStamp[i] == int32(round) {
						inboxArena[base+cnt] = Incoming{From: int(nbrs[i-base]), Payload: curPayload[i]}
						cnt++
					}
				}
			} else {
				ri := round % ringD
				for i := base; i < end; i++ {
					if ringStamp[i*ringD+ri] == int32(round) {
						inboxArena[base+cnt] = Incoming{From: int(nbrs[i-base]), Payload: ringPayload[i*ringD+ri]}
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
				s := ei.slot(v, msg.To)
				if s < 0 {
					return nil, fmt.Errorf("round %d: node %d sent to non-neighbor %d", round, v, msg.To)
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
					if dir != DirInternal {
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
			opts.Trace.ObserveRound(RoundTrace{
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

// RoundsError is the MaxRounds-exhausted failure: the simulation ran its
// full round budget with nodes still live. It is a typed error so callers
// (the retry budget tests, the serving layer) can distinguish an exhausted
// budget from a broken run with errors.As instead of matching messages.
type RoundsError struct {
	Limit int   // the executed round limit
	Live  int   // nodes still running when the limit hit
	N     int   // network size
	First []int // the first few still-running node ids
}

func (e *RoundsError) Error() string {
	suffix := ""
	if e.Live > len(e.First) {
		suffix = ", ..."
	}
	return fmt.Sprintf("simulation exceeded %d rounds with %d of %d nodes still running (nodes %v%s)",
		e.Limit, e.Live, e.N, e.First, suffix)
}

// RoundsExceededError builds the MaxRounds-exhausted *RoundsError from the
// done markers, naming how many nodes are still running and the first few
// of their ids, so runaway programs are diagnosable instead of just "too
// many rounds". Shared by both simulators (package dicongest reuses it).
func RoundsExceededError(limit int, done []bool) error {
	e := &RoundsError{Limit: limit, N: len(done)}
	for v, d := range done {
		if d {
			continue
		}
		e.Live++
		if len(e.First) < 4 {
			e.First = append(e.First, v)
		}
	}
	return e
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
