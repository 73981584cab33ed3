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
// One core, RunLinks, runs every simulation over a link topology in CSR
// form (Links). Run is its undirected front end, handing it the graph's
// frozen CSR snapshot; package dicongest is its directed front end, whose
// links are the arcs read in either direction.
//
// Messages are addressed by port: a port is an index into the node's own
// Local.Neighbors, both for the receiver of a send and for the sender of
// a received message. Vertex v's port p is the channel in slot
// Offsets[v]+p, so a send is resolved and checked (range, one message
// per port per round, bandwidth) in O(1) with no routing table. A
// fault-free message is delivered the moment it is sent: it is appended
// to the receiver's next inbox, a CSR window of a double-buffered flat
// array, tagged with the receiver's port for the sender (precomputed per
// channel at setup). Nodes run in id order, so every inbox arrives in
// ascending port (sender id) order by construction — no sorting, no
// scan. The core is allocation-free in steady state: after setup no heap
// allocation happens per round.
//
// The round loop is event-driven for programs that implement Sleeper.
// After a Round that did not finish the node, Wake names the first later
// round in which the node must run even with an empty inbox; until then
// the core calls the node's Round only when a message arrives. A node
// without Wake runs every round. A fault-free round in which nothing was
// sent is followed by a jump straight to the smallest wake round: the
// rounds in between are silent (no node runs, nothing is in flight), yet
// each still counts in Metrics.Rounds, is checked against MaxRounds and
// is traced with zero counts. Under a fault plan the loop never jumps; it
// only skips sleeping nodes, after their ring gather and crash check.
// Sleeping never changes a result: a run is bit-identical to the run of
// the same programs with Wake hidden.
package congest

import (
	"fmt"

	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// Message is an outgoing message: a payload addressed to a neighbor by
// port. A port is an index into the sending node's Local.Neighbors, so
// the receiver is Local.Neighbors[Port].
type Message struct {
	Port    int
	Payload int64
}

// Incoming is a received message tagged with the port it arrived on: an
// index into the receiving node's Local.Neighbors, so the sender is
// Local.Neighbors[Port].
type Incoming struct {
	Port    int
	Payload int64
}

// Local is the information a node knows at wakeup: its id, the network
// size, its incident edges (neighbor ids and edge weights, index-aligned,
// sorted by neighbor id), its own vertex weight, and optional
// problem-specific input. The index of a neighbor in Neighbors is its
// port: the address of a Message to it and the tag of an Incoming from
// it.
//
// The slices are borrowed from the run's Arena (Options.Arena) and stay
// valid until that arena's next run; without an arena they are fresh
// memory. A node must not modify them, and a program that needs them
// after its run must copy them. Run fills them from the graph's Freeze
// snapshot, which is valid only until the graph's next mutation: the
// graph must not be mutated during a run, but the views, being the
// arena's, outlive a later mutation.
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

// Sleeper is optionally implemented by a Node that has rounds with
// nothing to do. After a Round call that did not finish the node, Wake
// returns the first later round in which the node must run even with an
// empty inbox; a value at or before the current round means the next
// round. Until that round the simulator calls Round only when the inbox
// is non-empty. A sleeper's contract is that those skipped calls would
// have been no-ops: called with an empty inbox before its wake round, its
// Round sends nothing, does not finish and changes no state that its
// later rounds or its Output read. The simulator reads Wake once after
// each Round call.
type Sleeper interface {
	Wake() int
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
	// Arena, if non-nil, lends the run reusable setup scratch — link
	// structure, Local views, receive ports, inbox buffers, fault rings —
	// and the Result itself, so a caller looping over many runs (a
	// certify sweep worker) amortizes the per-run allocations away. The
	// returned Result, its Outputs slice included, is then the arena's
	// and stays valid only until the arena's next run: copy what must
	// outlive it. Results are bit-identical with or without an arena; an
	// Arena must not be shared by concurrent runs.
	Arena *Arena
}

// Arena is reusable per-run memory for either front end: every internal
// buffer the simulator would otherwise allocate per run (a front end's
// link structure and Local views, the receive ports, cut classification,
// double-buffered inboxes and their counts, fault rings, node table) and
// the Result with its Outputs slice are borrowed from the arena and grown
// on demand, so steady-state reuse allocates only what the node programs
// allocate. Each run overwrites the previous run's buffers, Local views
// and Result included: a Result is the arena's until its next run. The
// zero value is ready to use. An arena is not safe for concurrent use:
// give each goroutine its own.
type Arena struct {
	linkOffsets []int32
	linkNbr     []int32
	localIDs    []int
	localWts    []int64
	nodes       []program
	recvPort    []int32
	slotDir     []Direction
	crashAt     []int32
	crashed     []bool
	ringPayload []int64
	ringStamp   []int32
	lastSent    []int32
	inbox       []Incoming
	inboxLen    []int32
	wake        []int32
	outputs     []interface{}
	result      Result
}

// program is one entry of the node table: the node and, if it sleeps,
// the same node asserted to Sleeper once at setup.
type program struct {
	node    Node
	sleeper Sleeper
}

// retired marks a finished or crashed node in the wake table.
const retired = -1

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

// LinkBuffers lends a front end the arena's link storage for an n-vertex
// topology of at most slots channels: offsets has n+1 entries (contents
// unspecified) and nbr is empty with capacity slots. A nil arena lends
// fresh memory.
func (a *Arena) LinkBuffers(n, slots int) (offsets, nbr []int32) {
	if a == nil {
		return make([]int32, n+1), make([]int32, 0, slots)
	}
	if cap(a.linkNbr) < slots {
		a.linkNbr = make([]int32, 0, slots)
	}
	return arenaSlice(&a.linkOffsets, n+1), a.linkNbr[:0]
}

// LocalBuffers lends a front end the arena's storage for a run's Local
// views: ids ints for neighbor ids and weights int64s for arc or edge
// weights, contents unspecified. A nil arena lends fresh memory. The
// storage is the arena's until its next run (see Local).
func (a *Arena) LocalBuffers(ids, weights int) ([]int, []int64) {
	if a == nil {
		return make([]int, ids), make([]int64, weights)
	}
	return arenaSlice(&a.localIDs, ids), arenaSlice(&a.localWts, weights)
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
// A run on an arena returns the arena's Result, valid until the arena's
// next run; otherwise the Result is fresh memory.
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

// CheckBandwidth rejects a bandwidth B the simulator cannot run. A payload
// is an int64 in [0, 2^B), and the simulator supports B in [1, 62].
func CheckBandwidth(bandwidth int) error {
	if bandwidth < 1 || bandwidth > 62 {
		return fmt.Errorf("bandwidth %d out of supported range [1,62]", bandwidth)
	}
	return nil
}

// Run simulates the factory's programs on g until every node terminates.
// It is the undirected front end of RunLinks: the links are g's edges,
// copied from the windows of its Freeze snapshot into the arena's link
// storage, and each node's Local lists its incident edges in views
// carved from the arena.
//
//hardness:hotpath
func Run(g *graph.Graph, factory Factory, opts Options) (*Result, error) {
	csr := g.Freeze()
	n, slots := g.N(), 2*g.M()
	offsets, nbr := opts.Arena.LinkBuffers(n, slots)
	nbr, offsets[0] = nbr[:slots], 0
	for v := 0; v < n; v++ {
		window, _ := csr.Window(v)
		offsets[v+1] = offsets[v] + int32(copy(nbr[offsets[v]:], window))
	}
	ids, weights := opts.Arena.LocalBuffers(slots, slots)
	return RunLinks(Links{Offsets: offsets, Nbr: nbr}, func(v int) Node {
		nbrs, wts := csr.Window(v)
		lo, hi := offsets[v], offsets[v+1]
		local := Local{
			ID:           v,
			N:            n,
			Neighbors:    ids[lo:hi:hi],
			EdgeWeights:  weights[lo:hi:hi],
			VertexWeight: g.VertexWeight(v),
		}
		for i, to := range nbrs {
			local.Neighbors[i] = int(to)
		}
		copy(local.EdgeWeights, wts)
		return factory(local)
	}, opts)
}

// Links is the network a simulation runs over, in CSR form: vertex v's
// link neighbors are Nbr[Offsets[v]:Offsets[v+1]], sorted ascending, and
// slot Offsets[v]+i carries the directed channel v -> its i-th link
// neighbor. Every link is listed at both endpoints.
type Links struct {
	Offsets []int32
	Nbr     []int32
}

// n returns the number of vertices.
func (l *Links) n() int { return max(len(l.Offsets)-1, 0) }

// window returns v's link neighbors.
func (l *Links) window(v int) []int32 { return l.Nbr[l.Offsets[v]:l.Offsets[v+1]] }

// RunLinks is the simulator core that Run and the directed front end
// (package dicongest) share: it runs one node per vertex over links until
// every node terminates. build(v) constructs vertex v's program; it is
// called once per vertex, in id order, after the options are validated.
//
//hardness:hotpath
func RunLinks(links Links, build func(v int) Node, opts Options) (*Result, error) {
	n := links.n()
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

	slots := len(links.Nbr)
	ar := opts.Arena
	if ar == nil {
		ar = &Arena{} // a throwaway arena: every borrow allocates fresh
	}

	nodes := arenaSlice(&ar.nodes, n)
	//hardness:setup
	for v := 0; v < n; v++ {
		node := build(v)
		sleeper, _ := node.(Sleeper)
		nodes[v] = program{node: node, sleeper: sleeper}
	}

	// For the channel v -> to stored at slot s in v's window, recvPort[s]
	// is to's port for v (the rank of v in to's window). Visiting senders
	// in id order finds them in each receiver's sorted window in turn, so
	// a per-receiver cursor (the inbox counts, zeroed again below) ranks
	// every channel in one pass; the check rejects links that are not
	// listed at both endpoints.
	recvPort := arenaSlice(&ar.recvPort, slots)
	inboxLen := arenaSlice(&ar.inboxLen, 2*n)
	curLen, nextLen := inboxLen[:n], inboxLen[n:]
	clear(curLen)
	for v := 0; v < n; v++ {
		base := int(links.Offsets[v])
		for i, to := range links.window(v) {
			port := curLen[to]
			if r := links.Offsets[to] + port; r >= links.Offsets[to+1] || links.Nbr[r] != int32(v) {
				return nil, fmt.Errorf("links are not symmetric: vertex %d lists %d, whose sorted window does not list %d back", v, to, v)
			}
			recvPort[base+i] = port
			curLen[to]++
		}
	}
	clear(curLen)
	clear(nextLen)
	// slotDir classifies each channel relative to the bipartition:
	// internal, Alice→Bob or Bob→Alice. Built only when a cut is supplied,
	// so unmetered runs pay nothing. Every slot is written (the arena may
	// hold a previous run's classification).
	var slotDir []Direction
	if opts.CutSide != nil {
		slotDir = arenaSlice(&ar.slotDir, slots)
		for v := 0; v < n; v++ {
			base := int(links.Offsets[v])
			for i, to := range links.window(v) {
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
	// through a per-slot ring of RingDepth cells, so bounded delays land
	// in future rounds; each round's inbox is gathered from the ring. The
	// fault-free path below is untouched.
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
			base := int(links.Offsets[v])
			for i, to := range links.window(v) {
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

	// Double-buffered flat inboxes: vertex v's inbox is the first
	// curLen[v] entries of its window curIn[Offsets[v]:Offsets[v+1]]. A
	// fault-free send appends to the receiver's window of nextIn; the
	// buffers swap after each round and the next counts are zeroed. Every
	// sender reaches a receiver over its own channel, at most once a
	// round, so a window never overflows. With faults on, the ring above
	// holds the messages and curIn only gathers each inbox.
	inbox := arenaSlice(&ar.inbox, 2*slots)
	curIn, nextIn := inbox[:slots], inbox[slots:]
	lastSent := arenaSlice(&ar.lastSent, slots)
	for i := 0; i < slots; i++ {
		lastSent[i] = -1
	}

	// wake[v] is the first round in which v runs with an empty inbox (0
	// for a node that does not sleep), or retired once v has finished or
	// crashed.
	wake := arenaSlice(&ar.wake, n)
	clear(wake)
	metrics := Metrics{BandwidthBits: bandwidth}
	maxPayload := int64(1)<<uint(bandwidth) - 1
	// Per-round trace accounting: plain integer bookkeeping kept cheap
	// enough to run unconditionally; the only per-round branches Trace
	// adds are the nil-checks at the bottom of the loop.
	trActive := n

	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, roundsExceeded(maxRounds, wake)
		}
		live := false
		// next is the earliest round after this one in which a live node
		// runs without input (capped at maxRounds).
		next := maxRounds
		trSentBase := metrics.Messages
		trDelivered, trDropped := 0, 0
		for v := 0; v < n; v++ {
			w := int(wake[v])
			if w == retired {
				continue
			}
			if inj != nil && int32(round) >= crashAt[v] {
				// Crash-stop: the node executes rounds 0..crash-1 only;
				// messages already addressed to it are lost like messages
				// to any terminated node, and it produces no output.
				wake[v] = retired
				crashed[v] = true
				trActive--
				continue
			}
			base := int(links.Offsets[v])
			degree := int(links.Offsets[v+1]) - base
			cnt := int(curLen[v])
			if inj != nil {
				ri := round % ringD
				for i := 0; i < degree; i++ {
					if cell := (base+i)*ringD + ri; ringStamp[cell] == int32(round) {
						curIn[base+cnt] = Incoming{Port: i, Payload: ringPayload[cell]}
						cnt++
					}
				}
			}
			if cnt == 0 && round < w {
				live = true
				next = min(next, w) // asleep, and nothing arrived
				continue
			}
			trDelivered += cnt
			p := &nodes[v]
			outbox, finished := p.node.Round(round, curIn[base:base+cnt:base+cnt])
			switch {
			case finished:
				wake[v] = retired
				trActive--
			case p.sleeper != nil:
				live = true
				w = min(max(p.sleeper.Wake(), round+1), maxRounds)
				wake[v] = int32(w)
				next = min(next, w)
			default:
				live = true
				next = round + 1
			}
			for _, msg := range outbox {
				if uint(msg.Port) >= uint(degree) {
					return nil, fmt.Errorf("round %d: node %d sent on port %d, outside its degree %d", round, v, msg.Port, degree)
				}
				s := base + msg.Port
				if lastSent[s] == int32(round) {
					return nil, fmt.Errorf("round %d: node %d sent two messages on port %d (degree %d)", round, v, msg.Port, degree)
				}
				lastSent[s] = int32(round)
				if msg.Payload < 0 || msg.Payload > maxPayload {
					return nil, fmt.Errorf("round %d: node %d payload %d exceeds %d-bit bandwidth", round, v, msg.Payload, bandwidth)
				}
				to := links.Nbr[s]
				if inj == nil {
					nextIn[links.Offsets[to]+nextLen[to]] = Incoming{Port: int(recvPort[s]), Payload: msg.Payload}
					nextLen[to]++
				} else if at, ok := inj.DeliverAt(round, v, int(to), int32(s)); ok {
					cell := int(links.Offsets[to]+recvPort[s])*ringD + at%ringD
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
						opts.Meter.Observe(round, v, int(to), msg.Payload, bandwidth, dir)
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
		if !live {
			// Messages sent in the final round (or still delayed in the
			// ring) would be delivered to already-terminated nodes; they
			// are dropped (but metered, and the round still counts).
			break
		}
		if inj == nil {
			curIn, nextIn = nextIn, curIn
			curLen, nextLen = nextLen, curLen
			clear(nextLen)
			if metrics.Messages == trSentBase {
				// Nothing is in flight and no node runs before round
				// next: jump over the silent rounds between, tracing each.
				if opts.Trace != nil {
					for r := round + 1; r < next; r++ {
						opts.Trace.ObserveRound(RoundTrace{Round: r, Active: trActive})
					}
				}
				round = next - 1
			}
		}
	}

	var res *Result
	if opts.Arena != nil {
		res = &ar.result
	} else {
		res = new(Result)
	}
	res.Metrics = metrics
	res.Outputs = arenaSlice(&ar.outputs, n)
	for v := range nodes {
		if crashed != nil && crashed[v] {
			res.Outputs[v] = nil // a crashed node produces no output
			continue
		}
		res.Outputs[v] = nodes[v].node.Output()
	}
	return res, nil
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

// roundsExceeded builds the MaxRounds-exhausted *RoundsError from the wake
// table, naming how many nodes are still running (asleep or not) and the
// first few of their ids, so runaway programs are diagnosable instead of
// just "too many rounds".
func roundsExceeded(limit int, wake []int32) error {
	e := &RoundsError{Limit: limit, N: len(wake)}
	for v, w := range wake {
		if w == retired {
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
