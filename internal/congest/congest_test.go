package congest

import (
	"fmt"
	"strings"
	"testing"

	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// floodMinNode floods the minimum id seen so far for exactly budget rounds,
// then outputs it. It is the classic O(D)-round leader election used in the
// paper's upper-bound discussions.
type floodMinNode struct {
	local  Local
	best   int64
	budget int
}

func newFloodMin(budget int) Factory {
	return func(local Local) Node {
		return &floodMinNode{local: local, best: int64(local.ID), budget: budget}
	}
}

func (f *floodMinNode) Round(round int, inbox []Incoming) ([]Message, bool) {
	for _, msg := range inbox {
		if msg.Payload < f.best {
			f.best = msg.Payload
		}
	}
	if round >= f.budget {
		return nil, true
	}
	out := make([]Message, 0, len(f.local.Neighbors))
	for port := range f.local.Neighbors {
		out = append(out, Message{Port: port, Payload: f.best})
	}
	return out, false
}

func (f *floodMinNode) Output() interface{} { return f.best }

func TestFloodMinOnPath(t *testing.T) {
	g := graph.Path(8)
	res, err := Run(g, newFloodMin(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out.(int64) != 0 {
			t.Errorf("vertex %d learned min %v, want 0", v, out)
		}
	}
	if res.Rounds < 7 {
		t.Errorf("rounds = %d, want >= diameter 7", res.Rounds)
	}
}

func TestFloodMinInsufficientBudgetOnPath(t *testing.T) {
	// With fewer rounds than the diameter, the far endpoint cannot learn 0.
	g := graph.Path(8)
	res, err := Run(g, newFloodMin(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[7].(int64) == 0 {
		t.Error("information travelled faster than one hop per round")
	}
}

func TestCutMetering(t *testing.T) {
	g := graph.Path(4)
	side := []bool{true, true, false, false} // single cut edge {1,2}
	res, err := Run(g, newFloodMin(5), Options{CutSide: side})
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 5 sending rounds crosses the cut twice (both directions).
	if res.CutMessages != 10 {
		t.Errorf("cut messages = %d, want 10", res.CutMessages)
	}
	if res.CutBits != res.CutMessages*int64(res.BandwidthBits) {
		t.Error("cut bits inconsistent with cut messages")
	}
	if res.Messages <= res.CutMessages {
		t.Error("total messages should exceed cut messages on a path")
	}
}

func TestBandwidthEnforced(t *testing.T) {
	g := graph.Path(2)
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == 0 && round == 0 {
					return []Message{{Port: 0, Payload: 1 << 40}}, true
				}
				return nil, true
			},
		}
	}
	if _, err := Run(g, factory, Options{BandwidthBits: 8}); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestNegativePayloadRejected(t *testing.T) {
	g := graph.Path(2)
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == 0 && round == 0 {
					return []Message{{Port: 0, Payload: -1}}, true
				}
				return nil, true
			},
		}
	}
	if _, err := Run(g, factory, Options{}); err == nil {
		t.Error("negative payload accepted")
	}
}

// sendAt returns a factory whose node sender sends out in round r; every
// node stops at round r.
func sendAt(r, sender int, out []Message) Factory {
	return func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == sender && round == r {
					return out, true
				}
				return nil, round >= r
			},
		}
	}
}

// wantPortError fails unless err is a send rejection naming the round, the
// node, the port and the node's degree.
func wantPortError(t *testing.T, err error, round, node, port, degree int) {
	t.Helper()
	if err == nil {
		t.Fatalf("node %d's send on port %d (degree %d) accepted", node, port, degree)
	}
	for _, want := range []string{
		fmt.Sprintf("round %d:", round),
		fmt.Sprintf("node %d ", node),
		fmt.Sprintf("port %d", port),
		fmt.Sprintf("degree %d", degree),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestNonNeighborRejected(t *testing.T) {
	g := graph.Path(3) // 0-1-2: degrees 1, 2, 1
	for _, tc := range []struct{ node, port, degree int }{
		{0, -1, 1},
		{0, 1, 1}, // would alias the first channel of node 1
		{1, 2, 2},
		{1, 1 << 40, 2},
		{2, 1, 1}, // would run past the last channel
	} {
		_, err := Run(g, sendAt(1, tc.node, []Message{{Port: tc.port, Payload: 1}}), Options{})
		wantPortError(t, err, 1, tc.node, tc.port, tc.degree)
	}
}

func TestDuplicateMessageSameEdgeRejected(t *testing.T) {
	g := graph.Path(3) // 0-1-2: degrees 1, 2, 1
	if _, err := Run(g, sendAt(1, 1, []Message{{Port: 0, Payload: 1}, {Port: 1, Payload: 2}}), Options{}); err != nil {
		t.Fatalf("one message on each port rejected: %v", err)
	}
	for _, out := range [][]Message{
		{{Port: 1, Payload: 1}, {Port: 1, Payload: 2}},
		{{Port: 0, Payload: 1}, {Port: 1, Payload: 1}, {Port: 0, Payload: 1}},
	} {
		_, err := Run(g, sendAt(1, 1, out), Options{})
		wantPortError(t, err, 1, 1, out[len(out)-1].Port, 2)
		if err != nil && !strings.Contains(err.Error(), "two messages") {
			t.Errorf("duplicate send reported as %q", err)
		}
	}
	// A send past node 0's last port is its own range error, never a
	// duplicate of node 1's send on its port 0 (the adjacent channel).
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID <= 1 && round == 1 {
					return []Message{{Port: 1 - local.ID, Payload: 1}}, true
				}
				return nil, round >= 1
			},
		}
	}
	_, err := Run(g, factory, Options{})
	wantPortError(t, err, 1, 0, 1, 1)
}

// wantBroadcastError fails unless err rejects a broadcast sent beside
// another message, naming the round and the node.
func wantBroadcastError(t *testing.T, err error, round, node int) {
	t.Helper()
	if err == nil {
		t.Fatalf("node %d's broadcast beside another message accepted", node)
	}
	for _, want := range []string{fmt.Sprintf("round %d:", round), fmt.Sprintf("node %d ", node), "two messages"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestBroadcastRules pins what a broadcast (Port AllPorts) may do: beside
// any other message it is rejected; a payload outside [0, 2^B) is a
// bandwidth error; a node without ports sends and counts nothing; and
// otherwise it counts, meters and delivers exactly as one message per
// port in ascending port order, with or without a meter and a fault plan.
func TestBroadcastRules(t *testing.T) {
	g := graph.Path(3) // 0-1-2: degrees 1, 2, 1
	all := Message{Port: AllPorts, Payload: 1}
	for _, out := range [][]Message{
		{all, {Port: 0, Payload: 1}},
		{{Port: 0, Payload: 1}, all},
		{all, all},
	} {
		for _, opts := range []Options{{}, {Faults: &faults.Plan{}}} {
			_, err := Run(g, sendAt(1, 1, out), opts)
			wantBroadcastError(t, err, 1, 1)
		}
	}
	for _, payload := range []int64{-1, 1 << 8, 1<<62 - 1} {
		for _, opts := range []Options{{BandwidthBits: 8}, {BandwidthBits: 8, Faults: &faults.Plan{}}} {
			_, err := Run(g, sendAt(1, 1, []Message{{Port: AllPorts, Payload: payload}}), opts)
			if err == nil || !strings.Contains(err.Error(), "round 1: node 1 payload") || !strings.Contains(err.Error(), "exceeds 8-bit bandwidth") {
				t.Errorf("broadcast payload %d: got %v, want the bandwidth error", payload, err)
			}
		}
	}
	if _, err := Run(g, sendAt(1, 1, []Message{{Port: AllPorts, Payload: 1<<8 - 1}}), Options{BandwidthBits: 8}); err != nil {
		t.Errorf("broadcast payload 2^B-1 rejected: %v", err)
	}

	// Node 2 of 0-1 plus an isolated vertex 2 broadcasts a payload no
	// bandwidth carries: with no port, nothing is sent, checked or counted.
	lone := graph.New(3)
	lone.MustAddEdge(0, 1)
	side := []bool{true, false, false}
	for _, opts := range []Options{{CutSide: side}, {CutSide: side, Meter: &recordingMeter{}, Faults: &faults.Plan{}}} {
		res, err := Run(lone, sendAt(0, 2, []Message{{Port: AllPorts, Payload: -1}}), opts)
		if err != nil {
			t.Fatalf("a portless broadcast failed: %v", err)
		}
		if res.Messages != 0 || res.CutMessages != 0 || res.CutBits != 0 {
			t.Errorf("a portless broadcast counted %+v", res.Metrics)
		}
		if m, ok := opts.Meter.(*recordingMeter); ok && len(m.seen) != 0 {
			t.Errorf("a portless broadcast was metered: %v", m.seen)
		}
	}

	// Node 1 of 0-1-2 (Alice = {0}) broadcasts 5 in round 0; its
	// neighbours record what arrives. The copy to 0 crosses the cut.
	heard := make([][]Incoming, 3)
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				heard[local.ID] = append(heard[local.ID], inbox...)
				if local.ID == 1 && round == 0 {
					return []Message{{Port: AllPorts, Payload: 5}}, false
				}
				return nil, round >= 1
			},
		}
	}
	for _, plan := range []*faults.Plan{nil, {}} {
		for _, meter := range []*recordingMeter{nil, {}} {
			clear(heard)
			opts := Options{CutSide: side, Faults: plan}
			if meter != nil {
				opts.Meter = meter
			}
			res, err := Run(g, factory, opts)
			if err != nil {
				t.Fatal(err)
			}
			b := int64(res.BandwidthBits)
			if res.Messages != 2 || res.CutMessages != 1 || res.CutBits != b {
				t.Errorf("faults %t, meter %t: a broadcast counted %+v, want 2 messages, 1 cut message, %d cut bits",
					plan != nil, meter != nil, res.Metrics, b)
			}
			want := [][]Incoming{{{Port: 0, Payload: 5}}, nil, {{Port: 0, Payload: 5}}}
			if fmt.Sprint(heard) != fmt.Sprint(want) {
				t.Errorf("faults %t, meter %t: inboxes %v, want %v", plan != nil, meter != nil, heard, want)
			}
			if meter != nil {
				entries := []dirRecord{{0, 1, 0, 5, DirBobToAlice}, {0, 1, 2, 5, DirInternal}}
				if fmt.Sprint(meter.seen) != fmt.Sprint(entries) {
					t.Errorf("faults %t: metered %v, want %v in port order", plan != nil, meter.seen, entries)
				}
			}
		}
	}
}

func TestRunLinksRejectsAsymmetricLinks(t *testing.T) {
	quiet := func(int) Node {
		return &FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
	}
	for _, links := range []Links{
		{Offsets: []int32{0, 1, 1}, Nbr: []int32{1}},             // 1 does not list 0
		{Offsets: []int32{0, 0, 1}, Nbr: []int32{0}},             // 0 does not list 1
		{Offsets: []int32{0, 2, 3, 4}, Nbr: []int32{2, 1, 0, 0}}, // 0's window unsorted
	} {
		if _, err := RunLinks(links, quiet, Options{}); err == nil || !strings.Contains(err.Error(), "not symmetric") {
			t.Errorf("links %+v: error %v, want a symmetry rejection", links, err)
		}
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	g := graph.Path(2)
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				return nil, false // never terminates
			},
		}
	}
	if _, err := Run(g, factory, Options{MaxRounds: 10}); err == nil {
		t.Error("non-terminating program not aborted")
	}
}

func TestMaxRoundsErrorNamesLiveNodes(t *testing.T) {
	// Regression: the MaxRounds-exhausted error must name the still-running
	// node ids and the round count, so runaway programs are diagnosable.
	g := graph.Path(4)
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				return nil, local.ID == 0 // only node 0 ever terminates
			},
		}
	}
	_, err := Run(g, factory, Options{MaxRounds: 7})
	if err == nil {
		t.Fatal("non-terminating program not aborted")
	}
	for _, want := range []string{"7 rounds", "3 of 4 nodes", "[1 2 3]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestMaxRoundsExactLimit(t *testing.T) {
	// MaxRounds = 10 must allow a program that uses exactly 10 rounds
	// (round indices 0..9) and abort one that needs an 11th.
	g := graph.Path(2)
	doneAt := func(last int) Factory {
		return func(local Local) Node {
			return &FuncNode{
				RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
					return nil, round >= last
				},
			}
		}
	}
	res, err := Run(g, doneAt(9), Options{MaxRounds: 10})
	if err != nil {
		t.Fatalf("program finishing within the limit aborted: %v", err)
	}
	if res.Rounds != 10 {
		t.Errorf("rounds = %d, want 10", res.Rounds)
	}
	if _, err := Run(g, doneAt(10), Options{MaxRounds: 10}); err == nil {
		t.Error("program needing 11 rounds not aborted at MaxRounds=10")
	}
}

func TestMessageToTerminatedNodeDropped(t *testing.T) {
	// Node 0 terminates in round 0; node 1 sends to it in round 1. The
	// message is metered and the round counts, but nothing is delivered.
	g := graph.Path(2)
	delivered := 0
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				delivered += len(inbox)
				if local.ID == 0 {
					return nil, true
				}
				if round == 0 {
					return nil, false
				}
				return []Message{{Port: 0, Payload: 7}}, true
			},
		}
	}
	res, err := Run(g, factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 0 {
		t.Errorf("%d messages delivered to a terminated node", delivered)
	}
	if res.Messages != 1 {
		t.Errorf("messages = %d, want 1 (metered even though dropped)", res.Messages)
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (the sending round counts)", res.Rounds)
	}
}

func TestBandwidthRangeRejected(t *testing.T) {
	g := graph.Path(2)
	quiet := func(local Local) Node {
		return &FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
	}
	for _, bad := range []int{-1, 63, 100} {
		if _, err := Run(g, quiet, Options{BandwidthBits: bad}); err == nil {
			t.Errorf("bandwidth %d accepted, want rejection outside [1,62]", bad)
		}
	}
	for _, ok := range []int{1, 62} {
		if _, err := Run(g, quiet, Options{BandwidthBits: ok}); err != nil {
			t.Errorf("bandwidth %d rejected: %v", ok, err)
		}
	}
}

func TestCutBitMeteringSymmetry(t *testing.T) {
	// Asymmetric cut traffic: only node 1 (Alice side) sends across the
	// cut. CutBits must equal CutMessages * BandwidthBits exactly.
	g := graph.Path(4)
	side := []bool{true, true, false, false}
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == 1 && round < 3 {
					return []Message{{Port: 1, Payload: int64(round)}}, round == 2 // to vertex 2
				}
				return nil, round >= 2
			},
		}
	}
	res, err := Run(g, factory, Options{CutSide: side})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutMessages != 3 {
		t.Errorf("cut messages = %d, want 3", res.CutMessages)
	}
	if res.CutBits != res.CutMessages*int64(res.BandwidthBits) {
		t.Errorf("CutBits = %d, want CutMessages (%d) * BandwidthBits (%d)",
			res.CutBits, res.CutMessages, res.BandwidthBits)
	}
}

// chatterNode floods a fixed payload every round without allocating in
// steady state: its outbox is built once and reused.
type chatterNode struct {
	outbox []Message
	budget int
}

func newChatter(budget int) Factory {
	return func(local Local) Node {
		out := make([]Message, len(local.Neighbors))
		for i := range local.Neighbors {
			out[i] = Message{Port: i, Payload: int64(local.ID)}
		}
		return &chatterNode{outbox: out, budget: budget}
	}
}

func (c *chatterNode) Round(round int, inbox []Incoming) ([]Message, bool) {
	if round >= c.budget {
		return nil, true
	}
	return c.outbox, false
}

func (c *chatterNode) Output() interface{} { return nil }

// newBroadcastChatter is newChatter broadcasting its payload: the outbox
// is one AllPorts message, built once.
func newBroadcastChatter(budget int) Factory {
	return func(local Local) Node {
		return &chatterNode{outbox: []Message{{Port: AllPorts, Payload: int64(local.ID)}}, budget: budget}
	}
}

// sleepyChatter is chatterNode sending only every fourth round: it
// sleeps in between, woken for the round after each send by the
// messages that arrive, so a long run skips nodes and, fault-free, jumps
// silent rounds.
type sleepyChatter struct {
	chatterNode
	wake int
}

func newSleepyChatter(budget int) Factory {
	chatter := newChatter(budget)
	return func(local Local) Node {
		return &sleepyChatter{chatterNode: *chatter(local).(*chatterNode)}
	}
}

// pooledSleepers is newSleepyChatter on an n-vertex network of maximum
// degree maxDegree, over nodes and outboxes allocated once: building a
// node allocates nothing, so a warm run allocates only what the
// simulator does. With broadcast set each node broadcasts its payload
// instead of sending it on each port.
func pooledSleepers(n, maxDegree, budget int, broadcast bool) Factory {
	nodes := make([]sleepyChatter, n)
	outs := make([]Message, n*maxDegree)
	return func(local Local) Node {
		out := outs[local.ID*maxDegree : local.ID*maxDegree+len(local.Neighbors)]
		for i := range out {
			out[i] = Message{Port: i, Payload: int64(local.ID)}
		}
		if broadcast {
			out = append(out[:0], Message{Port: AllPorts, Payload: int64(local.ID)})
		}
		nodes[local.ID] = sleepyChatter{chatterNode: chatterNode{outbox: out, budget: budget}}
		return &nodes[local.ID]
	}
}

func (c *sleepyChatter) Round(round int, inbox []Incoming) ([]Message, bool) {
	if round >= c.budget {
		return nil, true
	}
	c.wake = min(round-round%4+4, c.budget)
	if round%4 != 0 {
		return nil, false
	}
	return c.outbox, false
}

func (c *sleepyChatter) Wake() int { return c.wake }

func TestRunSteadyStateDoesNotAllocate(t *testing.T) {
	// Compare the allocation counts of a short and a long simulation on
	// the same graph: the extra rounds must not allocate at all.
	g, err := graph.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(rounds int) func() {
		return func() {
			if _, err := Run(g, newChatter(rounds), Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(5, runWith(10))
	long := testing.AllocsPerRun(5, runWith(1010))
	if long > short {
		t.Errorf("per-round allocations detected: %v allocs for 10 rounds, %v for 1010", short, long)
	}

	// With the cut meter enabled the steady state must stay O(1)
	// allocs/round too: the hook passes scalars to a preallocated
	// counting meter, so the extra rounds still allocate nothing.
	side := make([]bool, g.N())
	for v := range side {
		side[v] = v%2 == 0
	}
	counts := &CutCounts{}
	meteredWith := func(rounds int) func() {
		return func() {
			if _, err := Run(g, newChatter(rounds), Options{CutSide: side, Meter: counts}); err != nil {
				t.Fatal(err)
			}
		}
	}
	shortM := testing.AllocsPerRun(5, meteredWith(10))
	longM := testing.AllocsPerRun(5, meteredWith(1010))
	if longM > shortM {
		t.Errorf("metered per-round allocations detected: %v allocs for 10 rounds, %v for 1010", shortM, longM)
	}

	// Faults-on must be O(1) allocs per round too: the injector and its
	// delivery ring are allocated at setup, and every per-message decision
	// is pure arithmetic.
	plan := &faults.Plan{Seed: 3, DropProb: 0.05, MaxDelay: 2}
	faultyWith := func(rounds int) func() {
		return func() {
			if _, err := Run(g, newChatter(rounds), Options{Faults: plan}); err != nil {
				t.Fatal(err)
			}
		}
	}
	shortF := testing.AllocsPerRun(5, faultyWith(10))
	longF := testing.AllocsPerRun(5, faultyWith(1010))
	if longF > shortF {
		t.Errorf("faults-on per-round allocations detected: %v allocs for 10 rounds, %v for 1010", shortF, longF)
	}

	// Trace-on must be O(1) allocs per round too: the callback receives
	// a stack-passed RoundTrace and this tracer only adds integers.
	// (Trace-off is the three modes above — the nil-check is free.)
	tracer := &countingTracer{}
	tracedWith := func(rounds int) func() {
		return func() {
			if _, err := Run(g, newChatter(rounds), Options{Trace: tracer}); err != nil {
				t.Fatal(err)
			}
		}
	}
	shortT := testing.AllocsPerRun(5, tracedWith(10))
	longT := testing.AllocsPerRun(5, tracedWith(1010))
	if longT > shortT {
		t.Errorf("traced per-round allocations detected: %v allocs for 10 rounds, %v for 1010", shortT, longT)
	}

	// A sleeping program and a broadcasting one keep every mode
	// allocation-free: skipping a node, jumping a silent round (traced or
	// not) and sending, expanding or metering a broadcast allocate nothing.
	for mode := 0; mode < 16; mode++ {
		var opts Options
		if mode&1 != 0 {
			opts.CutSide, opts.Meter = side, counts
		}
		if mode&2 != 0 {
			opts.Faults = plan
		}
		if mode&4 != 0 {
			opts.Trace = tracer
		}
		program, what := newSleepyChatter, "sleeping"
		if mode&8 != 0 {
			program, what = newBroadcastChatter, "broadcasting"
		}
		sleepWith := func(rounds int) func() {
			return func() {
				if _, err := Run(g, program(rounds), opts); err != nil {
					t.Fatal(err)
				}
			}
		}
		shortS := testing.AllocsPerRun(5, sleepWith(10))
		longS := testing.AllocsPerRun(5, sleepWith(1010))
		if longS > shortS {
			t.Errorf("%s per-round allocations detected (meter %t, faults %t, trace %t): %v allocs for 10 rounds, %v for 1010",
				what, opts.Meter != nil, opts.Faults != nil, opts.Trace != nil, shortS, longS)
		}
	}

	// On a warm arena a whole Run, Result included, allocates nothing
	// but what its program allocates: here nothing, as the program's
	// nodes and outboxes are allocated once, whether they send on each
	// port or broadcast. The arena keeps the fault injector too, and
	// recompiles each run's plan into it, link failures and crashes
	// included, and the buffer a metered or faulted broadcast is expanded
	// into.
	arena := &Arena{}
	const budget = 100
	programs := []Factory{pooledSleepers(g.N(), 2, budget, false), pooledSleepers(g.N(), 2, budget, true)}
	warmPlan := &faults.Plan{Seed: 5, DropProb: 0.05, MaxDelay: 2,
		Crashes:      []faults.Crash{{Node: 3, Round: 40}},
		LinkFailures: []faults.LinkFailure{{U: 0, V: 1, Round: 20}, {U: 5, V: 4, Round: 7}}}
	for mode := 0; mode < 16; mode++ {
		program, opts := programs[mode>>3], Options{Arena: arena}
		if mode&1 != 0 {
			opts.CutSide, opts.Meter = side, counts
		}
		if mode&2 != 0 {
			opts.Trace = tracer
		}
		if mode&4 != 0 {
			opts.Faults = warmPlan
		}
		first, err := Run(g, program, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			res, err := Run(g, program, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res != first || res.Rounds != budget+1 || len(res.Outputs) != g.N() {
				t.Fatalf("a warm arena run returned %+v, not the arena's Result", res)
			}
		})
		if allocs != 0 {
			t.Errorf("a whole warm run on an arena (broadcast %t, meter %t, trace %t, faults %t) allocates %v times, want 0",
				mode&8 != 0, opts.Meter != nil, opts.Trace != nil, opts.Faults != nil, allocs)
		}
	}
}

// countingTracer accumulates RoundTrace fields without allocating, so
// traced steady-state assertions measure the simulator, not the tracer.
type countingTracer struct {
	rounds, sent, delivered, dropped, lastActive, lastRound int
}

func (c *countingTracer) ObserveRound(t RoundTrace) {
	c.rounds++
	c.sent += t.Sent
	c.delivered += t.Delivered
	c.dropped += t.Dropped
	c.lastActive = t.Active
	c.lastRound = t.Round
}

func TestTraceObservesEveryRound(t *testing.T) {
	g, err := graph.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	res, err := Run(g, newChatter(8), Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.rounds != res.Rounds || tr.lastRound != res.Rounds-1 {
		t.Errorf("tracer saw %d rounds (last %d), metrics say %d", tr.rounds, tr.lastRound, res.Rounds)
	}
	if int64(tr.sent) != res.Messages {
		t.Errorf("traced sent %d != metered messages %d", tr.sent, res.Messages)
	}
	// Every chatter message is delivered: sends stop a round before the
	// nodes terminate, so nothing is ever addressed to a finished node.
	if tr.delivered != tr.sent {
		t.Errorf("traced delivered %d != sent %d on a fault-free run", tr.delivered, tr.sent)
	}
	if tr.dropped != 0 {
		t.Errorf("traced %d drops on a fault-free run", tr.dropped)
	}
	if tr.lastActive != 0 {
		t.Errorf("last round reports %d active nodes, want 0", tr.lastActive)
	}
}

func TestTraceCountsInjectorDrops(t *testing.T) {
	// Drop-only plan (no delay): every sent message is either delivered
	// next round or counted dropped, so the trace totals must balance.
	g, err := graph.Cycle(16)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{}
	plan := &faults.Plan{Seed: 11, DropProb: 0.3}
	if _, err := Run(g, newChatter(8), Options{Trace: tr, Faults: plan}); err != nil {
		t.Fatal(err)
	}
	if tr.dropped == 0 {
		t.Fatal("30% drop plan traced zero drops")
	}
	if tr.delivered != tr.sent-tr.dropped {
		t.Errorf("delivered %d != sent %d - dropped %d", tr.delivered, tr.sent, tr.dropped)
	}
}

func TestMeterRequiresBipartition(t *testing.T) {
	// Regression: a Meter without a bipartition (or with an undersized
	// one) must be rejected with a descriptive error, not silently run
	// unclassified.
	g := graph.Path(4)
	quiet := func(local Local) Node {
		return &FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
	}
	if _, err := Run(g, quiet, Options{Meter: &CutCounts{}}); err == nil {
		t.Error("Meter with nil CutSide accepted")
	}
	if _, err := Run(g, quiet, Options{Meter: &CutCounts{}, CutSide: []bool{true, false}}); err == nil {
		t.Error("Meter with undersized CutSide accepted")
	}
	if _, err := Run(g, quiet, Options{CutSide: make([]bool, 7)}); err == nil {
		t.Error("oversized CutSide accepted")
	}
	if _, err := Run(g, quiet, Options{Meter: &CutCounts{}, CutSide: make([]bool, 4)}); err != nil {
		t.Errorf("well-formed metered run rejected: %v", err)
	}
}

// dirRecord captures every observation for classification tests.
type dirRecord struct {
	round, from, to int
	payload         int64
	dir             Direction
}

type recordingMeter struct{ seen []dirRecord }

func (r *recordingMeter) Observe(round, from, to int, payload int64, bits int, dir Direction) {
	r.seen = append(r.seen, dirRecord{round, from, to, payload, dir})
}

func TestMeterClassifiesDirections(t *testing.T) {
	// Path 0-1-2-3 with Alice = {0,1}: messages 1->2 are A->B, 2->1 are
	// B->A, and 0<->1 / 2<->3 are internal. One flooding round from every
	// vertex exercises all three classes.
	g := graph.Path(4)
	side := []bool{true, true, false, false}
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if round > 0 {
					return nil, true
				}
				out := make([]Message, 0, len(local.Neighbors))
				for port := range local.Neighbors {
					out = append(out, Message{Port: port, Payload: int64(local.ID)})
				}
				return out, false
			},
		}
	}
	rec := &recordingMeter{}
	res, err := Run(g, factory, Options{CutSide: side, Meter: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]Direction{
		{0, 1}: DirInternal, {1, 0}: DirInternal,
		{1, 2}: DirAliceToBob, {2, 1}: DirBobToAlice,
		{2, 3}: DirInternal, {3, 2}: DirInternal,
	}
	if len(rec.seen) != len(want) {
		t.Fatalf("observed %d messages, want %d", len(rec.seen), len(want))
	}
	var crossing int64
	for _, obs := range rec.seen {
		if d, ok := want[[2]int{obs.from, obs.to}]; !ok || d != obs.dir {
			t.Errorf("message %d->%d classified %v, want %v", obs.from, obs.to, obs.dir, d)
		}
		if obs.payload != int64(obs.from) {
			t.Errorf("message %d->%d observed payload %d", obs.from, obs.to, obs.payload)
		}
		if obs.dir != DirInternal {
			crossing++
		}
	}
	if crossing != res.CutMessages {
		t.Errorf("meter saw %d crossing messages, metrics say %d", crossing, res.CutMessages)
	}
}

// TestMeterEmptyCut: a bipartition with zero crossing edges (all vertices
// on one side) is valid — the meter observes only internal messages and
// the cut totals stay zero. Shared edge case with the directed simulator.
func TestMeterEmptyCut(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	allTrue := make([]bool, 6)
	for i := range allTrue {
		allTrue[i] = true
	}
	for _, side := range [][]bool{make([]bool, 6), allTrue} {
		counts := &CutCounts{}
		res, err := Run(g, newFloodMin(4), Options{CutSide: side, Meter: counts})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutMessages != 0 || res.CutBits != 0 {
			t.Errorf("empty cut metered traffic: %d msgs, %d bits", res.CutMessages, res.CutBits)
		}
		if counts.CutMessages() != 0 || counts.CutBits() != 0 {
			t.Errorf("meter counted crossing traffic on an empty cut: %+v", counts)
		}
		if counts.Internal != res.Messages {
			t.Errorf("meter internal %d != total messages %d", counts.Internal, res.Messages)
		}
	}
}

// TestMeterSingleVertexSides: bipartitions with a single vertex on either
// side; the cut edges are exactly that vertex's incident edges.
func TestMeterSingleVertexSides(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, alice := range []int{0, 3} {
		for _, invert := range []bool{false, true} {
			side := make([]bool, 6)
			for v := range side {
				side[v] = (v == alice) != invert
			}
			counts := &CutCounts{}
			res, err := Run(g, newFloodMin(4), Options{CutSide: side, Meter: counts})
			if err != nil {
				t.Fatal(err)
			}
			// The single vertex has 2 incident cycle edges; 4 sending
			// rounds cross each twice per round.
			if res.CutMessages != 16 {
				t.Errorf("alice=%d invert=%v: cut messages = %d, want 16", alice, invert, res.CutMessages)
			}
			if counts.MessagesAB != 8 || counts.MessagesBA != 8 {
				t.Errorf("alice=%d invert=%v: meter split %d/%d, want 8/8",
					alice, invert, counts.MessagesAB, counts.MessagesBA)
			}
		}
	}
}

func TestMeterCountsMatchMetrics(t *testing.T) {
	g := graph.Complete(6)
	side := []bool{true, true, true, false, false, false}
	counts := &CutCounts{}
	res, err := Run(g, newFloodMin(4), Options{CutSide: side, Meter: counts})
	if err != nil {
		t.Fatal(err)
	}
	if counts.CutMessages() != res.CutMessages {
		t.Errorf("meter cut messages %d != metrics %d", counts.CutMessages(), res.CutMessages)
	}
	if counts.CutBits() != res.CutBits {
		t.Errorf("meter cut bits %d != metrics %d", counts.CutBits(), res.CutBits)
	}
	if counts.Internal+counts.CutMessages() != res.Messages {
		t.Errorf("meter total %d != metrics messages %d", counts.Internal+counts.CutMessages(), res.Messages)
	}
	if counts.MessagesAB == 0 || counts.MessagesBA == 0 {
		t.Error("flooding on a complete graph must cross the cut both ways")
	}
}

func TestLocalInfo(t *testing.T) {
	g := graph.New(3)
	g.MustAddWeightedEdge(0, 1, 5)
	g.MustAddWeightedEdge(1, 2, 7)
	if err := g.SetVertexWeight(1, 9); err != nil {
		t.Fatal(err)
	}
	var got Local
	factory := func(local Local) Node {
		if local.ID == 1 {
			got = local
		}
		return &FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
	}
	if _, err := Run(g, factory, Options{}); err != nil {
		t.Fatal(err)
	}
	if got.N != 3 || got.VertexWeight != 9 {
		t.Errorf("local info wrong: %+v", got)
	}
	if len(got.Neighbors) != 2 || len(got.EdgeWeights) != 2 {
		t.Fatalf("neighbor info wrong: %+v", got)
	}
	for i, nbr := range got.Neighbors {
		w := got.EdgeWeights[i]
		if (nbr == 0 && w != 5) || (nbr == 2 && w != 7) {
			t.Errorf("edge weight misaligned: nbr %d weight %d", nbr, w)
		}
	}
}

func TestInboxSortedByFrom(t *testing.T) {
	g := graph.Star(4) // center 0
	var inboxFroms []int
	factory := func(local Local) Node {
		return &FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == 0 && round == 1 {
					for _, m := range inbox {
						inboxFroms = append(inboxFroms, local.Neighbors[m.Port])
					}
					return nil, true
				}
				if local.ID != 0 && round == 0 {
					return []Message{{Port: 0, Payload: int64(local.ID)}}, false // to the center
				}
				return nil, round >= 1
			},
		}
	}
	if _, err := Run(g, factory, Options{}); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(inboxFroms) != 3 {
		t.Fatalf("center received %d messages, want 3", len(inboxFroms))
	}
	for i := range want {
		if inboxFroms[i] != want[i] {
			t.Errorf("inbox order %v, want %v", inboxFroms, want)
		}
	}
}

func TestDefaultBandwidthGrowsLogarithmically(t *testing.T) {
	if b := DefaultBandwidth(1); b < 2 {
		t.Errorf("DefaultBandwidth(1) = %d", b)
	}
	if b := DefaultBandwidth(1000); b != 20 {
		t.Errorf("DefaultBandwidth(1000) = %d, want 20", b)
	}
	if DefaultBandwidth(1<<20) >= 62 {
		t.Error("bandwidth too large for payload encoding")
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Run(graph.New(0), newFloodMin(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Errorf("empty graph ran %d rounds", res.Rounds)
	}
}

// --- Fault injection behavior -----------------------------------------------

func TestFaultsSeededReplayDeterministic(t *testing.T) {
	g := graph.New(16)
	for v := 0; v < 16; v++ {
		for _, step := range []int{1, 2, 5} {
			g.MustAddEdge(v, (v+step)%16)
		}
	}
	plan := &faults.Plan{Seed: 21, DropProb: 0.2, MaxDelay: 3}
	run := func() *Result {
		res, err := Run(g, newFloodMin(40), Options{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds {
		t.Fatalf("replay diverged in rounds: %d vs %d", a.Rounds, b.Rounds)
	}
	for v := range a.Outputs {
		if a.Outputs[v] != b.Outputs[v] {
			t.Errorf("vertex %d: replay diverged: %v vs %v", v, a.Outputs[v], b.Outputs[v])
		}
	}
	if a.Messages != b.Messages {
		t.Errorf("replay diverged in metrics: %d vs %d messages",
			a.Messages, b.Messages)
	}
}

func TestFaultsCrashStopSilencesNode(t *testing.T) {
	// On a path 0-1-2-3, crashing node 1 at round 0 disconnects node 0 from
	// the rest: nodes 2 and 3 can never learn the minimum id 0.
	g := graph.Path(4)
	plan := &faults.Plan{Crashes: []faults.Crash{{Node: 1, Round: 0}}}
	res, err := Run(g, newFloodMin(10), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != nil {
		t.Errorf("crashed node produced output %v", res.Outputs[1])
	}
	for _, v := range []int{2, 3} {
		if got := res.Outputs[v].(int64); got != 2 {
			t.Errorf("vertex %d learned %d; crash of node 1 should cut it off from 0", v, got)
		}
	}
	if res.Outputs[0].(int64) != 0 {
		t.Errorf("vertex 0 forgot its own id: %v", res.Outputs[0])
	}
}

func TestFaultsLinkFailureBlocksPropagation(t *testing.T) {
	// Failing the middle edge of a path from round 0 splits the flood.
	g := graph.Path(4)
	plan := &faults.Plan{LinkFailures: []faults.LinkFailure{{U: 1, V: 2, Round: 0}}}
	res, err := Run(g, newFloodMin(10), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range map[int]int64{0: 0, 1: 0, 2: 2, 3: 2} {
		if got := res.Outputs[v].(int64); got != want {
			t.Errorf("vertex %d learned %d, want %d after 1-2 link failure", v, got, want)
		}
	}
}

func TestFaultsDelayOnlyStillConverges(t *testing.T) {
	// Bounded delay without drops only stretches convergence: with a budget
	// of (MaxDelay+1) * diameter rounds every node still learns the minimum.
	g := graph.Path(6)
	plan := &faults.Plan{Seed: 4, MaxDelay: 2}
	res, err := Run(g, newFloodMin(3*5+5), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for v, out := range res.Outputs {
		if out.(int64) != 0 {
			t.Errorf("vertex %d learned %v under delay-only faults, want 0", v, out)
		}
	}
}

func TestFaultsDropBudgetStarvesFirstMessages(t *testing.T) {
	// A large per-link adversarial budget silences a short flood entirely.
	g := graph.Path(2)
	plan := &faults.Plan{DropBudget: 100}
	res, err := Run(g, newFloodMin(5), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1].(int64) != 1 {
		t.Errorf("vertex 1 learned %v despite every message being dropped", res.Outputs[1])
	}
	// Dropped messages are still metered: the sender paid for them.
	if res.Messages == 0 {
		t.Error("dropped messages were not counted in metrics")
	}
}
