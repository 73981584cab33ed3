package dicongest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// dirPath returns the digraph 0 -> 1 -> ... -> n-1.
func dirPath(n int) *graph.Digraph {
	d := graph.NewDigraph(n)
	for v := 0; v+1 < n; v++ {
		d.MustAddArc(v, v+1)
	}
	return d
}

// dirCycle returns the digraph 0 -> 1 -> ... -> n-1 -> 0.
func dirCycle(n int) *graph.Digraph {
	d := dirPath(n)
	d.MustAddArc(n-1, 0)
	return d
}

// floodMinNode floods the minimum id seen so far over every link for
// exactly budget rounds, then outputs it. Links are full duplex, so the
// minimum travels against arc direction too.
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

func TestFloodMinOnDirectedPath(t *testing.T) {
	// Arcs point away from 0, but links are full duplex: every vertex must
	// still learn the minimum id, including upstream of the arcs.
	d := dirPath(8)
	res, err := Run(d, newFloodMin(8), Options{})
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

func TestInformationFlowsAgainstArcs(t *testing.T) {
	// With arcs n-1 <- ... <- 0 reversed, vertex 0's id still reaches the
	// sink of the arc orientation and vice versa.
	d := graph.NewDigraph(5)
	for v := 0; v+1 < 5; v++ {
		d.MustAddArc(v+1, v) // arcs point toward 0
	}
	res, err := Run(d, newFloodMin(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[4].(int64) != 0 {
		t.Errorf("vertex 4 learned %v, want 0 (links are full duplex)", res.Outputs[4])
	}
}

func TestAntiparallelArcsCollapseToOneLink(t *testing.T) {
	d := graph.NewDigraph(2)
	d.MustAddArc(0, 1)
	d.MustAddArc(1, 0)
	var sawNeighbors int
	factory := func(local Local) Node {
		if local.ID == 0 {
			sawNeighbors = len(local.Neighbors)
		}
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == 0 && round == 0 {
					// Two messages to the same neighbor in one round must be
					// rejected even though two (antiparallel) arcs exist.
					return []Message{{Port: 0, Payload: 1}, {Port: 0, Payload: 2}}, true
				}
				return nil, true
			},
		}
	}
	if _, err := Run(d, factory, Options{}); err == nil {
		t.Error("two messages on one link in one round accepted")
	}
	if sawNeighbors != 1 {
		t.Errorf("vertex 0 has %d link neighbors, want 1 (antiparallel pair collapses)", sawNeighbors)
	}
}

func TestLocalDirectedInfo(t *testing.T) {
	d := graph.NewDigraph(4)
	d.MustAddWeightedArc(1, 0, 5)
	d.MustAddWeightedArc(1, 3, 7)
	d.MustAddWeightedArc(2, 1, 9)
	if err := d.SetVertexWeight(1, 11); err != nil {
		t.Fatal(err)
	}
	var got Local
	factory := func(local Local) Node {
		if local.ID == 1 {
			got = local
		}
		return &congest.FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
	}
	if _, err := Run(d, factory, Options{}); err != nil {
		t.Fatal(err)
	}
	if got.N != 4 || got.VertexWeight != 11 {
		t.Errorf("local info wrong: %+v", got)
	}
	wantOut := []int{0, 3}
	wantOutW := []int64{5, 7}
	if len(got.OutNeighbors) != 2 || got.OutNeighbors[0] != wantOut[0] || got.OutNeighbors[1] != wantOut[1] ||
		got.OutWeights[0] != wantOutW[0] || got.OutWeights[1] != wantOutW[1] {
		t.Errorf("out-arcs wrong: %v %v", got.OutNeighbors, got.OutWeights)
	}
	if len(got.InNeighbors) != 1 || got.InNeighbors[0] != 2 || got.InWeights[0] != 9 {
		t.Errorf("in-arcs wrong: %v %v", got.InNeighbors, got.InWeights)
	}
	wantLinks := []int{0, 2, 3}
	if len(got.Neighbors) != len(wantLinks) {
		t.Fatalf("link neighbors %v, want %v", got.Neighbors, wantLinks)
	}
	for i := range wantLinks {
		if got.Neighbors[i] != wantLinks[i] {
			t.Errorf("link neighbors %v, want %v", got.Neighbors, wantLinks)
		}
	}
}

// TestLocalViewsFromArena checks every node's Local against the digraph
// on random weighted digraphs whose arcs are added in random order (so
// adjacency lists are unsorted), alternating a shared arena with none:
// each arena run carves its views from storage an earlier run used.
func TestLocalViewsFromArena(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	arena := &Arena{}
	sorted := func(hs []graph.Half) ([]int, []int64) {
		hs = slices.Clone(hs)
		slices.SortFunc(hs, func(a, b graph.Half) int { return a.To - b.To })
		ids, wts := []int{}, []int64{}
		for _, h := range hs {
			ids, wts = append(ids, h.To), append(wts, h.Weight)
		}
		return ids, wts
	}
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		d := graph.NewDigraph(n)
		for _, p := range rng.Perm(n * n) {
			if u, v := p/n, p%n; u != v && rng.Intn(3) == 0 {
				d.MustAddWeightedArc(u, v, rng.Int63n(5))
			}
		}
		factory := func(local Local) Node {
			v := local.ID
			outIDs, outWts := sorted(d.OutNeighbors(v))
			inIDs, inWts := sorted(d.InNeighbors(v))
			links := slices.Clone(outIDs)
			for _, u := range inIDs {
				if !slices.Contains(outIDs, u) {
					links = append(links, u)
				}
			}
			slices.Sort(links)
			if !slices.Equal(local.OutNeighbors, outIDs) || !slices.Equal(local.OutWeights, outWts) ||
				!slices.Equal(local.InNeighbors, inIDs) || !slices.Equal(local.InWeights, inWts) ||
				!slices.Equal(local.Neighbors, links) || local.N != n || local.VertexWeight != d.VertexWeight(v) {
				t.Errorf("trial %d vertex %d: local %+v, want out %v %v, in %v %v, links %v", trial, v, local, outIDs, outWts, inIDs, inWts, links)
			}
			return &congest.FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
		}
		opts := Options{}
		if trial%2 == 0 {
			opts.Arena = arena
		}
		if _, err := Run(d, factory, opts); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInboxSortedByFrom(t *testing.T) {
	// Star with arcs alternating toward/away from the center: delivery
	// order must still be ascending sender id.
	d := graph.NewDigraph(5)
	d.MustAddArc(1, 0)
	d.MustAddArc(0, 2)
	d.MustAddArc(3, 0)
	d.MustAddArc(0, 4)
	var inboxFroms []int
	factory := func(local Local) Node {
		return &congest.FuncNode{
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
	if _, err := Run(d, factory, Options{}); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4}
	if len(inboxFroms) != len(want) {
		t.Fatalf("center received %d messages, want %d", len(inboxFroms), len(want))
	}
	for i := range want {
		if inboxFroms[i] != want[i] {
			t.Errorf("inbox order %v, want %v", inboxFroms, want)
		}
	}
}

// sendAt returns a factory whose node sender sends out in round r; every
// node stops at round r.
func sendAt(r, sender int, out []Message) Factory {
	return func(local Local) Node {
		return &congest.FuncNode{
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
	d := dirPath(3) // 0 -> 1 -> 2: link degrees 1, 2, 1
	for _, tc := range []struct{ node, port, degree int }{
		{0, -1, 1},
		{0, 1, 1}, // would alias the first channel of node 1
		{1, 2, 2},
		{1, 1 << 40, 2},
		{2, 1, 1}, // would run past the last channel
	} {
		_, err := Run(d, sendAt(1, tc.node, []Message{{Port: tc.port, Payload: 1}}), Options{})
		wantPortError(t, err, 1, tc.node, tc.port, tc.degree)
	}
}

func TestDuplicateMessageSameEdgeRejected(t *testing.T) {
	d := dirPath(3) // 0 -> 1 -> 2: link degrees 1, 2, 1
	if _, err := Run(d, sendAt(1, 1, []Message{{Port: 0, Payload: 1}, {Port: 1, Payload: 2}}), Options{}); err != nil {
		t.Fatalf("one message on each port rejected: %v", err)
	}
	for _, out := range [][]Message{
		{{Port: 1, Payload: 1}, {Port: 1, Payload: 2}},
		{{Port: 0, Payload: 1}, {Port: 1, Payload: 1}, {Port: 0, Payload: 1}},
	} {
		_, err := Run(d, sendAt(1, 1, out), Options{})
		wantPortError(t, err, 1, 1, out[len(out)-1].Port, 2)
		if err != nil && !strings.Contains(err.Error(), "two messages") {
			t.Errorf("duplicate send reported as %q", err)
		}
	}
	// A send past node 0's last port is its own range error, never a
	// duplicate of node 1's send on its port 0 (the adjacent channel).
	factory := func(local Local) Node {
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID <= 1 && round == 1 {
					return []Message{{Port: 1 - local.ID, Payload: 1}}, true
				}
				return nil, round >= 1
			},
		}
	}
	_, err := Run(d, factory, Options{})
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

// TestBroadcastRules is congest's test on the directed front end: a
// broadcast (Port congest.AllPorts) beside any other message is rejected,
// a payload outside [0, 2^B) is a bandwidth error, a node without links
// sends and counts nothing, and otherwise a broadcast counts, meters and
// delivers as one message per link in ascending port order, against arc
// direction too.
func TestBroadcastRules(t *testing.T) {
	d := dirPath(3) // 0 -> 1 -> 2: link degrees 1, 2, 1
	all := Message{Port: congest.AllPorts, Payload: 1}
	for _, out := range [][]Message{
		{all, {Port: 0, Payload: 1}},
		{{Port: 0, Payload: 1}, all},
		{all, all},
	} {
		for _, opts := range []Options{{}, {Faults: &faults.Plan{}}} {
			_, err := Run(d, sendAt(1, 1, out), opts)
			wantBroadcastError(t, err, 1, 1)
		}
	}
	for _, payload := range []int64{-1, 1 << 8, 1<<62 - 1} {
		for _, opts := range []Options{{BandwidthBits: 8}, {BandwidthBits: 8, Faults: &faults.Plan{}}} {
			_, err := Run(d, sendAt(1, 1, []Message{{Port: congest.AllPorts, Payload: payload}}), opts)
			if err == nil || !strings.Contains(err.Error(), "round 1: node 1 payload") || !strings.Contains(err.Error(), "exceeds 8-bit bandwidth") {
				t.Errorf("broadcast payload %d: got %v, want the bandwidth error", payload, err)
			}
		}
	}

	// Vertex 2 of 0 -> 1 plus an isolated vertex 2 has no link: its
	// broadcast is neither sent, checked nor counted.
	lone := graph.NewDigraph(3)
	lone.MustAddArc(0, 1)
	side := []bool{true, false, false}
	for _, opts := range []Options{{CutSide: side}, {CutSide: side, Meter: &recordingMeter{}, Faults: &faults.Plan{}}} {
		res, err := Run(lone, sendAt(0, 2, []Message{{Port: congest.AllPorts, Payload: -1}}), opts)
		if err != nil {
			t.Fatalf("a linkless broadcast failed: %v", err)
		}
		if res.Messages != 0 || res.CutMessages != 0 || res.CutBits != 0 {
			t.Errorf("a linkless broadcast counted %+v", res.Metrics)
		}
		if m, ok := opts.Meter.(*recordingMeter); ok && len(m.seen) != 0 {
			t.Errorf("a linkless broadcast was metered: %v", m.seen)
		}
	}

	// Vertex 1 of 0 -> 1 -> 2 (Alice = {0}) broadcasts 5 in round 0: the
	// copy to 0 runs against the arc 0 -> 1 and crosses the cut.
	heard := make([][]Incoming, 3)
	factory := func(local Local) Node {
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				heard[local.ID] = append(heard[local.ID], inbox...)
				if local.ID == 1 && round == 0 {
					return []Message{{Port: congest.AllPorts, Payload: 5}}, false
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
			res, err := Run(d, factory, opts)
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
				entries := []dirRecord{{0, 1, 0, 5, congest.DirBobToAlice}, {0, 1, 2, 5, congest.DirInternal}}
				if fmt.Sprint(meter.seen) != fmt.Sprint(entries) {
					t.Errorf("faults %t: metered %v, want %v in port order", plan != nil, meter.seen, entries)
				}
			}
		}
	}
}

func TestBandwidthAndPayloadValidation(t *testing.T) {
	d := dirPath(2)
	send := func(payload int64) Factory {
		return func(local Local) Node {
			return &congest.FuncNode{
				RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
					if local.ID == 0 && round == 0 {
						return []Message{{Port: 0, Payload: payload}}, true
					}
					return nil, true
				},
			}
		}
	}
	if _, err := Run(d, send(1<<40), Options{BandwidthBits: 8}); err == nil {
		t.Error("oversized payload accepted")
	}
	if _, err := Run(d, send(-1), Options{}); err == nil {
		t.Error("negative payload accepted")
	}
	quiet := func(local Local) Node {
		return &congest.FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
	}
	for _, bad := range []int{-1, 63, 100} {
		if _, err := Run(d, quiet, Options{BandwidthBits: bad}); err == nil {
			t.Errorf("bandwidth %d accepted, want rejection outside [1,62]", bad)
		}
	}
	for _, ok := range []int{1, 62} {
		if _, err := Run(d, quiet, Options{BandwidthBits: ok}); err != nil {
			t.Errorf("bandwidth %d rejected: %v", ok, err)
		}
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	d := dirPath(2)
	factory := func(local Local) Node {
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				return nil, false // never terminates
			},
		}
	}
	if _, err := Run(d, factory, Options{MaxRounds: 10}); err == nil {
		t.Error("non-terminating program not aborted")
	}
}

func TestMeterRequiresBipartition(t *testing.T) {
	d := dirPath(4)
	quiet := func(local Local) Node {
		return &congest.FuncNode{RoundFunc: func(int, []Incoming) ([]Message, bool) { return nil, true }}
	}
	if _, err := Run(d, quiet, Options{Meter: &congest.CutCounts{}}); err == nil {
		t.Error("Meter with nil CutSide accepted")
	}
	if _, err := Run(d, quiet, Options{Meter: &congest.CutCounts{}, CutSide: []bool{true, false}}); err == nil {
		t.Error("Meter with undersized CutSide accepted")
	}
	if _, err := Run(d, quiet, Options{CutSide: make([]bool, 7)}); err == nil {
		t.Error("oversized CutSide accepted")
	}
	if _, err := Run(d, quiet, Options{Meter: &congest.CutCounts{}, CutSide: make([]bool, 4)}); err != nil {
		t.Errorf("well-formed metered run rejected: %v", err)
	}
}

func TestArcCutMetering(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with Alice = {0,1}: the single cut arc (1,2) is one
	// full-duplex link; flooding for 5 rounds crosses it twice per round.
	d := dirPath(4)
	side := []bool{true, true, false, false}
	counts := &congest.CutCounts{}
	res, err := Run(d, newFloodMin(5), Options{CutSide: side, Meter: counts})
	if err != nil {
		t.Fatal(err)
	}
	if res.CutMessages != 10 {
		t.Errorf("cut messages = %d, want 10", res.CutMessages)
	}
	if res.CutBits != res.CutMessages*int64(res.BandwidthBits) {
		t.Error("cut bits inconsistent with cut messages")
	}
	if counts.CutMessages() != res.CutMessages || counts.CutBits() != res.CutBits {
		t.Errorf("meter (%d msgs, %d bits) disagrees with metrics (%d, %d)",
			counts.CutMessages(), counts.CutBits(), res.CutMessages, res.CutBits)
	}
	if counts.MessagesAB == 0 || counts.MessagesBA == 0 {
		t.Error("flooding must cross the cut in both directions")
	}
	if res.Messages <= res.CutMessages {
		t.Error("total messages should exceed cut messages on a path")
	}
}

func TestMeterClassifiesDirections(t *testing.T) {
	// Arcs 0 -> 1, 2 -> 1, 2 -> 3 with Alice = {0,1}: link (1,2) crosses;
	// message 1->2 travels against the arc and is still A->B.
	d := graph.NewDigraph(4)
	d.MustAddArc(0, 1)
	d.MustAddArc(2, 1)
	d.MustAddArc(2, 3)
	side := []bool{true, true, false, false}
	rec := &recordingMeter{}
	factory := func(local Local) Node {
		return &congest.FuncNode{
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
	res, err := Run(d, factory, Options{CutSide: side, Meter: rec})
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]congest.Direction{
		{0, 1}: congest.DirInternal, {1, 0}: congest.DirInternal,
		{1, 2}: congest.DirAliceToBob, {2, 1}: congest.DirBobToAlice,
		{2, 3}: congest.DirInternal, {3, 2}: congest.DirInternal,
	}
	if len(rec.seen) != len(want) {
		t.Fatalf("observed %d messages, want %d", len(rec.seen), len(want))
	}
	var crossing int64
	for _, obs := range rec.seen {
		if dir, ok := want[[2]int{obs.from, obs.to}]; !ok || dir != obs.dir {
			t.Errorf("message %d->%d classified %v, want %v", obs.from, obs.to, obs.dir, dir)
		}
		if obs.dir != congest.DirInternal {
			crossing++
		}
	}
	if crossing != res.CutMessages {
		t.Errorf("meter saw %d crossing messages, metrics say %d", crossing, res.CutMessages)
	}
}

type dirRecord struct {
	round, from, to int
	payload         int64
	dir             congest.Direction
}

type recordingMeter struct{ seen []dirRecord }

func (r *recordingMeter) Observe(round, from, to int, payload int64, bits int, dir congest.Direction) {
	r.seen = append(r.seen, dirRecord{round, from, to, payload, dir})
}

// TestMeterEmptyCut: a bipartition with zero crossing arcs (here: all
// vertices on Bob's side) is valid — the meter observes only internal
// messages and the cut totals stay zero. Shared edge case with the
// undirected simulator.
func TestMeterEmptyCut(t *testing.T) {
	d := dirCycle(6)
	for _, side := range [][]bool{make([]bool, 6), allTrue(6)} {
		counts := &congest.CutCounts{}
		res, err := Run(d, newFloodMin(4), Options{CutSide: side, Meter: counts})
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

// TestMeterSingleVertexSides: bipartitions with a single vertex on one
// side. The cut links are exactly that vertex's links.
func TestMeterSingleVertexSides(t *testing.T) {
	d := dirCycle(6)
	for _, alice := range []int{0, 3} {
		for _, invert := range []bool{false, true} {
			side := make([]bool, 6)
			for v := range side {
				side[v] = (v == alice) != invert
			}
			counts := &congest.CutCounts{}
			res, err := Run(d, newFloodMin(4), Options{CutSide: side, Meter: counts})
			if err != nil {
				t.Fatal(err)
			}
			// The single vertex has 2 links on the cycle; 4 sending rounds
			// cross each link twice per round.
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

func allTrue(n int) []bool {
	side := make([]bool, n)
	for i := range side {
		side[i] = true
	}
	return side
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
// is one congest.AllPorts message, built once.
func newBroadcastChatter(budget int) Factory {
	return func(local Local) Node {
		return &chatterNode{outbox: []Message{{Port: congest.AllPorts, Payload: int64(local.ID)}}, budget: budget}
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
			out = append(out[:0], Message{Port: congest.AllPorts, Payload: int64(local.ID)})
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
	// the same digraph: the extra rounds must not allocate at all, with
	// the meter disabled and enabled (mirrors the congest assertion).
	d := dirCycle(16)
	runWith := func(rounds int) func() {
		return func() {
			if _, err := Run(d, newChatter(rounds), Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(5, runWith(10))
	long := testing.AllocsPerRun(5, runWith(1010))
	if long > short {
		t.Errorf("per-round allocations detected: %v allocs for 10 rounds, %v for 1010", short, long)
	}

	side := make([]bool, d.N())
	for v := range side {
		side[v] = v%2 == 0
	}
	counts := &congest.CutCounts{}
	meteredWith := func(rounds int) func() {
		return func() {
			if _, err := Run(d, newChatter(rounds), Options{CutSide: side, Meter: counts}); err != nil {
				t.Fatal(err)
			}
		}
	}
	shortM := testing.AllocsPerRun(5, meteredWith(10))
	longM := testing.AllocsPerRun(5, meteredWith(1010))
	if longM > shortM {
		t.Errorf("metered per-round allocations detected: %v allocs for 10 rounds, %v for 1010", shortM, longM)
	}

	// With faults enabled the injector and ring are built at setup time;
	// the round loop itself must still not allocate.
	plan := &faults.Plan{Seed: 3, DropProb: 0.05, MaxDelay: 2}
	faultyWith := func(rounds int) func() {
		return func() {
			if _, err := Run(d, newChatter(rounds), Options{Faults: plan}); err != nil {
				t.Fatal(err)
			}
		}
	}
	shortF := testing.AllocsPerRun(5, faultyWith(10))
	longF := testing.AllocsPerRun(5, faultyWith(1010))
	if longF > shortF {
		t.Errorf("faulty per-round allocations detected: %v allocs for 10 rounds, %v for 1010", shortF, longF)
	}

	// Trace-on must be O(1) allocs per round too, mirroring the congest
	// assertion: the shared congest.Tracer receives a stack-passed
	// RoundTrace and this tracer only adds integers.
	tracer := &countingTracer{}
	tracedWith := func(rounds int) func() {
		return func() {
			if _, err := Run(d, newChatter(rounds), Options{Trace: tracer}); err != nil {
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
				if _, err := Run(d, program(rounds), opts); err != nil {
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
	programs := []Factory{pooledSleepers(d.N(), 2, budget, false), pooledSleepers(d.N(), 2, budget, true)}
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
		first, err := Run(d, program, opts)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			res, err := Run(d, program, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res != first || res.Rounds != budget+1 || len(res.Outputs) != d.N() {
				t.Fatalf("a warm arena run returned %+v, not the arena's Result", res)
			}
		})
		if allocs != 0 {
			t.Errorf("a whole warm run on an arena (broadcast %t, meter %t, trace %t, faults %t) allocates %v times, want 0",
				mode&8 != 0, opts.Meter != nil, opts.Trace != nil, opts.Faults != nil, allocs)
		}
	}
}

// countingTracer accumulates congest.RoundTrace fields without
// allocating (the tracer contract both simulators share).
type countingTracer struct {
	rounds, sent, delivered, dropped, lastActive int
}

func (c *countingTracer) ObserveRound(t congest.RoundTrace) {
	c.rounds++
	c.sent += t.Sent
	c.delivered += t.Delivered
	c.dropped += t.Dropped
	c.lastActive = t.Active
}

func TestTraceObservesEveryRound(t *testing.T) {
	d := dirCycle(16)
	tr := &countingTracer{}
	res, err := Run(d, newChatter(8), Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.rounds != res.Rounds {
		t.Errorf("tracer saw %d rounds, metrics say %d", tr.rounds, res.Rounds)
	}
	if int64(tr.sent) != res.Messages {
		t.Errorf("traced sent %d != metered messages %d", tr.sent, res.Messages)
	}
	if tr.delivered != tr.sent {
		t.Errorf("traced delivered %d != sent %d on a fault-free run", tr.delivered, tr.sent)
	}
	if tr.lastActive != 0 {
		t.Errorf("last round reports %d active nodes, want 0", tr.lastActive)
	}
}

func TestEmptyDigraph(t *testing.T) {
	res, err := Run(graph.NewDigraph(0), newFloodMin(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 {
		t.Errorf("empty digraph ran %d rounds", res.Rounds)
	}
}

func TestDeltaWalkKeepsRoutingCurrent(t *testing.T) {
	// The certify engine toggles arcs between runs on one mutable digraph;
	// each Run must route over the current arc set (the Freeze snapshot
	// is spliced in place by ToggleArc).
	d := dirPath(3)
	if _, err := d.ToggleArc(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, newFloodMin(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[2].(int64) != 0 {
		t.Error("vertex 2 did not hear vertex 0 over the toggled-in arc")
	}
	if _, err := d.ToggleArc(0, 2, 1); err != nil { // remove it again
		t.Fatal(err)
	}
	factory := func(local Local) Node {
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				if local.ID == 0 && round == 0 {
					return []Message{{Port: 1, Payload: 1}}, true // vertex 2's port while the arc was in
				}
				return nil, true
			},
		}
	}
	if _, err := Run(d, factory, Options{}); err == nil {
		t.Error("message over the toggled-out arc accepted")
	}
}

func TestMaxRoundsErrorNamesLiveNodes(t *testing.T) {
	// Regression: the MaxRounds-exhausted error must name the still-running
	// node ids and the round count (shared with the undirected simulator).
	d := dirPath(4)
	factory := func(local Local) Node {
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []Incoming) ([]Message, bool) {
				return nil, local.ID == 0 // only node 0 ever terminates
			},
		}
	}
	_, err := Run(d, factory, Options{MaxRounds: 7})
	if err == nil {
		t.Fatal("non-terminating program not aborted")
	}
	for _, want := range []string{"7 rounds", "3 of 4 nodes", "[1 2 3]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestFaultsSeededReplayDeterministic(t *testing.T) {
	d := dirCycle(12)
	plan := &faults.Plan{Seed: 17, DropProb: 0.2, MaxDelay: 2}
	run := func() *Result {
		res, err := Run(d, newFloodMin(30), Options{Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Fatalf("replay diverged: %d rounds/%d msgs vs %d rounds/%d msgs",
			a.Rounds, a.Messages, b.Rounds, b.Messages)
	}
	for v := range a.Outputs {
		if a.Outputs[v] != b.Outputs[v] {
			t.Errorf("vertex %d: replay diverged: %v vs %v", v, a.Outputs[v], b.Outputs[v])
		}
	}
}

func TestFaultsCrashAndLinkFailure(t *testing.T) {
	// Crashing node 1 on the directed path 0->1->2->3 cuts 2 and 3 off
	// from the minimum id 0, and the crashed node produces no output.
	d := dirPath(4)
	plan := &faults.Plan{Crashes: []faults.Crash{{Node: 1, Round: 0}}}
	res, err := Run(d, newFloodMin(10), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != nil {
		t.Errorf("crashed node produced output %v", res.Outputs[1])
	}
	for _, v := range []int{2, 3} {
		if got := res.Outputs[v].(int64); got != 2 {
			t.Errorf("vertex %d learned %d, want 2 after node 1 crashed", v, got)
		}
	}

	// A link failure is keyed on the unordered pair, so it silences the
	// full-duplex link in both directions.
	plan = &faults.Plan{LinkFailures: []faults.LinkFailure{{U: 1, V: 2, Round: 0}}}
	res, err = Run(d, newFloodMin(10), Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range map[int]int64{0: 0, 1: 0, 2: 2, 3: 2} {
		if got := res.Outputs[v].(int64); got != want {
			t.Errorf("vertex %d learned %d, want %d after 1-2 link failure", v, got, want)
		}
	}
}
