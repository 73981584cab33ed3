// Package reduction executes the paper's central argument end to end: a
// CONGEST algorithm running on a family graph G_{x,y} is simulated by two
// parties — Alice owning V_A, Bob owning V_B — whose communication is
// exactly the messages crossing the cut, so a T-round algorithm with
// bandwidth B yields a protocol exchanging at most 2·T·B·|E_cut| bits
// (Theorem 1.1). The package provides:
//
//   - TwoPartyTranscript: the ordered cut-crossing message sequence of a
//     metered run, extracted through the simulator's Meter hook;
//   - VerifySimulation: the simulation invariant made executable — Alice's
//     side re-run against the recorded transcript (Bob's vertices replaced
//     by replay stubs) must reproduce her outputs and outgoing messages
//     exactly, because her view is a deterministic function of her side of
//     the graph plus the transcript;
//   - Certify: run an algorithm over sampled or exhaustive (x, y) pairs of
//     a lower-bound family, reporting per-pair rounds, cut traffic and
//     output correctness, and the aggregate rounds·B·|E_cut| budget against
//     the communication complexity of f.
//
// Certify and CertifyDigraph are one generic body on lbfamily's sweep
// engine (lbfamily.Sweep), the same engine Verify runs on; only the
// simulator call depends on the graph kind. The report is bit-identical
// at any Config.Workers, and Workers = 1 walks the pairs in canonical
// order.
package reduction

import (
	"fmt"
	"reflect"
	"slices"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// Entry is one cut-crossing message, in the simulator's deterministic
// delivery order (ascending round, then ascending sender id, then the
// sender's outbox order).
type Entry struct {
	Round   int
	From    int
	To      int
	Payload int64
	Bits    int
	Dir     congest.Direction
}

// TwoPartyTranscript is the ordered bit transcript of the Alice-Bob
// simulation of one metered run: every message that crossed the cut, with
// per-direction bit totals. By Theorem 1.1, BitsAB+BitsBA is at most
// 2·rounds·B·|E_cut|.
type TwoPartyTranscript struct {
	Entries []Entry
	BitsAB  int64
	BitsBA  int64
}

var _ congest.Meter = (*TwoPartyTranscript)(nil)

// Observe appends crossing messages to the transcript (internal messages
// are not part of the two-party protocol and are dropped).
func (t *TwoPartyTranscript) Observe(round, from, to int, payload int64, bits int, dir congest.Direction) {
	switch dir {
	case congest.DirAliceToBob:
		t.BitsAB += int64(bits)
	case congest.DirBobToAlice:
		t.BitsBA += int64(bits)
	default:
		return
	}
	t.Entries = append(t.Entries, Entry{Round: round, From: from, To: to, Payload: payload, Bits: bits, Dir: dir})
}

// Bits returns the total transcript length in bits.
func (t *TwoPartyTranscript) Bits() int64 { return t.BitsAB + t.BitsBA }

// filter returns the entries with the given direction, preserving order.
func (t *TwoPartyTranscript) filter(dir congest.Direction) []Entry {
	var out []Entry
	for _, e := range t.Entries {
		if e.Dir == dir {
			out = append(out, e)
		}
	}
	return out
}

// ExtractTranscript runs factory on g with the cut metered and returns the
// two-party transcript alongside the run result.
func ExtractTranscript(g *graph.Graph, side []bool, factory congest.Factory, opts congest.Options) (*TwoPartyTranscript, *congest.Result, error) {
	transcript := &TwoPartyTranscript{}
	opts.CutSide = side
	opts.Meter = transcript
	res, err := congest.Run(g, factory, opts)
	if err != nil {
		return nil, nil, err
	}
	return transcript, res, nil
}

// replayStub replaces one Bob vertex during the replay run: it sends the
// recorded Bob→Alice messages of that vertex at their recorded rounds and
// nothing else. Messages it receives (Alice's A→B traffic) are ignored —
// the stub is the transcript personified.
type replayStub struct {
	schedule  []Entry // this vertex's B→A sends, in round order
	neighbors []int   // the vertex's Local.Neighbors, to address by port
	next      int
	outbox    []congest.Message
}

func (s *replayStub) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	s.outbox = s.outbox[:0]
	for s.next < len(s.schedule) && s.schedule[s.next].Round == round {
		e := s.schedule[s.next]
		port, ok := slices.BinarySearch(s.neighbors, e.To)
		if !ok {
			port = -1 // the simulator rejects it, naming the round and node
		}
		s.outbox = append(s.outbox, congest.Message{Port: port, Payload: e.Payload})
		s.next++
	}
	return s.outbox, s.next >= len(s.schedule)
}

func (s *replayStub) Output() interface{} { return nil }

// VerifySimulation asserts the Theorem 1.1 simulation invariant on one
// run: Alice's view is a deterministic function of her side of the graph
// plus the transcript. It first runs factory on g with the cut metered,
// then re-runs only Alice's vertices — every Bob vertex is replaced by a
// stub that plays back the recorded Bob→Alice messages at their recorded
// rounds — and checks that Alice's per-vertex outputs and her Alice→Bob
// message sequence are identical in both runs. The factory must be
// deterministic given (graph, vertex id), which every program in this
// module satisfies (randomized programs derive their stream from a seed
// and the vertex id).
//
// It returns the transcript and the full run's result on success. The
// result is a copy in fresh memory, also when opts.Arena is set: the
// replay run reuses the arena, and the check compares Alice's replayed
// outputs with the copy.
func VerifySimulation(g *graph.Graph, side []bool, factory congest.Factory, opts congest.Options) (*TwoPartyTranscript, *congest.Result, error) {
	return checkSimulation(g.N(), side, func(schedules map[int][]Entry) (*TwoPartyTranscript, *congest.Result, error) {
		return ExtractTranscript(g, side, func(local congest.Local) congest.Node {
			if schedules != nil && !side[local.ID] {
				return &replayStub{schedule: schedules[local.ID], neighbors: local.Neighbors}
			}
			return factory(local)
		}, opts)
	})
}

// checkSimulation is the check body of VerifySimulation and
// VerifyDigraphSimulation on an n-vertex instance. run executes the
// metered program: every vertex runs it when schedules is nil, and
// otherwise each Bob vertex v is a replay stub playing schedules[v].
func checkSimulation(n int, side []bool, run func(schedules map[int][]Entry) (*TwoPartyTranscript, *congest.Result, error)) (*TwoPartyTranscript, *congest.Result, error) {
	if len(side) != n {
		return nil, nil, fmt.Errorf("bipartition has %d entries for %d vertices", len(side), n)
	}
	full, res, err := run(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("full run: %w", err)
	}
	// On an arena the replay run reuses the full run's Result: keep a copy.
	res = &congest.Result{Metrics: res.Metrics, Outputs: slices.Clone(res.Outputs)}
	schedules := make(map[int][]Entry)
	for _, e := range full.filter(congest.DirBobToAlice) {
		schedules[e.From] = append(schedules[e.From], e)
	}
	replay, replayRes, err := run(schedules)
	if err != nil {
		return nil, nil, fmt.Errorf("replay run: %w", err)
	}
	for v := range side {
		if !side[v] {
			continue
		}
		if !reflect.DeepEqual(res.Outputs[v], replayRes.Outputs[v]) {
			return nil, nil, fmt.Errorf("simulation invariant violated: Alice vertex %d output %v in the full run but %v against the transcript", v, res.Outputs[v], replayRes.Outputs[v])
		}
	}
	fullAB, replayAB := full.filter(congest.DirAliceToBob), replay.filter(congest.DirAliceToBob)
	if len(fullAB) != len(replayAB) {
		return nil, nil, fmt.Errorf("simulation invariant violated: %d A->B messages in the full run, %d against the transcript", len(fullAB), len(replayAB))
	}
	for i := range fullAB {
		if fullAB[i] != replayAB[i] {
			return nil, nil, fmt.Errorf("simulation invariant violated: A->B message %d is %+v in the full run but %+v against the transcript", i, fullAB[i], replayAB[i])
		}
	}
	replayBA := replay.filter(congest.DirBobToAlice)
	fullBA := full.filter(congest.DirBobToAlice)
	if len(replayBA) != len(fullBA) {
		return nil, nil, fmt.Errorf("replay stubs sent %d B->A messages, transcript has %d", len(replayBA), len(fullBA))
	}
	return full, res, nil
}
