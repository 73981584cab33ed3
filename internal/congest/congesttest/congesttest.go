// Package congesttest holds what the tests of the simulator core share
// across packages congest and dicongest: a recorder that captures a run's
// outcome (result or error, meter observations, round traces) and
// compares two runs outcome for outcome, a wrapper that hides a node's
// Wake (congest.Sleeper) and Steady (congest.Repeater), a wrapper that
// sends a node's broadcasts as one message per port, and a sleeping and a
// repeating program drawn from a hash, both of which broadcast now and
// then. With them the tests check that two paths that must agree — push
// delivery and the fault ring, the directed and undirected front ends,
// sleeping and awake nodes, jumped and run steady rounds, broadcasts and
// their per-port expansion — produce bit-identical runs.
package congesttest

import (
	"errors"
	"fmt"
	"reflect"

	"congesthard/internal/congest"
)

// Awake hides node's Wake and Steady, if it has them: the simulator then
// runs the node every round, as it runs any program that neither sleeps
// nor declares steady rounds.
func Awake(node congest.Node) congest.Node { return awake{node} }

type awake struct{ congest.Node }

// Unicast sends node's broadcasts as one message per port: an outbox
// whose only entry is addressed to congest.AllPorts becomes degree
// messages with its payload, on ports 0 to degree-1 in that order; any
// other outbox passes unchanged. It forwards Wake and Steady, reading a
// node without them as awake every round and steady in none, so the
// wrapped node sleeps and jumps as the node does. degree must be the
// node's port count.
func Unicast(node congest.Node, degree int) congest.Node {
	return &unicast{Node: node, out: make([]congest.Message, degree)}
}

type unicast struct {
	congest.Node
	out []congest.Message
}

// Round runs the node and expands a broadcast.
func (u *unicast) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	out, done := u.Node.Round(round, inbox)
	if len(out) != 1 || out[0].Port != congest.AllPorts {
		return out, done
	}
	for port := range u.out {
		u.out[port] = congest.Message{Port: port, Payload: out[0].Payload}
	}
	return u.out, done
}

// Wake forwards the node's Wake; 0 (the next round) if it has none.
func (u *unicast) Wake() int {
	if s, ok := u.Node.(congest.Sleeper); ok {
		return s.Wake()
	}
	return 0
}

// Steady forwards the node's Steady; 0 (no steady round) if it has none.
func (u *unicast) Steady() int {
	if r, ok := u.Node.(congest.Repeater); ok {
		return r.Steady()
	}
	return 0
}

// Sleepy is a sleeping program whose sends, wake rounds and finish are
// drawn from a hash of everything it has received. Called with an empty
// inbox before its wake round it does nothing, as congest.Sleeper asks,
// so it behaves the same whether or not its Wake is hidden.
type Sleepy struct {
	degree   int
	mask     int64
	finishAt int
	farWake  int
	state    uint64
	wake     int
	out      []congest.Message
}

// NewSleepy returns vertex id's program on a node of the given degree:
// it finishes at the first round at or after a hashed round below 24 in
// which it runs, and after each other round it sends on a hashed subset of
// its ports (or, in about one round in five, broadcasts) and sleeps until
// the next round, a hashed round up to nine later or, now and then,
// farWake (0 never sleeps that long). A farWake
// past the run's MaxRounds makes some runs exhaust their budget.
func NewSleepy(id, degree, bandwidth int, seed uint64, farWake int) *Sleepy {
	s := &Sleepy{
		degree:  degree,
		mask:    int64(1)<<uint(bandwidth) - 1,
		farWake: farWake,
		state:   mix(seed ^ uint64(id)*0x9E3779B97F4A7C15),
		out:     make([]congest.Message, 0, max(degree, 1)),
	}
	s.finishAt = int(s.state % 24)
	return s
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// Round folds the inbox into the state and draws the round's sends and
// the next wake round from it.
func (s *Sleepy) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	if len(inbox) == 0 && round < s.wake {
		return nil, false // asleep, and nothing arrived
	}
	for _, in := range inbox {
		s.state = mix(s.state ^ uint64(in.Port)<<48 ^ uint64(in.Payload))
	}
	s.state = mix(s.state + uint64(round))
	if round >= s.finishAt {
		return nil, true
	}
	h := s.state
	s.out = s.out[:0]
	switch {
	case h&3 == 0:
	case h>>2&3 == 0:
		s.out = append(s.out, congest.Message{Port: congest.AllPorts, Payload: int64(h>>4) & s.mask})
	default:
		for port := 0; port < s.degree; port++ {
			if h>>(8+port%48)&1 == 1 {
				s.out = append(s.out, congest.Message{Port: port, Payload: int64(h>>uint(port%8)) & s.mask})
			}
		}
	}
	switch k := h >> 56; {
	case k < 64:
		s.wake = round + 1
	case k < 224 || s.farWake == 0:
		s.wake = round + 1 + int(k%10)
	default:
		s.wake = s.farWake
	}
	return s.out, false
}

// Wake implements congest.Sleeper.
func (s *Sleepy) Wake() int { return s.wake }

// Output is the program's state.
func (s *Sleepy) Output() interface{} { return s.state }

// Repeating is a program that repeats itself in stretches of steady
// rounds. Its sends, finish and the ends of its stretches are drawn from
// a hash of everything it has received; most stretches end at rounds
// shared by every node of a run (drawn from the seed alone), so whole
// networks fall steady together. Within a stretch it ignores its inbox
// and returns the same outbox, as congest.Repeater asks; at the round
// that ends one it folds its inbox into its state. Calls counts its
// Round calls.
type Repeating struct {
	degree   int
	mask     int64
	seed     uint64
	finishAt int
	far      int
	state    uint64
	until    int
	out      []congest.Message
	calls    *int
}

// NewRepeating returns vertex id's program on a node of the given
// degree: it finishes at the first round at or after a hashed round below
// 80 that ends a stretch. After each other such round it sends on a
// hashed subset of its ports (or, in about one such round in four,
// broadcasts) and stays steady until the next round the seed marks
// (StretchEnd), or now and then until an earlier hashed round,
// only for the next round, or until far (0 never).
// A far past the run's MaxRounds makes some runs exhaust their budget.
// calls, if not nil, counts the program's Round calls.
func NewRepeating(id, degree, bandwidth int, seed uint64, far int, calls *int) *Repeating {
	r := &Repeating{
		degree: degree,
		mask:   int64(1)<<uint(bandwidth) - 1,
		seed:   seed,
		far:    far,
		state:  mix(seed ^ uint64(id)*0x9E3779B97F4A7C15),
		out:    make([]congest.Message, 0, max(degree, 1)),
		calls:  calls,
	}
	r.finishAt = int(r.state % 80)
	return r
}

// Round repeats the outbox within a stretch; at its end it folds the
// inbox into the state and draws the next sends and stretch.
func (r *Repeating) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	if r.calls != nil {
		*r.calls++
	}
	if round < r.until {
		return r.out, false
	}
	for _, in := range inbox {
		r.state = mix(r.state ^ uint64(in.Port)<<48 ^ uint64(in.Payload))
	}
	r.state = mix(r.state + uint64(round))
	if round >= r.finishAt {
		return nil, true
	}
	h := r.state
	r.out = r.out[:0]
	if h&3 == 0 {
		r.out = append(r.out, congest.Message{Port: congest.AllPorts, Payload: int64(h>>2) & r.mask})
	} else {
		for port := 0; port < r.degree; port++ {
			if h>>(8+port%48)&1 == 1 {
				r.out = append(r.out, congest.Message{Port: port, Payload: int64(h>>uint(port%8)) & r.mask})
			}
		}
	}
	shared := StretchEnd(r.seed, round)
	switch k := h >> 56; {
	case k < 8:
		r.until = round + 1
	case k < 24:
		r.until = round + 1 + int(k)%(shared-round)
	case k < 32 && r.far != 0:
		r.until = r.far
	default:
		r.until = shared
	}
	return r.out, false
}

// StretchEnd is the first round after round that the seed marks as the
// end of a shared stretch of Repeating's: about one round in eight.
func StretchEnd(seed uint64, round int) int {
	end := round + 1
	for mix(seed^uint64(end))%8 != 0 {
		end++
	}
	return end
}

// Steady implements congest.Repeater.
func (r *Repeating) Steady() int { return r.until }

// Output is the program's state.
func (r *Repeating) Output() interface{} { return r.state }

// MeterEntry is one congest.Meter observation.
type MeterEntry struct {
	Round, From, To int
	Payload         int64
	Bits            int
	Dir             congest.Direction
}

// Outcome is everything a run shows: its result or error, and its meter
// observations and round traces in order.
type Outcome struct {
	Result  *congest.Result
	Err     error
	Entries []MeterEntry
	Rounds  []congest.RoundTrace
}

// Observe implements congest.Meter.
func (o *Outcome) Observe(round, from, to int, payload int64, bits int, dir congest.Direction) {
	o.Entries = append(o.Entries, MeterEntry{round, from, to, payload, bits, dir})
}

// ObserveRound implements congest.Tracer.
func (o *Outcome) ObserveRound(t congest.RoundTrace) { o.Rounds = append(o.Rounds, t) }

// Record runs run with opts, observing every round and, when opts has a
// cut, every message.
func Record(run func(congest.Options) (*congest.Result, error), opts congest.Options) *Outcome {
	o := &Outcome{}
	opts.Trace = o
	if opts.CutSide != nil {
		opts.Meter = o
	}
	o.Result, o.Err = run(opts)
	return o
}

// Unobserved runs run with opts and no observer: the loop may then jump
// steady rounds, which it never does while a Meter or Tracer watches.
func Unobserved(run func(congest.Options) (*congest.Result, error), opts congest.Options) *Outcome {
	opts.Trace, opts.Meter = nil, nil
	o := &Outcome{}
	o.Result, o.Err = run(opts)
	return o
}

// Diff describes the first way in which two outcomes differ, or returns
// "" if they are identical: the same metrics and outputs, or errors with
// the same text (and, for a *congest.RoundsError, the same fields), and
// the same meter observations and round traces.
func Diff(a, b *Outcome) string {
	var ra, rb *congest.RoundsError
	switch {
	case (a.Err == nil) != (b.Err == nil):
		return fmt.Sprintf("errors %v and %v", a.Err, b.Err)
	case a.Err != nil && a.Err.Error() != b.Err.Error():
		return fmt.Sprintf("errors %q and %q", a.Err, b.Err)
	case errors.As(a.Err, &ra) != errors.As(b.Err, &rb) || ra != nil && !reflect.DeepEqual(*ra, *rb):
		return fmt.Sprintf("rounds errors %+v and %+v", ra, rb)
	case a.Err == nil && a.Result.Metrics != b.Result.Metrics:
		return fmt.Sprintf("metrics %+v and %+v", a.Result.Metrics, b.Result.Metrics)
	case a.Err == nil && !reflect.DeepEqual(a.Result.Outputs, b.Result.Outputs):
		return fmt.Sprintf("outputs %v and %v", a.Result.Outputs, b.Result.Outputs)
	case !reflect.DeepEqual(a.Entries, b.Entries):
		return fmt.Sprintf("%d and %d meter entries, or they differ", len(a.Entries), len(b.Entries))
	case !reflect.DeepEqual(a.Rounds, b.Rounds):
		return fmt.Sprintf("round traces %v and %v", a.Rounds, b.Rounds)
	}
	return ""
}
