package dicongest_test

import (
	"math/rand"
	"testing"

	"congesthard/internal/congest"
	"congesthard/internal/congest/congesttest"
	"congesthard/internal/dicongest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
)

// mixer is a program that reads only its id, the network size and its
// link neighbors, so it is well defined on both simulators: it folds every
// received (sender, payload) into a running state, sends that state to the
// neighbors its bits select, and stops at an id-dependent budget, so some
// messages reach nodes that have already terminated.
type mixer struct {
	id     int
	nbrs   []int
	mask   int64
	budget int
	state  uint64
}

func newMixer(id, n int, nbrs []int) *mixer {
	return &mixer{
		id:     id,
		nbrs:   nbrs,
		mask:   int64(1)<<uint(congest.DefaultBandwidth(n)) - 1,
		budget: 3 + (id*7)%5,
		state:  uint64(id)*0x9E3779B97F4A7C15 + 1,
	}
}

func (m *mixer) absorb(from int, payload int64) {
	m.state = (m.state^uint64(from)*0xBF58476D1CE4E5B9^uint64(payload))*0x94D049BB133111EB + 1
}

// sends makes this round's sends, by port, and reports done.
func (m *mixer) sends(round int, send func(port int, payload int64)) bool {
	if round >= m.budget {
		return true
	}
	for i := range m.nbrs {
		if (m.state>>uint(i%64))&1 == 1 || round == 0 {
			send(i, int64(m.state>>7)&m.mask)
		}
	}
	return false
}

type undirectedMixer struct {
	*mixer
	out []congest.Message
}

func (u *undirectedMixer) Round(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
	for _, in := range inbox {
		u.absorb(u.nbrs[in.Port], in.Payload)
	}
	u.out = u.out[:0]
	done := u.sends(round, func(port int, p int64) { u.out = append(u.out, congest.Message{Port: port, Payload: p}) })
	return u.out, done
}

func (u *undirectedMixer) Output() interface{} { return u.state }

type directedMixer struct {
	*mixer
	out []dicongest.Message
}

func (d *directedMixer) Round(round int, inbox []dicongest.Incoming) ([]dicongest.Message, bool) {
	for _, in := range inbox {
		d.absorb(d.nbrs[in.Port], in.Payload)
	}
	d.out = d.out[:0]
	done := d.sends(round, func(port int, p int64) { d.out = append(d.out, dicongest.Message{Port: port, Payload: p}) })
	return d.out, done
}

func (d *directedMixer) Output() interface{} { return d.state }

// randomOrientation draws a digraph on n vertices whose vertex pairs are
// unlinked, one-way (either direction) or antiparallel.
func randomOrientation(n int, rng *rand.Rand) *graph.Digraph {
	d := graph.NewDigraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			switch rng.Intn(6) {
			case 0:
				d.MustAddArc(u, v)
			case 1:
				d.MustAddArc(v, u)
			case 2:
				d.MustAddArc(u, v)
				d.MustAddArc(v, u)
			}
		}
	}
	return d
}

// TestDirectedRunMatchesUnderlyingRun pins that the directed simulator is
// the undirected one on the underlying graph: a program that reads only
// its link neighbors sees the same inboxes, sends the same messages and
// yields the same metrics, outputs, meter observations and round traces,
// with and without faults.
func TestDirectedRunMatchesUnderlyingRun(t *testing.T) {
	plan, err := faults.Parse("drop=0.1,delay=2,crash=1@3,fail=0-1@2")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		d := randomOrientation(n, rng)
		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		var fp *faults.Plan
		if trial%2 == 1 {
			fp = plan
		}

		opts := congest.Options{CutSide: side, Faults: fp}
		under := congesttest.Record(func(o congest.Options) (*congest.Result, error) {
			return congest.Run(d.Underlying(), func(l congest.Local) congest.Node {
				return &undirectedMixer{mixer: newMixer(l.ID, l.N, l.Neighbors)}
			}, o)
		}, opts)
		directed := congesttest.Record(func(o congest.Options) (*congest.Result, error) {
			return dicongest.Run(d, func(l dicongest.Local) dicongest.Node {
				return &directedMixer{mixer: newMixer(l.ID, l.N, l.Neighbors)}
			}, o)
		}, opts)
		if under.Err != nil || directed.Err != nil {
			t.Fatalf("trial %d: congest.Run: %v, dicongest.Run: %v", trial, under.Err, directed.Err)
		}
		if diff := congesttest.Diff(directed, under); diff != "" {
			t.Fatalf("trial %d (n=%d, faults=%v): directed and undirected: %s", trial, n, fp != nil, diff)
		}
	}
}
