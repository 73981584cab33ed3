package faults

import (
	"math"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"seed=7",
		"seed=7,drop=0.01",
		"seed=7,drop=1",
		"seed=3,drop=0.25,budget=2,delay=4",
		"seed=0,crash=4@10",
		"seed=0,crash=1@0,crash=4@10,fail=1-2@5,fail=3-7@0",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
		again, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		if again.String() != p.String() {
			t.Errorf("round-trip diverged: %q vs %q", again.String(), p.String())
		}
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	for _, s := range []string{
		"drop",            // not key=value
		"drop=1.5",        // probability above 1
		"drop=nan",        // NaN slips every range comparison
		"drop=-0.5",       // negative probability
		"budget=-1",       // negative budget
		"delay=99999",     // above MaxDelayLimit
		"crash=4",         // missing @round
		"crash=a@b",       // non-numeric
		"fail=1@5",        // missing V
		"fail=1-2",        // missing round
		"verbosity=9",     // unknown key
		"seed=notanumber", // bad seed
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted bad input", s)
		}
	}
}

func TestValidateRanges(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"crash node out of range", Plan{Crashes: []Crash{{Node: 8, Round: 0}}}},
		{"negative crash round", Plan{Crashes: []Crash{{Node: 1, Round: -1}}}},
		{"fail endpoint out of range", Plan{LinkFailures: []LinkFailure{{U: 0, V: 8, Round: 0}}}},
		{"self link", Plan{LinkFailures: []LinkFailure{{U: 3, V: 3, Round: 0}}}},
		{"drop prob above one", Plan{DropProb: 1.5}},
		{"drop prob NaN", Plan{DropProb: math.NaN()}},
	} {
		if err := tc.plan.Validate(8); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.plan)
		}
	}
	for _, good := range []Plan{
		{Seed: 1, DropProb: 0.5, DropBudget: 3, MaxDelay: 2,
			Crashes: []Crash{{Node: 7, Round: 0}}, LinkFailures: []LinkFailure{{U: 0, V: 7, Round: 4}}},
		{DropProb: 1}, // total blackout is a legitimate adversarial plan
	} {
		if err := good.Validate(8); err != nil {
			t.Errorf("Validate rejected a good plan %+v: %v", good, err)
		}
	}
}

func TestTotalBlackoutDropsEverything(t *testing.T) {
	in := compile(t, &Plan{Seed: 5, DropProb: 1})
	for round := 0; round < 1000; round++ {
		if _, ok := in.DeliverAt(round, 0, 1, 0); ok {
			t.Fatalf("round %d: drop=1 delivered a message", round)
		}
	}
}

func TestActive(t *testing.T) {
	if (&Plan{Seed: 42}).Active() {
		t.Error("seed-only plan reported active")
	}
	for _, p := range []Plan{
		{DropProb: 0.1}, {DropBudget: 1}, {MaxDelay: 1},
		{Crashes: []Crash{{Node: 0, Round: 0}}},
		{LinkFailures: []LinkFailure{{U: 0, V: 1, Round: 0}}},
	} {
		if !p.Active() {
			t.Errorf("plan %+v reported inactive", p)
		}
	}
}

// compile builds an injector over a toy 4-node network with 2 slots per
// test and binds slot 0 to 0->1 and slot 1 to 1->0.
func compile(t *testing.T, plan *Plan) *Injector {
	t.Helper()
	in := &Injector{}
	if err := in.Reset(plan, 4, 2); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	in.BindSlot(0, 0, 1)
	in.BindSlot(1, 1, 0)
	return in
}

func TestDeliverDeterministic(t *testing.T) {
	plan := &Plan{Seed: 9, DropProb: 0.3, MaxDelay: 3}
	a := compile(t, plan)
	b := compile(t, plan)
	for round := 0; round < 200; round++ {
		atA, okA := a.DeliverAt(round, 0, 1, 0)
		atB, okB := b.DeliverAt(round, 0, 1, 0)
		if atA != atB || okA != okB {
			t.Fatalf("round %d: decisions diverged (%d,%v) vs (%d,%v)", round, atA, okA, atB, okB)
		}
	}
}

func TestDeliverSeedChangesDecisions(t *testing.T) {
	a := compile(t, &Plan{Seed: 1, DropProb: 0.5})
	b := compile(t, &Plan{Seed: 2, DropProb: 0.5})
	same := true
	for round := 0; round < 64; round++ {
		_, okA := a.DeliverAt(round, 0, 1, 0)
		_, okB := b.DeliverAt(round, 0, 1, 0)
		if okA != okB {
			same = false
		}
	}
	if same {
		t.Error("different seeds made identical drop decisions over 64 rounds")
	}
}

func TestDropProbabilityStatistics(t *testing.T) {
	in := compile(t, &Plan{Seed: 5, DropProb: 0.25})
	dropped := 0
	const trials = 4000
	for round := 0; round < trials; round++ {
		if _, ok := in.DeliverAt(round, 0, 1, 0); !ok {
			dropped++
		}
	}
	frac := float64(dropped) / trials
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("drop fraction %v far from 0.25", frac)
	}
}

func TestDropBudgetDropsExactlyFirstK(t *testing.T) {
	in := compile(t, &Plan{Seed: 1, DropBudget: 3})
	for round := 0; round < 10; round++ {
		_, ok := in.DeliverAt(round, 0, 1, 0)
		if wantDrop := round < 3; ok == wantDrop {
			t.Errorf("round %d: delivered=%v, want budget to drop exactly the first 3", round, ok)
		}
	}
	// The budget is per link: the reverse direction has its own counter.
	if _, ok := in.DeliverAt(0, 1, 0, 1); ok {
		t.Error("reverse slot's first message was not budget-dropped")
	}
}

func TestDelayBoundedAndFIFO(t *testing.T) {
	in := compile(t, &Plan{Seed: 11, MaxDelay: 4})
	last := -1
	for round := 0; round < 500; round++ {
		at, ok := in.DeliverAt(round, 0, 1, 0)
		if !ok {
			t.Fatalf("round %d: delay-only plan dropped a message", round)
		}
		if at <= round {
			t.Fatalf("round %d: delivery at %d not in the future", round, at)
		}
		if at > round+1+4+1 {
			// One extra round of slack covers the FIFO clamp, which the
			// RingDepth invariant bounds by round+1+MaxDelay.
			t.Fatalf("round %d: delivery at %d beyond the bounded delay", round, at)
		}
		if at <= last {
			t.Fatalf("round %d: delivery at %d overtakes previous at %d", round, at, last)
		}
		last = at
	}
}

func TestDelayRingInvariant(t *testing.T) {
	// The clamp must keep every delivery within round+1+MaxDelay, the
	// invariant RingDepth's sizing relies on.
	in := compile(t, &Plan{Seed: 3, MaxDelay: 2})
	for round := 0; round < 2000; round++ {
		at, ok := in.DeliverAt(round, 0, 1, 0)
		if ok && at > round+1+2 {
			t.Fatalf("round %d: delivery at %d violates the ring invariant", round, at)
		}
	}
	if in.RingDepth() != 4 {
		t.Errorf("RingDepth = %d, want MaxDelay+2 = 4", in.RingDepth())
	}
}

func TestLinkFailure(t *testing.T) {
	in := compile(t, &Plan{LinkFailures: []LinkFailure{{U: 1, V: 0, Round: 5}}})
	for round := 0; round < 10; round++ {
		_, ok := in.DeliverAt(round, 0, 1, 0)
		if want := round < 5; ok != want {
			t.Errorf("round %d: delivered=%v, want %v (link fails at 5)", round, ok, want)
		}
	}
	// Unordered pair: the 1->0 slot fails at the same round.
	if _, ok := in.DeliverAt(7, 1, 0, 1); ok {
		t.Error("reverse direction survived the link failure")
	}
}

func TestCrashRound(t *testing.T) {
	in := &Injector{}
	if err := in.Reset(&Plan{Crashes: []Crash{{Node: 2, Round: 6}, {Node: 2, Round: 3}}}, 4, 0); err != nil {
		t.Fatal(err)
	}
	if got := in.CrashRound(2); got != 3 {
		t.Errorf("CrashRound(2) = %d, want the earliest crash 3", got)
	}
	if got := in.CrashRound(0); got != noCrash {
		t.Errorf("CrashRound(0) = %d, want noCrash", got)
	}
}

func TestNewInjectorRejectsInvalidPlan(t *testing.T) {
	if err := new(Injector).Reset(&Plan{DropProb: 1.5}, 4, 2); err == nil ||
		!strings.Contains(err.Error(), "probability") {
		t.Errorf("Reset accepted an invalid plan (err=%v)", err)
	}
}

// TestResetMatchesFresh pins that an injector recompiled with Reset, after
// runs under other plans, decides every message as a fresh injector does
// (no budget count, FIFO clamp or link failure leaks from the last run),
// and that once its slices have grown a recompile allocates nothing, link
// failures included.
func TestResetMatchesFresh(t *testing.T) {
	const n = 4
	plans := []*Plan{
		{Seed: 1, DropProb: 0.3, MaxDelay: 3, DropBudget: 2,
			Crashes:      []Crash{{Node: 1, Round: 9}},
			LinkFailures: []LinkFailure{{U: 2, V: 3, Round: 9}, {U: 0, V: 1, Round: 5}, {U: 1, V: 0, Round: 3}}},
		{Seed: 2, DropProb: 0.1},
		{Seed: 3, MaxDelay: 2, LinkFailures: []LinkFailure{{U: 1, V: 2, Round: 4}}},
		{Seed: 1, DropProb: 1},
	}
	// bind compiles plan into in over the complete digraph on n nodes,
	// slot from*n+to carrying from -> to.
	bind := func(in *Injector, plan *Plan) {
		if err := in.Reset(plan, n, n*n); err != nil {
			t.Fatal(err)
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				in.BindSlot(int32(from*n+to), from, to)
			}
		}
	}
	reused := &Injector{}
	for _, plan := range append(plans, plans...) {
		fresh := &Injector{}
		bind(fresh, plan)
		bind(reused, plan)
		for v := 0; v < n; v++ {
			if a, b := reused.CrashRound(v), fresh.CrashRound(v); a != b {
				t.Fatalf("plan %v: CrashRound(%d) is %d reused, %d fresh", plan, v, a, b)
			}
		}
		for round := 0; round < 40; round++ {
			for s := 0; s < n*n; s++ {
				atA, okA := reused.DeliverAt(round, s/n, s%n, int32(s))
				atB, okB := fresh.DeliverAt(round, s/n, s%n, int32(s))
				if atA != atB || okA != okB {
					t.Fatalf("plan %v round %d slot %d: reused decides (%d,%v), fresh (%d,%v)", plan, round, s, atA, okA, atB, okB)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { bind(reused, plans[0]) }); allocs != 0 {
		t.Errorf("a warm Reset with link failures allocates %v times, want 0", allocs)
	}
}
