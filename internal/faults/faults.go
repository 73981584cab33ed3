// Package faults defines deterministic, seeded fault plans for the CONGEST
// simulators: per-link message drop (probabilistic or an adversarial
// per-link budget), bounded FIFO delivery delay, crash-stop nodes and
// permanent link failures. A Plan is pure data; both simulators opt in
// through their Options.Faults hook and compile it into an Injector that
// decides the fate of every accepted message.
//
// Determinism is the design center: every probabilistic decision is a
// splitmix64 hash of (plan seed, send round, sender, receiver), so it is
// independent of iteration order and identical between a full run and its
// transcript-replay run on the same graph. The adversarial pieces (drop
// budgets, FIFO delay clamps) are per-link counters driven only by that
// link's message sequence, which the replay reproduces exactly. The same
// graph + plan therefore replays bit-identically, and the Theorem 1.1
// transcript-replay check (reduction.VerifySimulation) keeps holding under
// faults.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// MaxDelayLimit bounds Plan.MaxDelay: the simulators size their delayed
// delivery rings as slots*(MaxDelay+2), so the cap keeps a misconfigured
// plan from allocating unboundedly.
const MaxDelayLimit = 1 << 10

// Crash stops one node: its Round is never called from round Round on (a
// crash at round 0 never participates). Messages already addressed to it
// are lost silently, like messages to any terminated node.
type Crash struct {
	Node  int
	Round int
}

// LinkFailure permanently severs the link between U and V from round
// Round on: messages sent in rounds >= Round are lost in both directions.
// The pair is unordered; in the directed simulator antiparallel arcs
// collapse to the same link and fail together.
type LinkFailure struct {
	U, V  int
	Round int
}

// Plan is a deterministic fault scenario. The zero value injects nothing;
// fields compose freely. Plans are pure data — compile one into a
// per-run Injector with (*Injector).Reset.
type Plan struct {
	// Seed drives every probabilistic decision (drops, delays).
	Seed int64
	// DropProb drops each message independently with this probability,
	// decided by a hash of (Seed, round, from, to). Must be in the closed
	// interval [0, 1]: DropProb == 1 is the total-blackout adversary that
	// loses every message, a legitimate plan for testing that retry
	// budgets exhaust gracefully instead of hanging.
	DropProb float64
	// DropBudget is the adversarial variant: the first DropBudget
	// messages on every directed link are dropped (0 disables).
	DropBudget int
	// MaxDelay delays each message by a hashed extra 0..MaxDelay rounds,
	// FIFO per link: a message never overtakes an earlier one on the same
	// directed link (0 disables).
	MaxDelay int
	// Crashes lists crash-stop nodes.
	Crashes []Crash
	// LinkFailures lists permanently failing links.
	LinkFailures []LinkFailure
}

// Validate checks the plan against an n-vertex network.
func (p *Plan) Validate(n int) error {
	if p.DropProb < 0 || p.DropProb > 1 || math.IsNaN(p.DropProb) {
		return fmt.Errorf("drop probability %v out of [0,1]", p.DropProb)
	}
	if p.DropBudget < 0 {
		return fmt.Errorf("negative drop budget %d", p.DropBudget)
	}
	if p.MaxDelay < 0 || p.MaxDelay > MaxDelayLimit {
		return fmt.Errorf("max delay %d out of [0,%d]", p.MaxDelay, MaxDelayLimit)
	}
	for _, c := range p.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("crash node %d out of range [0,%d)", c.Node, n)
		}
		if c.Round < 0 {
			return fmt.Errorf("crash round %d negative for node %d", c.Round, c.Node)
		}
	}
	for _, l := range p.LinkFailures {
		if l.U < 0 || l.U >= n || l.V < 0 || l.V >= n {
			return fmt.Errorf("link failure {%d,%d} out of range [0,%d)", l.U, l.V, n)
		}
		if l.U == l.V {
			return fmt.Errorf("link failure endpoints coincide at %d", l.U)
		}
		if l.Round < 0 {
			return fmt.Errorf("link failure round %d negative for {%d,%d}", l.Round, l.U, l.V)
		}
	}
	return nil
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	return p.DropProb > 0 || p.DropBudget > 0 || p.MaxDelay > 0 ||
		len(p.Crashes) > 0 || len(p.LinkFailures) > 0
}

// Parse decodes the CLI fault-plan syntax: comma-separated key=value
// items, e.g. "drop=0.01,seed=7,budget=2,delay=1,crash=4@10,fail=1-2@5".
// Keys: seed (int), drop (probability), budget (per-link drop count),
// delay (max extra rounds), crash=NODE@ROUND and fail=U-V@ROUND (both
// repeatable). Parse validates ranges that do not depend on the network
// size; Validate covers the rest.
func Parse(s string) (*Plan, error) {
	p := &Plan{}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("fault plan item %q is not key=value", item)
		}
		switch key {
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan seed %q: %v", val, err)
			}
			p.Seed = v
		case "drop":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan drop %q: %v", val, err)
			}
			if v < 0 || v > 1 || math.IsNaN(v) {
				return nil, fmt.Errorf("fault plan drop probability %v out of [0,1]", v)
			}
			p.DropProb = v
		case "budget":
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("fault plan budget %q must be a non-negative integer", val)
			}
			p.DropBudget = v
		case "delay":
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 || v > MaxDelayLimit {
				return nil, fmt.Errorf("fault plan delay %q must be an integer in [0,%d]", val, MaxDelayLimit)
			}
			p.MaxDelay = v
		case "crash":
			node, round, err := parseAtRound(val)
			if err != nil {
				return nil, fmt.Errorf("fault plan crash %q: want NODE@ROUND: %v", val, err)
			}
			p.Crashes = append(p.Crashes, Crash{Node: node, Round: round})
		case "fail":
			link, round, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault plan fail %q: want U-V@ROUND", val)
			}
			us, vs, ok := strings.Cut(link, "-")
			if !ok {
				return nil, fmt.Errorf("fault plan fail %q: want U-V@ROUND", val)
			}
			u, err1 := strconv.Atoi(us)
			v, err2 := strconv.Atoi(vs)
			r, err3 := strconv.Atoi(round)
			if err1 != nil || err2 != nil || err3 != nil || u < 0 || v < 0 || r < 0 {
				return nil, fmt.Errorf("fault plan fail %q: want non-negative U-V@ROUND", val)
			}
			p.LinkFailures = append(p.LinkFailures, LinkFailure{U: u, V: v, Round: r})
		default:
			return nil, fmt.Errorf("unknown fault plan key %q (want seed, drop, budget, delay, crash, fail)", key)
		}
	}
	return p, nil
}

// parseAtRound splits "N@R" into two non-negative integers.
func parseAtRound(s string) (int, int, error) {
	ns, rs, ok := strings.Cut(s, "@")
	if !ok {
		return 0, 0, fmt.Errorf("missing @")
	}
	n, err := strconv.Atoi(ns)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("bad id %q", ns)
	}
	r, err := strconv.Atoi(rs)
	if err != nil || r < 0 {
		return 0, 0, fmt.Errorf("bad round %q", rs)
	}
	return n, r, nil
}

// String renders the plan in the canonical Parse syntax (Parse(p.String())
// round-trips).
func (p *Plan) String() string {
	var parts []string
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	if p.DropProb > 0 {
		parts = append(parts, "drop="+strconv.FormatFloat(p.DropProb, 'g', -1, 64))
	}
	if p.DropBudget > 0 {
		parts = append(parts, fmt.Sprintf("budget=%d", p.DropBudget))
	}
	if p.MaxDelay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%d", p.MaxDelay))
	}
	crashes := append([]Crash(nil), p.Crashes...)
	sort.Slice(crashes, func(i, j int) bool {
		return crashes[i].Node < crashes[j].Node ||
			(crashes[i].Node == crashes[j].Node && crashes[i].Round < crashes[j].Round)
	})
	for _, c := range crashes {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", c.Node, c.Round))
	}
	fails := append([]LinkFailure(nil), p.LinkFailures...)
	sort.Slice(fails, func(i, j int) bool {
		a, b := fails[i], fails[j]
		if a.U != b.U {
			return a.U < b.U
		}
		if a.V != b.V {
			return a.V < b.V
		}
		return a.Round < b.Round
	})
	for _, l := range fails {
		parts = append(parts, fmt.Sprintf("fail=%d-%d@%d", l.U, l.V, l.Round))
	}
	return strings.Join(parts, ",")
}

// noCrash marks a node that never crashes.
const noCrash = int32(math.MaxInt32)

// noFail marks a link that never fails.
const noFail = int32(math.MaxInt32)

// Injector is a Plan compiled for one simulation run: per-slot state for
// budget drops, FIFO delay clamps and link failures, plus the hashed
// decision streams. It is single-goroutine, allocation-free after
// Reset/BindSlot, and must not be shared between concurrent runs. Reset
// recompiles an injector in place for the next run, reusing its slices,
// so a simulator that keeps one per arena allocates nothing per run once
// the slices have grown to the network's size. The zero value is ready
// for Reset.
type Injector struct {
	seed          uint64
	dropThreshold uint64 // 0 disables probabilistic drops
	dropAll       bool   // DropProb == 1: the total blackout
	dropBudget    int32
	maxDelay      int

	crashAt []int32    // per node: first non-executed round
	failAt  []linkFail // link failures by unordered key, ascending, one per key

	slotFailAt []int32 // per directed slot, bound by BindSlot
	slotUsed   []int32 // per directed slot: budget-dropped messages so far
	slotLast   []int32 // per directed slot: latest scheduled delivery round
}

// linkFail is the first failing round of one unordered link.
type linkFail struct {
	key uint64
	at  int32
}

// Reset validates plan against an n-vertex network and compiles it into
// in for a run with the given number of directed message slots,
// overwriting whatever run in was compiled for before. The caller must
// BindSlot every slot before the first DeliverAt.
func (in *Injector) Reset(plan *Plan, n, slots int) error {
	if err := plan.Validate(n); err != nil {
		return err
	}
	in.seed = splitmix64(uint64(plan.Seed) ^ 0xf4157a8e5eed)
	in.dropThreshold, in.dropAll = 0, false
	in.dropBudget = int32(plan.DropBudget)
	in.maxDelay = plan.MaxDelay
	if plan.DropProb >= 1 {
		// The coin comparison is strict, so even a MaxUint64 threshold
		// would leak one message in 2^64; total blackout is exact instead.
		in.dropAll = true
	} else if plan.DropProb > 0 {
		in.dropThreshold = uint64(plan.DropProb * float64(math.MaxUint64))
	}
	in.crashAt = resize(in.crashAt, n)
	for v := range in.crashAt {
		in.crashAt[v] = noCrash
	}
	for _, c := range plan.Crashes {
		if int32(c.Round) < in.crashAt[c.Node] {
			in.crashAt[c.Node] = int32(c.Round)
		}
	}
	in.failAt = in.failAt[:0]
	for _, l := range plan.LinkFailures {
		in.failAt = append(in.failAt, linkFail{key: linkKey(n, l.U, l.V), at: int32(l.Round)})
	}
	// Sort by key, earliest round first, and keep the first of each key.
	slices.SortFunc(in.failAt, func(a, b linkFail) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	in.failAt = slices.CompactFunc(in.failAt, func(a, b linkFail) bool { return a.key == b.key })
	in.slotFailAt = resize(in.slotFailAt, slots)
	for s := range in.slotFailAt {
		in.slotFailAt[s] = noFail
	}
	in.slotUsed = resize(in.slotUsed, slots)
	clear(in.slotUsed)
	in.slotLast = resize(in.slotLast, slots)
	clear(in.slotLast)
	return nil
}

// resize returns buf with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// linkKey is the unordered pair key for link failures.
func linkKey(n, u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)*uint64(n) + uint64(v)
}

// BindSlot associates one directed message slot with its (from, to)
// endpoints, resolving which link-failure round (if any) applies to it.
// Simulators call it once per slot during setup.
func (in *Injector) BindSlot(slot int32, from, to int) {
	if len(in.failAt) == 0 {
		return
	}
	k := linkKey(len(in.crashAt), from, to)
	if i, ok := slices.BinarySearchFunc(in.failAt, k, func(f linkFail, k uint64) int { return cmp.Compare(f.key, k) }); ok {
		in.slotFailAt[slot] = in.failAt[i].at
	}
}

// Memoryless reports whether every decision depends only on (plan, round,
// from, to): with no drop budget and no delay, no per-link counter
// carries a message's fate over to a later round (the FIFO clamp never
// moves an undelayed message). A simulator may then leave out the
// decisions of rounds whose sends it does not need, as congest's steady
// jump does.
func (in *Injector) Memoryless() bool { return in.dropBudget == 0 && in.maxDelay == 0 }

// CrashRound returns the first round node v does not execute (a very
// large value for nodes that never crash — compare with int32(round)).
func (in *Injector) CrashRound(v int) int32 { return in.crashAt[v] }

// RingDepth is the number of per-slot delivery cells a simulator needs:
// the FIFO clamp keeps every scheduled delivery within (round,
// round+1+MaxDelay], a window of MaxDelay+1 rounds, so MaxDelay+2 cells
// indexed by round modulo RingDepth never collide.
func (in *Injector) RingDepth() int { return in.maxDelay + 2 }

// DeliverAt decides the fate of one message accepted at send time: the
// round it is delivered in and true, or (0, false) when the network loses
// it. Decisions are deterministic in (plan, round, from, to) plus the
// slot's own message history, so identical runs replay identically.
// Allocation-free.
func (in *Injector) DeliverAt(round, from, to int, slot int32) (int, bool) {
	if in.dropAll || in.slotFailAt[slot] <= int32(round) {
		return 0, false
	}
	if in.slotUsed[slot] < in.dropBudget {
		in.slotUsed[slot]++
		return 0, false
	}
	if in.dropThreshold > 0 && in.coin(round, from, to, 0) < in.dropThreshold {
		return 0, false
	}
	at := round + 1
	if in.maxDelay > 0 {
		at += int(in.coin(round, from, to, 1) % uint64(in.maxDelay+1))
	}
	// FIFO clamp: never overtake the previous message on this link. By
	// induction the clamp stays within round+1+maxDelay (one message per
	// slot per round), which RingDepth relies on.
	if last := in.slotLast[slot]; int32(at) <= last {
		at = int(last) + 1
	}
	in.slotLast[slot] = int32(at)
	return at, true
}

// coin is the order-independent decision hash: a splitmix64 chain over
// (seed, round, from, to, stream).
func (in *Injector) coin(round, from, to int, stream uint64) uint64 {
	h := splitmix64(in.seed ^ uint64(round))
	h = splitmix64(h ^ uint64(from))
	h = splitmix64(h ^ uint64(to))
	return splitmix64(h ^ stream)
}

// splitmix64 is the standard finalizing bit mixer.
func splitmix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
