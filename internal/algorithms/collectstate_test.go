package algorithms

import (
	"math"
	"math/rand"
	"testing"
)

func TestKeySetMatchesMap(t *testing.T) {
	// Small ids, ids far beyond n^2 (garbled frames) and the extremes of
	// the key range, added well past the reserved size so the set grows.
	rng := rand.New(rand.NewSource(3))
	var s keySet
	s.reset(make([]uint64, keySetSlots(8)))
	want := map[int64]bool{}
	keys := []int64{0, 1, math.MaxInt64, math.MaxInt64 - 1, 1 << 40}
	for i := 0; i < 400; i++ {
		keys = append(keys, rng.Int63n(300), rng.Int63())
	}
	for _, k := range keys {
		if got := s.add(k); got != !want[k] {
			t.Fatalf("add(%d) = %v with %v already present", k, got, want[k])
		}
		want[k] = true
	}
	if s.count != len(want) || 2*s.count > len(s.slots) {
		t.Errorf("set holds %d keys in %d slots, want %d keys at most half full", s.count, len(s.slots), len(want))
	}
}

func TestCollectSlabOutsideReservation(t *testing.T) {
	// A vertex with more links than its reservation, or an id beyond the
	// slab, gets fresh memory instead of a neighbor's share — also on a
	// workspace whose buffers are larger than the slab from an earlier,
	// bigger instance.
	ws := new(Workspace)
	newCollectSlab(ws, &ws.collectNodes, &ws.outbox, 8, 5, func(int) int { return 4 })
	s := newCollectSlab(ws, &ws.collectNodes, &ws.outbox, 3, 2, func(int) int { return 1 })
	_, links, outbox := s.state(0, 3)
	if len(links) != 3 || cap(outbox) != 3 {
		t.Fatalf("state(0, 3) gave %d links and outbox capacity %d, want 3 and 3", len(links), cap(outbox))
	}
	all := ws.links[:cap(ws.links)]
	for i := range all {
		if &all[i] == &links[0] {
			t.Error("an oversized vertex got workspace links")
		}
	}
	if s.node(3) == s.node(2) {
		t.Error("an id beyond the slab shares a node")
	}
	store, _, _ := s.state(1, 1)
	store.learn(5, 1)
	other, _, _ := s.state(2, 1)
	if len(other.records) != 0 || !other.keys.add(5) {
		t.Error("vertex 2's record store sees vertex 1's record")
	}
}

func TestCollectSlabReusesWorkspace(t *testing.T) {
	// A smaller instance carves the buffers of a larger one without
	// reallocating, and a vertex's carved share comes back cleared.
	ws := new(Workspace)
	big := newCollectSlab(ws, &ws.collectNodes, &ws.outbox, 6, 4, func(int) int { return 3 })
	store, links, _ := big.state(1, 3)
	store.learn(7, 2)
	links[0].sendRec = 9
	big.node(1).budget = 11
	recs, keys := &ws.recs[0], &ws.keys[0]
	small := newCollectSlab(ws, &ws.collectNodes, &ws.outbox, 4, 3, func(int) int { return 2 })
	if &ws.recs[0] != recs || &ws.keys[0] != keys {
		t.Error("a smaller instance reallocated the workspace")
	}
	store, links, _ = small.state(1, 2)
	if len(store.records) != 0 || !store.keys.add(7) || links[0] != (linkState{}) || small.node(1).budget != 0 {
		t.Error("a reused share was not cleared")
	}
}
