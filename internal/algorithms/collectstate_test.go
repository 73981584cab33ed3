package algorithms

import (
	"math"
	"math/rand"
	"testing"
)

func TestKeySetMatchesMap(t *testing.T) {
	// Both representations answer add like a map. Dense sets draw keys
	// over their whole universe [0, 2^keyBits): its extremes, small ids
	// and ids at or beyond n^2 = 36 (garbled frames). The hashed set adds
	// the extremes of the int64 range too, well past its reservation, so
	// it grows.
	rng := rand.New(rand.NewSource(3))
	const n = 6
	for _, tc := range []struct {
		name    string
		keyBits int
		dense   bool
		slots   int
	}{
		{"dense/1", 1, true, 1},
		{"dense/6", 6, true, 1},
		{"dense/12", 12, true, 64},
		{"hashed/12", 12, false, keySetSlots(8)},
	} {
		var s keySet
		s.reset(make([]uint64, tc.slots), tc.dense)
		universe := int64(1) << tc.keyBits
		keys := []int64{0, universe - 1, n*n - 1, n * n, universe - 1}
		for i := 0; i < 400; i++ {
			keys = append(keys, rng.Int63n(min(universe, n*n)), rng.Int63n(universe))
		}
		if !tc.dense {
			keys = append(keys, math.MaxInt64, math.MaxInt64-1, 1<<40, math.MaxInt64)
		}
		want := map[int64]bool{}
		for _, k := range keys {
			if got := s.add(k); got != !want[k] {
				t.Fatalf("%s: add(%d) = %v with %v already present", tc.name, k, got, want[k])
			}
			want[k] = true
		}
		if tc.dense {
			if s.shift != 0 || len(s.slots) != tc.slots {
				t.Errorf("%s: a dense set changed representation or size", tc.name)
			}
			continue
		}
		if s.count != len(want) || 2*s.count > len(s.slots) || len(s.slots) == tc.slots {
			t.Errorf("%s: set holds %d keys in %d slots, want %d keys at most half full after growing", tc.name, s.count, len(s.slots), len(want))
		}
	}
}

func TestLearnMatchesMap(t *testing.T) {
	// learn keeps each key's first record, in arrival order, like a map:
	// on a dense slab (branch-free while the spare record lasts, then the
	// set and append once garbled keys beyond n^2 fill the reservation)
	// and on a hashed one. A dense set keeps every key beyond its
	// universe, as keySet.add reports them absent. A store that outgrows
	// its reservation moves, leaving its neighbor's share alone.
	rng := rand.New(rand.NewSource(5))
	const n, records = 6, 8
	for _, keyBits := range []int{7, 40} {
		ws := new(Workspace)
		load(ws, &ws.collectNodes, n, records, keyBits, 0, 0, func(int) int { return 2 })
		dense := ws.slab.dense
		if dense != (keyBits == 7) {
			t.Fatalf("keyBits %d: dense = %v", keyBits, dense)
		}
		store, _, _ := ws.slab.state(1, 2)
		neighbor, _, _ := ws.slab.state(2, 2)
		neighbor.learn(3, 30)
		universe := int64(1) << keyBits
		var keys []int64
		for i := 0; i < 300; i++ {
			keys = append(keys, rng.Int63n(records))
			if i%20 == 0 {
				keys = append(keys, n*n+rng.Int63n(min(universe, 1<<10)-n*n))
			}
		}
		keys = append(keys, universe-1, universe-1)
		if dense {
			keys = append(keys, universe, universe+64, universe)
		}
		var want []collectRecord
		seen := map[int64]bool{}
		for i, k := range keys {
			store.learn(k, int64(i))
			if !seen[k] || dense && k >= universe {
				want = append(want, collectRecord{key: k, w: int64(i)})
			}
			seen[k] = true
			if len(store.records) != len(want) || store.records[len(want)-1] != want[len(want)-1] {
				t.Fatalf("keyBits %d: after learning %d (arrival %d) the store holds %d records ending in %v, want %d ending in %v",
					keyBits, k, i, len(store.records), store.records[len(store.records)-1], len(want), want[len(want)-1])
			}
		}
		if len(want) <= records+1 {
			t.Fatalf("keyBits %d: %d records never outgrew the reservation", keyBits, len(want))
		}
		for i := range want {
			if store.records[i] != want[i] {
				t.Fatalf("keyBits %d: record %d is %v, want %v", keyBits, i, store.records[i], want[i])
			}
		}
		if len(neighbor.records) != 1 || neighbor.records[0] != (collectRecord{key: 3, w: 30}) {
			t.Errorf("keyBits %d: vertex 1's records ran into vertex 2's share: %v", keyBits, neighbor.records)
		}
	}
}

func TestKeySetWordsRule(t *testing.T) {
	// The bitset is chosen exactly when it is no larger than the hashed
	// set's reservation, so a vertex never holds more key words than
	// keySetSlots(records).
	for _, tc := range []struct {
		records, keyBits int
		words            int
		dense            bool
	}{
		{records: 1, keyBits: 1, words: 1, dense: true},
		{records: 32, keyBits: 12, words: 64, dense: true},  // 2^12 bits = 64 slots
		{records: 32, keyBits: 13, words: 64, dense: false}, // 128 words > 64 slots
		{records: 39, keyBits: 12, words: 64, dense: true},  // a 40-vertex path at its default bandwidth
		{records: 39, keyBits: 24, words: 128, dense: false},
		{records: 5, keyBits: 62, words: 16, dense: false},
	} {
		words, dense := keySetWords(tc.records, tc.keyBits)
		if words != tc.words || dense != tc.dense {
			t.Errorf("keySetWords(%d, %d) = %d, %v, want %d, %v", tc.records, tc.keyBits, words, dense, tc.words, tc.dense)
		}
	}
	for records := 0; records <= 300; records++ {
		for keyBits := 1; keyBits <= 62; keyBits++ {
			words, dense := keySetWords(records, keyBits)
			if slots := keySetSlots(records); words > slots || dense != (words == (1<<keyBits+63)/64) {
				t.Fatalf("keySetWords(%d, %d) = %d, %v against %d hashed slots", records, keyBits, words, dense, slots)
			}
		}
	}
}

func TestCollectSlabOutsideReservation(t *testing.T) {
	// A vertex with more links than its reservation, or an id beyond the
	// slab, gets fresh memory instead of a neighbor's share — also on a
	// workspace whose buffers are larger than the slab from an earlier,
	// bigger instance. Its key set has the slab's representation and
	// works: under a dense slab (a 3-bit key universe) and a hashed one.
	for _, keyBits := range []int{3, 40} {
		ws := new(Workspace)
		load(ws, &ws.collectNodes, 8, 5, keyBits, 0, 0, func(int) int { return 4 })
		load(ws, &ws.collectNodes, 3, 2, keyBits, 0, 0, func(int) int { return 1 })
		s := &ws.slab
		if s.dense != (keyBits == 3) {
			t.Fatalf("keyBits %d: dense = %v", keyBits, s.dense)
		}
		outside, links, outbox := s.state(0, 3)
		if len(links) != 3 || cap(outbox) != 3 {
			t.Fatalf("state(0, 3) gave %d links and outbox capacity %d, want 3 and 3", len(links), cap(outbox))
		}
		all := s.links[:cap(s.links)]
		for i := range all {
			if &all[i] == &links[0] {
				t.Error("an oversized vertex got workspace links")
			}
		}
		beyond, _, _ := s.state(3, 1)
		for _, store := range []recordStore{outside, beyond} {
			if (store.keys.shift == 0) != s.dense || len(store.keys.slots) != s.setWords {
				t.Errorf("keyBits %d: an out-of-reservation key set is not the slab's", keyBits)
			}
			store.learn(7, 1)
			store.learn(0, 1)
			store.learn(7, 1)
			if len(store.records) != 2 {
				t.Errorf("keyBits %d: an out-of-reservation store kept %d records, want 2", keyBits, len(store.records))
			}
		}
		if slabNode(ws.collectNodes, 3) == slabNode(ws.collectNodes, 2) {
			t.Error("an id beyond the slab shares a node")
		}
		store, _, _ := s.state(1, 1)
		store.learn(5, 1)
		other, _, _ := s.state(2, 1)
		if len(other.records) != 0 || !other.keys.add(5) {
			t.Error("vertex 2's record store sees vertex 1's record")
		}
	}
}

func TestCollectSlabReusesWorkspace(t *testing.T) {
	// A smaller instance carves the buffers of a larger one without
	// reallocating, and a vertex's carved share comes back cleared.
	ws := new(Workspace)
	load(ws, &ws.collectNodes, 6, 4, 8, 0, 0, func(int) int { return 3 })
	store, links, _ := ws.slab.state(1, 3)
	store.learn(7, 2)
	links[0].sendRec = 9
	slabNode(ws.collectNodes, 1).budget = 11
	recs, keys := &ws.slab.recs[0], &ws.slab.keys[0]
	load(ws, &ws.collectNodes, 4, 3, 8, 0, 0, func(int) int { return 2 })
	if &ws.slab.recs[0] != recs || &ws.slab.keys[0] != keys {
		t.Error("a smaller instance reallocated the workspace")
	}
	store, links, _ = ws.slab.state(1, 2)
	if len(store.records) != 0 || !store.keys.add(7) || links[0] != (linkState{}) || slabNode(ws.collectNodes, 1).budget != 0 {
		t.Error("a reused share was not cleared")
	}
}
