package algorithms

import (
	"math/bits"
	"sort"
)

// This file holds the node state shared by the three collect programs
// (collect, collect-retry and the directed collect): the record store and
// its open-addressing dedup set, union-find root election, and the slab a
// factory carves every node's state from.

// collectRecord is one collected edge or arc: its id key u*n + v (from*n +
// to for an arc) and its weight.
type collectRecord struct {
	key int64
	w   int64
}

// recordStore is the records one vertex knows, in the order it learned
// them, deduplicated by key.
type recordStore struct {
	n       int
	records []collectRecord
	keys    keySet
}

// learn records the key unless it is already known.
func (s *recordStore) learn(k, w int64) {
	if s.keys.add(k) {
		s.records = append(s.records, collectRecord{key: k, w: w})
	}
}

// decode splits a key into its endpoints. Garbled frames can deliver keys
// whose endpoints are out of range; callers check.
func (s *recordStore) decode(k int64) (u, v int) {
	return int(k / int64(s.n)), int(k % int64(s.n))
}

// joinsSmallerID reports whether the records, read as undirected edges,
// connect vertex id to a smaller id. Records the collected graph could not
// hold — an endpoint out of range, or a self-loop — are skipped. parent is
// union-find scratch of length n. Every set is represented by its minimum
// member, so id joins a smaller id exactly when its representative is
// below it; the scan stops as soon as that holds, which for most vertices
// is at one of their own incident records, seeded first.
func (s *recordStore) joinsSmallerID(id int, parent []int32) bool {
	for i := range parent {
		parent[i] = int32(i)
	}
	me := int32(id)
	for _, rec := range s.records {
		u, v := s.decode(rec.key)
		if u < 0 || u >= s.n || v < 0 || u == v {
			continue
		}
		ru, rv := find(parent, int32(u)), find(parent, int32(v))
		if ru == rv {
			continue
		}
		if ru > rv {
			ru, rv = rv, ru
		}
		parent[rv] = ru
		if find(parent, me) < me {
			return true
		}
	}
	return false
}

// find returns x's set representative, halving the path on the way.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// keySet is a set of record keys with open addressing and linear probing.
// A slot holds key+1, so a zero slot is empty and a cleared slice is an
// empty set. It depends only on the keys added: no lookup in the instance.
type keySet struct {
	slots []uint64
	count int
	shift uint // 64 - log2(len(slots)); the hash keeps the top bits
}

// keySetSlots returns the slot count for a vertex that can learn at most
// records keys: 2*records rounded up to a power of two, so the set stays
// at most half full and grows only when garbled frames deliver more.
func keySetSlots(records int) int {
	return 1 << bits.Len(uint(2*max(records, 1)-1))
}

// reset empties the set into slots, whose length must be a power of two.
func (s *keySet) reset(slots []uint64) {
	clear(slots)
	s.slots, s.count = slots, 0
	s.shift = uint(64 - bits.TrailingZeros(uint(len(slots))))
}

// add inserts k and reports whether it was absent.
func (s *keySet) add(k int64) bool {
	tag := uint64(k) + 1
	mask := uint64(len(s.slots) - 1)
	for i := tag * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case tag:
			return false
		case 0:
			if 2*(s.count+1) > len(s.slots) {
				s.grow()
				return s.add(k)
			}
			s.slots[i] = tag
			s.count++
			return true
		}
	}
}

// grow doubles the table and reinserts every key.
func (s *keySet) grow() {
	old := s.slots
	s.reset(make([]uint64, 2*len(old)))
	for _, tag := range old {
		if tag != 0 {
			s.add(int64(tag - 1))
		}
	}
}

// linkState is one vertex's state for one neighbor link: the send cursor
// (which record, which chunk of its frame) and the receive reassembly
// registers (pending key, accumulated weight, chunks so far; rcvChunk = 0
// means no frame in flight). The three sequence bits are collect-retry's
// alternating-bit protocol state.
type linkState struct {
	sendRec   int
	sendChunk int
	rcvKey    int64
	rcvW      int64
	rcvChunk  int

	curSeq, expSeq, lastAcc byte
}

// linkIndex returns the position of from in the sorted neighbor list
// nbrs, or -1. hint is the position after the previous lookup: the
// simulators deliver an inbox in neighbor order, so it usually hits.
func linkIndex(nbrs []int, from, hint int) int {
	if hint < len(nbrs) && nbrs[hint] == from {
		return hint
	}
	if i := sort.SearchInts(nbrs, from); i < len(nbrs) && nbrs[i] == from {
		return i
	}
	return -1
}

// collectSlab is the node state of one collect factory, allocated once
// when the factory is built and carved per vertex each time the simulator
// creates that vertex's node, so a run allocates nothing per node. N is
// the node type and M the simulator's message type.
//
// Carving clears the vertex's share, so a factory can drive several Runs
// one after another; it must not drive concurrent Runs, since their nodes
// would share the slab (the same rule as congest.Arena).
type collectSlab[N, M any] struct {
	n        int
	records  int   // records reserved per vertex: the kept-record count T
	setSlots int   // key-set slots per vertex
	linkOff  []int // vertex v owns links and outbox [linkOff[v], linkOff[v+1])

	nodes  []N
	links  []linkState
	outbox []M
	recs   []collectRecord
	keys   []uint64
	// parent is the union-find scratch of root election. The simulators
	// run one node at a time, so the run's nodes share it.
	parent []int32
}

// newCollectSlab sizes the slab for n vertices, each of which can learn at
// most records records and has at most links(v) neighbor links.
func newCollectSlab[N, M any](n, records int, links func(v int) int) *collectSlab[N, M] {
	s := &collectSlab[N, M]{
		n:        n,
		records:  records,
		setSlots: keySetSlots(records),
		linkOff:  make([]int, n+1),
	}
	for v := 0; v < n; v++ {
		s.linkOff[v+1] = s.linkOff[v] + links(v)
	}
	s.nodes = make([]N, n)
	s.links = make([]linkState, s.linkOff[n])
	s.outbox = make([]M, s.linkOff[n])
	s.recs = make([]collectRecord, n*records)
	s.keys = make([]uint64, n*s.setSlots)
	s.parent = make([]int32, n)
	return s
}

// node returns vertex id's node, zeroed. A vertex outside the
// reservation — a factory driven on a graph other than its own — gets a
// fresh node, and state gives it fresh memory too.
func (s *collectSlab[N, M]) node(id int) *N {
	if id < 0 || id >= s.n {
		return new(N)
	}
	var zero N
	s.nodes[id] = zero
	return &s.nodes[id]
}

// state returns vertex id's empty record store and its cleared state for
// deg neighbor links, with an empty outbox of capacity deg.
func (s *collectSlab[N, M]) state(id, deg int) (recordStore, []linkState, []M) {
	store := recordStore{n: s.n}
	if id < 0 || id >= s.n || deg > s.linkOff[id+1]-s.linkOff[id] {
		store.records = make([]collectRecord, 0, s.records)
		store.keys.reset(make([]uint64, s.setSlots))
		return store, make([]linkState, deg), make([]M, 0, deg)
	}
	r, k, l := id*s.records, id*s.setSlots, s.linkOff[id]
	store.records = s.recs[r : r : r+s.records]
	store.keys.reset(s.keys[k : k+s.setSlots])
	links := s.links[l : l+deg]
	clear(links)
	return store, links, s.outbox[l : l : l+deg]
}
