package algorithms

import (
	"math/bits"

	"congesthard/internal/congest"
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
)

// This file holds the node state shared by the three collect programs
// (collect, collect-retry and the directed collect): the record store and
// its dedup set, union-find root election, and the workspace a factory
// carves every node's state from.

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

// elect runs root election over the records, read as undirected edges.
// Records the collected graph could not hold — an endpoint out of range,
// or a self-loop — are skipped. parent is union-find scratch of length n.
// Every set is represented by its minimum member, so id joins a smaller id
// exactly when its representative is below it; the scan stops as soon as
// that holds (joined), which for most vertices is at one of their own
// incident records, seeded first. A scan that runs to the end reports
// whether the records join all n vertices (spanning), which only vertex 0
// can see: any other spanning id would have been joined to 0.
func (s *recordStore) elect(id int, parent []int32) (joined, spanning bool) {
	for i := range parent {
		parent[i] = int32(i)
	}
	me := int32(id)
	merges := 0
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
		merges++
		if find(parent, me) < me {
			return true, false
		}
	}
	return false, merges == s.n-1
}

// find returns x's set representative, halving the path on the way.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// keySet is a set of record keys in one of two representations, fixed
// when it is reset:
//
//   - dense: a bitset over the whole key universe [0, 2^keyBits), one bit
//     per key. Every payload a simulator delivers is below 2^B, and a key
//     is a payload (or, for collect-retry, a payload shifted past its
//     header), so every key a frame carries has its bit, garbled frames'
//     keys beyond n^2 included. shift == 0 marks this representation.
//   - hashed: open addressing with linear probing. A slot holds key+1, so
//     a zero slot is empty and a cleared slice is an empty set.
//
// Either depends only on the keys added: no lookup in the instance.
type keySet struct {
	slots []uint64
	count int  // keys in a hashed set
	shift uint // hashed: 64 - log2(len(slots)); the hash keeps the top bits
}

// keySetSlots returns the slot count of a hashed set for a vertex that
// can learn at most records keys: 2*records rounded up to a power of
// two, so the set stays at most half full and grows only when garbled
// frames deliver more.
func keySetSlots(records int) int {
	return 1 << bits.Len(uint(2*max(records, 1)-1))
}

// keySetWords returns the words of one vertex's key set and whether it
// is dense, for a vertex that can learn at most records keys from frames
// whose keys are below 2^keyBits (keyBits <= 62). The set is dense
// whenever the bitset is no larger than the hashed set's reservation, so
// a vertex never holds more key memory than keySetSlots(records) words.
func keySetWords(records, keyBits int) (words int, dense bool) {
	words = (1<<keyBits + 63) / 64
	if slots := keySetSlots(records); words > slots {
		return slots, false
	}
	return words, true
}

// reset empties the set into slots: a bitset if dense, otherwise a hash
// table, whose length must then be a power of two.
func (s *keySet) reset(slots []uint64, dense bool) {
	clear(slots)
	s.slots, s.count, s.shift = slots, 0, 0
	if !dense {
		s.shift = uint(64 - bits.TrailingZeros(uint(len(slots))))
	}
}

// add inserts k and reports whether it was absent. A dense set reports a
// key beyond its universe absent every time: no frame carries one, and a
// vertex seeds only distinct records of its own.
func (s *keySet) add(k int64) bool {
	if s.shift != 0 {
		return s.addHashed(k)
	}
	i := uint64(k) >> 6
	if i >= uint64(len(s.slots)) {
		return true
	}
	bit := uint64(1) << (uint64(k) & 63)
	if s.slots[i]&bit != 0 {
		return false
	}
	s.slots[i] |= bit
	return true
}

// addHashed is add on a hashed set.
func (s *keySet) addHashed(k int64) bool {
	tag := uint64(k) + 1
	mask := uint64(len(s.slots) - 1)
	for i := tag * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case tag:
			return false
		case 0:
			if 2*(s.count+1) > len(s.slots) {
				s.grow()
				return s.addHashed(k)
			}
			s.slots[i] = tag
			s.count++
			return true
		}
	}
}

// grow doubles a hashed set's table and reinserts every key.
func (s *keySet) grow() {
	old := s.slots
	s.reset(make([]uint64, 2*len(old)), false)
	for _, tag := range old {
		if tag != 0 {
			s.addHashed(int64(tag - 1))
		}
	}
}

// linkState is one vertex's state for one neighbor link: collect-retry's
// send cursor (which record, which chunk of its frame; the gossip relay
// keeps one cursor per node), the receive reassembly registers (pending
// key, accumulated weight, chunks so far; rcvChunk = 0 means no frame in
// flight) and collect-retry's alternating-bit protocol state (the three
// sequence bits).
type linkState struct {
	sendRec   int
	sendChunk int
	rcvKey    int64
	rcvW      int64
	rcvChunk  int

	curSeq, expSeq, lastAcc byte
}

// Workspace is reusable memory for the collect programs: the slab a
// factory carves every node's state from (nodes, neighbor links, outboxes,
// records, key sets and the union-find scratch of root election), the
// live factory's parameters, and the graphs and digraphs the roots
// rebuild their collection and their component into. Hand one to
// CollectSpec.Workspace or DiCollectSpec.Workspace and a factory built on
// a warm workspace allocates nothing: the factory is a function bound to
// the workspace once per program, which reads the parameters of the last
// factory built, and the roots rebuild without allocating. The buffers
// grow to fit the largest instance seen and are never shrunk; the zero
// value is ready to use.
//
// A workspace backs one live factory at a time: building a factory on it
// hands the memory and the parameters to that factory, so an earlier
// factory built on the same workspace must no longer run, and the two
// must never run concurrently (the same rule as congest.Arena). Results
// stay valid: a root's output is an immutable box, never workspace
// memory. Nor may an Eval keep the graph it is passed, which belongs to
// the workspace (see CollectSpec.Eval).
type Workspace struct {
	slab collectSlab

	// The node buffers are typed per program.
	collectNodes []collectNode
	retryNodes   []collectRetryNode
	diNodes      []diCollectNode

	// The live factory's parameters: its spec (the undirected programs'),
	// its Eval (the directed program's), the bits per chunk (the
	// bandwidth, or collect-retry's data bits), the round budget and the
	// weight chunks per frame.
	spec    CollectSpec
	diEval  func(collected *graph.Digraph) (int64, error)
	chunk   int
	budget  int
	wchunks int

	// The factories, each bound to the workspace on first use.
	collect, retry congest.Factory
	directed       dicongest.Factory

	// The roots rebuild their records into graph or digraph, and a
	// component root then rebuilds its component into component or
	// subdigraph, its vertices renumbered by rank.
	graph      graph.Graph
	digraph    graph.Digraph
	component  graph.Graph
	subdigraph graph.Digraph
	rank       []int32
}

// orNewWorkspace returns ws, or a fresh workspace if ws is nil.
func orNewWorkspace(ws *Workspace) *Workspace {
	if ws == nil {
		return new(Workspace)
	}
	return ws
}

// load hands ws to a factory for an n-vertex instance, each of whose
// vertices can learn at most records records, from frames of chunk-bit
// chunks (every key a frame carries is below 2^chunk) with wchunks
// weight chunks each, run for budget rounds, and has at most links(v)
// neighbor links. nodes is ws's buffer of the program's node type.
func load[N any](ws *Workspace, nodes *[]N, n, records, chunk, wchunks, budget int, links func(v int) int) {
	ws.slab.carve(n, records, chunk, links)
	fit(nodes, n)
	ws.chunk, ws.wchunks, ws.budget = chunk, wchunks, budget
}

// fit returns *buf resized to length n, reallocating only when its
// capacity is short; the contents are left as they were.
func fit[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// collectSlab is the node state of an n-vertex instance, carved per
// vertex each time the simulator creates that vertex's node.
//
// Carving clears the vertex's share, so a factory can drive several Runs
// one after another; it must not drive concurrent Runs, since their nodes
// would share the slab (the same rule as congest.Arena).
type collectSlab struct {
	n        int   // the instance's vertex count
	records  int   // records reserved per vertex: the kept-record count T
	setWords int   // key-set words per vertex (see keySetWords)
	dense    bool  // whether the key sets are bitsets
	linkOff  []int // vertex v owns links and outbox [linkOff[v], linkOff[v+1])

	links  []linkState
	outbox []congest.Message
	recs   []collectRecord
	keys   []uint64
	// parent is the union-find scratch of root election. The simulators
	// run one node at a time, so the run's nodes share it.
	parent []int32
}

// carve resizes the slab in place for n vertices, each of which can learn
// at most records records, from frames whose keys are below 2^keyBits,
// and has at most links(v) neighbor links.
func (s *collectSlab) carve(n, records, keyBits int, links func(v int) int) {
	s.n, s.records = n, records
	s.setWords, s.dense = keySetWords(records, keyBits)
	fit(&s.linkOff, n+1)
	s.linkOff[0] = 0
	for v := 0; v < n; v++ {
		s.linkOff[v+1] = s.linkOff[v] + links(v)
	}
	fit(&s.links, s.linkOff[n])
	fit(&s.outbox, s.linkOff[n])
	fit(&s.recs, n*records)
	fit(&s.keys, n*s.setWords)
	fit(&s.parent, n)
}

// slabNode returns vertex id's node from a node buffer carved for the
// slab's instance, zeroed. A vertex outside the reservation — a factory
// driven on a graph other than its own — gets a fresh node, and state
// gives it fresh memory too.
func slabNode[N any](nodes []N, id int) *N {
	if id < 0 || id >= len(nodes) {
		return new(N)
	}
	var zero N
	nodes[id] = zero
	return &nodes[id]
}

// state returns vertex id's empty record store and its cleared state for
// deg neighbor links, with an empty outbox of capacity deg.
func (s *collectSlab) state(id, deg int) (recordStore, []linkState, []congest.Message) {
	n := s.n
	store := recordStore{n: n}
	if id < 0 || id >= n || deg > s.linkOff[id+1]-s.linkOff[id] {
		store.records = make([]collectRecord, 0, s.records)
		store.keys.reset(make([]uint64, s.setWords), s.dense)
		return store, make([]linkState, deg), make([]congest.Message, 0, deg)
	}
	r, k, l := id*s.records, id*s.setWords, s.linkOff[id]
	store.records = s.recs[r : r : r+s.records]
	store.keys.reset(s.keys[k:k+s.setWords], s.dense)
	links := s.links[l : l+deg]
	clear(links)
	return store, links, s.outbox[l : l : l+deg]
}
