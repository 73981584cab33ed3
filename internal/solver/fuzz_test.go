package solver

import (
	"math/bits"
	"testing"

	"congesthard/internal/graph"
)

// FuzzHamiltonOracle checks HamiltonOracle's search against
// BruteDirectedHamiltonianPath on digraphs of at most 16 vertices, at one
// word per vertex set and at a forced two words, each on a cold oracle and
// then a warm one. The input is the vertex count, the start, the end
// (reduced into {-1, 0..n-1}, -1 meaning any endpoint, start == end
// allowed) and an adjacency bit matrix: bit u*n+v of arcs adds the arc
// (u, v). On YES the returned path must be a Hamiltonian path with the
// requested endpoints; after a NO the matching must again saturate the
// root.
func FuzzHamiltonOracle(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(4), []byte{0b00100010, 0b10000100})
	f.Add(uint8(1), uint8(0), uint8(0), []byte{})
	f.Add(uint8(2), uint8(1), uint8(1), []byte{0b0110})
	f.Add(uint8(7), uint8(3), uint8(0), []byte{0xff, 0x0f, 0xf0, 0x55, 0xaa, 0x33, 0xcc})
	f.Add(uint8(14), uint8(13), uint8(7), []byte{0x5a, 0x01, 0x80, 0x24, 0x42, 0x18, 0x81, 0x3c, 0xc3, 0x66, 0x99, 0x0f, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1, 0x23, 0x45, 0x67, 0x89})
	f.Add(uint8(15), uint8(2), uint8(0), []byte{0x96, 0x3c, 0x5a, 0xe1, 0x0f, 0x78, 0xb4, 0x2d, 0xc3, 0x69, 0x1e, 0xa5, 0x87, 0x4b, 0xd2, 0x3c, 0x96, 0x5a, 0xe1, 0x0f, 0x78, 0xb4, 0x2d, 0xc3, 0x69, 0x1e, 0xa5, 0x87, 0x4b, 0xd2, 0x55, 0xaa})
	f.Fuzz(func(t *testing.T, nRaw, startRaw, endRaw uint8, arcs []byte) {
		n := 1 + int(nRaw)%16
		start := int(startRaw) % n
		end := int(endRaw)%(n+1) - 1
		d := graph.NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				bit := u*n + v
				if u != v && bit/8 < len(arcs) && arcs[bit/8]>>(bit%8)&1 == 1 {
					d.MustAddArc(u, v)
				}
			}
		}
		want, err := BruteDirectedHamiltonianPath(d, start, end)
		if err != nil {
			t.Fatalf("brute (n=%d start=%d end=%d): %v", n, start, end, err)
		}
		for _, words := range []int{1, 2} {
			var o HamiltonOracle
			for call := 0; call < 2; call++ { // the second call runs on warm scratch
				path, got, err := o.pathFrom(d, start, end, words)
				if err != nil {
					t.Fatalf("oracle (words=%d n=%d start=%d end=%d): %v", words, n, start, end, err)
				}
				if got != want {
					t.Fatalf("oracle call %d (words=%d n=%d start=%d end=%d arcs=%v): %v, brute %v", call, words, n, start, end, d.Arcs(), got, want)
				}
				if got && (!IsDirectedHamiltonianPath(d, path) || path[0] != start || (end >= 0 && path[n-1] != end)) {
					t.Fatalf("oracle call %d (words=%d n=%d start=%d end=%d) returned %v, not a Hamiltonian path with those endpoints", call, words, n, start, end, path)
				}
				if n < 2 || start == end || got {
					continue // no search ran, or it found a path
				}
				var pred, succ []int16
				if words == 1 {
					pred, succ = o.w1.pred[:], o.w1.succ[:]
				} else {
					pred, succ = o.w2.pred[:], o.w2.succ[:]
				}
				if !matchingRestored(pred, succ, d, start, end) {
					t.Fatalf("oracle call %d (words=%d n=%d start=%d end=%d arcs=%v): after NO the matching pred=%v succ=%v no longer saturates", call, words, n, start, end, d.Arcs(), pred[:n], succ[:n])
				}
			}
		}
	})
}

// matchingRestored reports whether, after the search answered NO, its
// pred/succ entries again match every vertex but start to its own
// in-neighbour other than end: the root's state, which every backtrack
// must restore. It holds vacuously when Hall's condition shows that no
// such matching exists.
func matchingRestored(pred, succ []int16, d *graph.Digraph, start, end int) bool {
	n := d.N()
	var heads []int
	for v := 0; v < n; v++ {
		if v != start {
			heads = append(heads, v)
		}
	}
	tailsOf := make([]uint32, len(heads))
	for i, u := range heads {
		for _, h := range d.InNeighbors(u) {
			if h.To != end {
				tailsOf[i] |= 1 << uint(h.To)
			}
		}
	}
	nbr := make([]uint32, 1<<uint(len(heads)))
	for set := 1; set < len(nbr); set++ {
		nbr[set] = nbr[set&(set-1)] | tailsOf[bits.TrailingZeros(uint(set))]
		if bits.OnesCount32(nbr[set]) < bits.OnesCount(uint(set)) {
			return true
		}
	}
	for _, u := range heads {
		t := int(pred[u])
		if t < 0 || t == end || !d.HasArc(t, u) || int(succ[t]) != u {
			return false
		}
	}
	return true
}

// FuzzSteinerOracle checks SteinerOracle against BruteSteinerTree on
// unit-weight graphs of at most 20 vertices and 16 non-terminals. The
// input is the vertex count, the terminal list (each byte reduced mod n,
// duplicates kept, possibly empty; low non-terminals are appended as
// terminals until at most 16 non-terminals remain), the edge budget
// (reduced into -1..n) and an adjacency bit matrix over vertex pairs
// u < v. The oracle must answer brute <= maxEdges, or false when brute
// finds the terminals unconnected, at one word per vertex set and at a
// forced two words, each on a cold oracle and then a warm one.
func FuzzSteinerOracle(f *testing.F) {
	f.Add(uint8(3), []byte{0, 2, 2}, uint8(3), []byte{0b101})
	f.Add(uint8(3), []byte{0, 0}, uint8(1), []byte{})
	f.Add(uint8(6), []byte{0, 5}, uint8(4), []byte{0xff, 0x0f})
	f.Add(uint8(9), []byte{1, 3, 5, 7}, uint8(6), []byte{0x5a, 0x01, 0x80, 0x24, 0x42})
	f.Add(uint8(20), []byte{0, 3, 6, 9, 12, 15, 18}, uint8(11), []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1, 0x23, 0x45, 0x67, 0x89, 0x0f, 0xf0, 0x3c, 0xc3, 0x66, 0x99, 0x81, 0x18, 0x24})
	f.Fuzz(func(t *testing.T, nRaw uint8, termBytes []byte, maxRaw uint8, edges []byte) {
		n := 1 + int(nRaw)%20
		g := graph.New(n)
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if bit/8 < len(edges) && edges[bit/8]>>(bit%8)&1 == 1 {
					g.MustAddEdge(u, v)
				}
				bit++
			}
		}
		isTerminal := make([]bool, n)
		terminals := []int{}
		for _, b := range termBytes {
			v := int(b) % n
			terminals = append(terminals, v)
			isTerminal[v] = true
		}
		others := 0
		for _, term := range isTerminal {
			if !term {
				others++
			}
		}
		for v := 0; others > 16; v++ {
			if !isTerminal[v] {
				terminals = append(terminals, v)
				isTerminal[v] = true
				others--
			}
		}
		maxEdges := int(maxRaw)%(n+2) - 1
		brute, err := BruteSteinerTree(g, terminals)
		want := err == nil && brute <= int64(maxEdges)
		for _, words := range []int{1, 2} {
			var o SteinerOracle
			for call := 0; call < 2; call++ { // the second call runs on warm scratch
				got, err := o.decide(g, terminals, maxEdges, words)
				if err != nil {
					t.Fatalf("oracle (words=%d n=%d terminals=%v maxEdges=%d): %v", words, n, terminals, maxEdges, err)
				}
				if got != want {
					t.Fatalf("oracle call %d (words=%d n=%d terminals=%v maxEdges=%d edges=%v): %v, brute %d (err %v)",
						call, words, n, terminals, maxEdges, g.Edges(), got, brute, err)
				}
			}
		}
	})
}

// FuzzDirSteinerOracle checks DirSteinerOracle against DirectedSteinerEnum
// on digraphs of at most 10 vertices with arc weights 0..2 and at most 22
// positive arcs. The input is the vertex count, the root, the terminal
// list (each byte reduced mod n, duplicates kept), the budget (reduced
// into -1..6) and two bits per ordered pair u != v of arcs: 0 adds no
// arc, 1, 2 and 3 an arc of weight 0, 1 and 2. Positive arcs past the
// 22nd are dropped. The oracle must answer enumeration <= budget, or
// false when the terminals are unreachable, on a cold oracle and then a
// warm one.
func FuzzDirSteinerOracle(f *testing.F) {
	f.Add(uint8(2), uint8(0), []byte{1}, uint8(0), []byte{0b01})
	f.Add(uint8(4), uint8(0), []byte{3, 3, 2}, uint8(3), []byte{0x9e, 0x27, 0xb1})
	f.Add(uint8(6), uint8(2), []byte{0, 5}, uint8(4), []byte{0xff, 0x0f, 0xf0, 0x55, 0xaa, 0x33, 0xcc})
	f.Add(uint8(10), uint8(9), []byte{1, 3, 5, 7}, uint8(7), []byte{0x5a, 0x01, 0x80, 0x24, 0x42, 0x18, 0x81, 0x3c, 0xc3, 0x66, 0x99, 0x0f, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1, 0x23, 0x45})
	f.Fuzz(func(t *testing.T, nRaw, rootRaw uint8, termBytes []byte, budgetRaw uint8, arcs []byte) {
		n := 1 + int(nRaw)%10
		root := int(rootRaw) % n
		d := graph.NewDigraph(n)
		bit, positive := 0, 0
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				code := 0
				if bit/8 < len(arcs) {
					code = int(arcs[bit/8]>>(bit%8)) & 3
				}
				bit += 2
				if code == 0 || (code > 1 && positive == 22) {
					continue
				}
				if code > 1 {
					positive++
				}
				d.MustAddWeightedArc(u, v, int64(code-1))
			}
		}
		terminals := []int{}
		for _, b := range termBytes {
			terminals = append(terminals, int(b)%n)
		}
		budget := int64(budgetRaw%8) - 1
		best, err := DirectedSteinerEnum(d, root, terminals)
		if err != nil && err.Error() != "terminals not reachable from root" {
			t.Fatalf("enumeration (n=%d root=%d terminals=%v): %v", n, root, terminals, err)
		}
		want := err == nil && best <= budget
		var o DirSteinerOracle
		for call := 0; call < 2; call++ { // the second call runs on warm scratch
			got, err := o.HasDirectedSteinerWithin(d, root, terminals, budget)
			if err != nil {
				t.Fatalf("oracle (n=%d root=%d terminals=%v budget=%d): %v", n, root, terminals, budget, err)
			}
			if got != want {
				t.Fatalf("oracle call %d (n=%d root=%d terminals=%v budget=%d arcs=%v): %v, enumeration %d (reachable %v)",
					call, n, root, terminals, budget, d.Arcs(), got, best, err == nil)
			}
		}
	})
}

// FuzzMaxISOracle checks MaxISOracle against BruteMaxWeightIndependentSet
// on graphs of at most 16 vertices. The input is the vertex count, two
// bits of weight (0..3) per vertex, and an adjacency bit matrix over
// vertex pairs u < v, so sparse inputs form the path and cycle components
// that the search hands to solvePathsAndCycles. MaxWeightIndependentSet
// must match the brute optimum under those weights and
// MaxIndependentSetSize the brute optimum under unit weights, each on a
// cold oracle and then a warm one; every returned set must be an
// independent set of distinct vertices whose weight is the reported
// optimum.
func FuzzMaxISOracle(f *testing.F) {
	f.Add(uint8(1), []byte{0x03}, []byte{})
	f.Add(uint8(5), []byte{0xe4, 0x0b}, []byte{0x21, 0x52}) // the path 0-1-2-3-4-5
	f.Add(uint8(4), []byte{0x39, 0x02}, []byte{0x99, 0x02}) // the cycle 0-1-2-3-4
	// A triangle 0-1-2 with the path 3-4-5-6 hanging off 0, the cycle
	// 7-8-9-10 and the isolated vertex 11.
	f.Add(uint8(11), []byte{0x1b, 0x6c, 0xc3}, []byte{0x07, 0x08, 0x00, 0x40, 0x40, 0x20, 0x00, 0x95, 0x00})
	f.Add(uint8(16), []byte{0xff, 0x55, 0xaa, 0x0f}, []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1, 0x23, 0x45, 0x67, 0x89, 0x0f, 0xf0, 0x3c})
	f.Fuzz(func(t *testing.T, nRaw uint8, weights, edges []byte) {
		n := 1 + int(nRaw)%16
		g, unit := graph.New(n), graph.New(n)
		for v := 0; v < n; v++ {
			w := 0
			if v/4 < len(weights) {
				w = int(weights[v/4]>>(2*(v%4))) & 3
			}
			if err := g.SetVertexWeight(v, int64(w)); err != nil {
				t.Fatal(err)
			}
		}
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if bit/8 < len(edges) && edges[bit/8]>>(bit%8)&1 == 1 {
					g.MustAddEdge(u, v)
					unit.MustAddEdge(u, v)
				}
				bit++
			}
		}
		for _, tc := range []struct {
			name  string
			ref   *graph.Graph // carries the weights the optimum is taken under
			solve func(*MaxISOracle) (int64, []int, error)
		}{
			{"MaxWeightIndependentSet", g, func(o *MaxISOracle) (int64, []int, error) { return o.MaxWeightIndependentSet(g) }},
			{"MaxIndependentSetSize", unit, func(o *MaxISOracle) (int64, []int, error) {
				size, set, err := o.MaxIndependentSetSize(g)
				return int64(size), set, err
			}},
		} {
			want, err := BruteMaxWeightIndependentSet(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			var o MaxISOracle
			for call := 0; call < 2; call++ { // the second call runs on warm scratch
				got, set, err := tc.solve(&o)
				if err != nil {
					t.Fatalf("%s (n=%d): %v", tc.name, n, err)
				}
				if got != want {
					t.Fatalf("%s call %d (n=%d weights=%v edges=%v): %d, brute %d", tc.name, call, n, weights, g.Edges(), got, want)
				}
				seen := make([]bool, n)
				var weight int64
				for _, v := range set {
					if v < 0 || v >= n || seen[v] {
						t.Fatalf("%s call %d (n=%d): set %v repeats or leaves the graph", tc.name, call, n, set)
					}
					seen[v] = true
					weight += tc.ref.VertexWeight(v)
				}
				if !IsIndependentSet(g, set) || weight != got {
					t.Fatalf("%s call %d (n=%d edges=%v): set %v (independent %v) weighs %d, reported %d",
						tc.name, call, n, g.Edges(), set, IsIndependentSet(g, set), weight, got)
				}
			}
		}
	})
}
