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
// root. The one-word oracle then answers once more, warm, after one arc
// chosen by the input is toggled, so the certificate it carries from the
// first digraph is checked against the second; after a NO it answers again
// with one arc removed (see carriedNo).
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
		var warm HamiltonOracle
		for _, words := range []int{1, 2} {
			o := &warm
			if words > 1 {
				o = new(HamiltonOracle)
			}
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
		if n < 2 {
			return
		}
		u, v := arcAt(pick(arcs, n*(n-1)), n)
		if _, err := d.ToggleArc(u, v, 1); err != nil {
			t.Fatal(err)
		}
		if want, err = BruteDirectedHamiltonianPath(d, start, end); err != nil {
			t.Fatal(err)
		}
		before := warm.effort
		path, got, err := warm.pathFrom(d, start, end, 1)
		if err != nil || got != want {
			t.Fatalf("warm oracle after toggling (%d,%d) (n=%d start=%d end=%d arcs=%v): %v (err %v), brute %v", u, v, n, start, end, d.Arcs(), got, err, want)
		}
		if got && (!IsDirectedHamiltonianPath(d, path) || path[0] != start || (end >= 0 && path[n-1] != end)) {
			t.Fatalf("warm oracle after toggling (%d,%d) returned %v, not a Hamiltonian path with those endpoints", u, v, path)
		}
		if got || d.M() == 0 {
			return
		}
		// Fewer arcs: the NO snapshot dominates.
		a := d.Arcs()[pick(arcs, d.M())]
		if _, err := d.ToggleArc(a.From, a.To, 1); err != nil {
			t.Fatal(err)
		}
		if want, err = BruteDirectedHamiltonianPath(d, start, end); err != nil {
			t.Fatal(err)
		}
		carriedNo(t, &warm.effort, before, want, func() (bool, error) {
			_, got, err := warm.pathFrom(d, start, end, 1)
			return got, err
		})
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
// forced two words, each on a cold oracle and then a warm one, and once
// more on the warm one-word oracle after one edge chosen by the input is
// toggled, so the certificate it carries is checked against the new graph;
// after a NO it answers again with one edge removed (see carriedNo).
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
		var warm SteinerOracle
		for _, words := range []int{1, 2} {
			o := &warm
			if words > 1 {
				o = new(SteinerOracle)
			}
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
		if n < 2 {
			return
		}
		u, v := pairAt(pick(edges, n*(n-1)/2), n)
		if _, err := g.ToggleEdge(u, v, 1); err != nil {
			t.Fatal(err)
		}
		brute, err = BruteSteinerTree(g, terminals)
		want = err == nil && brute <= int64(maxEdges)
		before := warm.effort
		got, err := warm.decide(g, terminals, maxEdges, 1)
		if err != nil || got != want {
			t.Fatalf("warm oracle after toggling {%d,%d} (n=%d terminals=%v maxEdges=%d edges=%v): %v (err %v), brute %d",
				u, v, n, terminals, maxEdges, g.Edges(), got, err, brute)
		}
		if got || g.M() == 0 {
			return
		}
		// Fewer edges under the same budget: the NO snapshot dominates.
		e := g.Edges()[pick(edges, g.M())]
		if _, err := g.ToggleEdge(e.U, e.V, 1); err != nil {
			t.Fatal(err)
		}
		brute, err = BruteSteinerTree(g, terminals)
		carriedNo(t, &warm.effort, before, err == nil && brute <= int64(maxEdges), func() (bool, error) {
			return warm.decide(g, terminals, maxEdges, 1)
		})
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
// warm one, and once more after one ordered pair chosen by the input is
// toggled (an arc of weight 0..2 added, or the arc removed), so the
// certificate the oracle carries is checked against the new digraph; after
// a NO there it answers again with one weight-1 arc made heavier or
// another arc removed (see carriedNo).
func FuzzDirSteinerOracle(f *testing.F) {
	f.Add(uint8(2), uint8(0), []byte{1}, uint8(0), []byte{0b01})
	f.Add(uint8(4), uint8(0), []byte{3, 3, 2}, uint8(3), []byte{0x9e, 0x27, 0xb1})
	f.Add(uint8(6), uint8(2), []byte{0, 5}, uint8(4), []byte{0xff, 0x0f, 0xf0, 0x55, 0xaa, 0x33, 0xcc})
	f.Add(uint8(10), uint8(9), []byte{1, 3, 5, 7}, uint8(7), []byte{0x5a, 0x01, 0x80, 0x24, 0x42, 0x18, 0x81, 0x3c, 0xc3, 0x66, 0x99, 0x0f, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1, 0x23, 0x45})
	// Root 3 reaches terminal 2 over the free arc 3->1 and the carried
	// arc 1->2 (weight 1, the whole budget); the toggle removes 1->2, so
	// the carried arc set no longer holds and the answer turns NO.
	f.Add(uint8(3), uint8(0x97), []byte{0x32}, uint8(0x52), []byte{0x30, 0x9a, 0xde, 0x63})
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
		for call := 0; call < 3; call++ { // later calls run on warm scratch
			if call == 2 {
				if n < 2 {
					return
				}
				h := pick(arcs, 3*n*(n-1))
				u, v := arcAt(h%(n*(n-1)), n)
				w := int64(h / (n * (n - 1)))
				if positive == 22 {
					w = 0
				}
				if _, err := d.ToggleArc(u, v, w); err != nil {
					t.Fatal(err)
				}
				best, err = DirectedSteinerEnum(d, root, terminals)
				if err != nil && err.Error() != "terminals not reachable from root" {
					t.Fatalf("enumeration (n=%d root=%d terminals=%v): %v", n, root, terminals, err)
				}
				want = err == nil && best <= budget
			}
			before := o.effort
			got, err := o.HasDirectedSteinerWithin(d, root, terminals, budget)
			if err != nil {
				t.Fatalf("oracle (n=%d root=%d terminals=%v budget=%d): %v", n, root, terminals, budget, err)
			}
			if got != want {
				t.Fatalf("oracle call %d (n=%d root=%d terminals=%v budget=%d arcs=%v): %v, enumeration %d (reachable %v)",
					call, n, root, terminals, budget, d.Arcs(), got, best, err == nil)
			}
			if call < 2 || got || d.M() == 0 {
				continue
			}
			// A weight-1 arc made heavier, or another arc removed: the NO
			// snapshot dominates.
			a := d.Arcs()[pick(termBytes, d.M())]
			if _, err := d.ToggleArc(a.From, a.To, 0); err != nil {
				t.Fatal(err)
			}
			if a.Weight == 1 {
				d.MustAddWeightedArc(a.From, a.To, 2)
			}
			best, err = DirectedSteinerEnum(d, root, terminals)
			if err != nil && err.Error() != "terminals not reachable from root" {
				t.Fatalf("enumeration (n=%d root=%d terminals=%v): %v", n, root, terminals, err)
			}
			carriedNo(t, &o.effort, before, err == nil && best <= budget, func() (bool, error) {
				return o.HasDirectedSteinerWithin(d, root, terminals, budget)
			})
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
// optimum. HasWeightAtLeast, weighted and unit, must then answer the
// targets optimum+1, optimum and optimum-1 on one oracle each, before and
// after one edge chosen by the input is toggled, so the certificate it
// carries is checked against the new graph, and the target optimum+1 once
// more after one edge is added and one vertex made lighter (see
// carriedNo).
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
		var optimum [2]int64 // under g's weights and under unit weights
		for i, tc := range []struct {
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
			optimum[i] = want
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
		var weighted, unitO MaxISOracle
		cases := []struct {
			o    *MaxISOracle
			ref  *graph.Graph
			unit bool
		}{{&weighted, g, false}, {&unitO, unit, true}}
		var no [2]effort // each oracle's effort before its last NO call
		for step := 0; step < 2; step++ {
			if step == 1 {
				if n < 2 {
					return
				}
				u, v := pairAt(pick(edges, n*(n-1)/2), n)
				if _, err := g.ToggleEdge(u, v, 1); err != nil {
					t.Fatal(err)
				}
				if _, err := unit.ToggleEdge(u, v, 1); err != nil {
					t.Fatal(err)
				}
			}
			for i, tc := range cases {
				want := optimum[i]
				if step == 1 {
					var err error
					if want, err = BruteMaxWeightIndependentSet(tc.ref); err != nil {
						t.Fatal(err)
					}
					optimum[i] = want
				}
				no[i] = tc.o.effort
				for _, target := range []int64{want + 1, want, want - 1} {
					got, err := tc.o.HasWeightAtLeast(g, target, tc.unit)
					if err != nil || got != (want >= target) {
						t.Fatalf("HasWeightAtLeast step %d (n=%d unit=%v target=%d edges=%v): %v (err %v), brute optimum %d",
							step, n, tc.unit, target, g.Edges(), got, err, want)
					}
				}
			}
		}
		// One more edge and a lighter vertex: the NO snapshots of the
		// target optimum+1 dominate.
		if u, v := pairAt(pick(weights, n*(n-1)/2), n); !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
			unit.MustAddEdge(u, v)
		}
		if v := pick(edges, n); g.VertexWeight(v) > 0 {
			if err := g.SetVertexWeight(v, g.VertexWeight(v)-1); err != nil {
				t.Fatal(err)
			}
		}
		for i, tc := range cases {
			want, err := BruteMaxWeightIndependentSet(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			target := optimum[i] + 1
			carriedNo(t, &tc.o.effort, no[i], want >= target, func() (bool, error) {
				return tc.o.HasWeightAtLeast(g, target, tc.unit)
			})
		}
	})
}

// FuzzMDSOracle checks MDSOracle's decisions against
// BruteMinDominatingSetWeight on graphs of at most 14 vertices. The input
// is the vertex count, two bits of weight (0..3) per vertex and an
// adjacency bit matrix over vertex pairs u < v. HasDominatingSetOfWeight
// must answer the caps optimum+1, optimum and optimum-1 under those
// weights, and HasDominatingSetOfSize the same caps around the unit
// optimum, on one oracle each, before and after one edge chosen by the
// input is toggled, so the certificate each carries is checked against
// the new graph, and the cap optimum-1 once more after one edge is removed
// and one vertex made heavier (see carriedNo).
func FuzzMDSOracle(f *testing.F) {
	f.Add(uint8(1), []byte{0x03}, []byte{})
	f.Add(uint8(4), []byte{0x00, 0x00}, []byte{0x21, 0x52}) // zero weights
	f.Add(uint8(6), []byte{0xe4, 0x1b}, []byte{0xff, 0x00, 0x0f})
	f.Add(uint8(13), []byte{0xff, 0x55, 0xaa, 0x0f}, []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1, 0x23, 0x45, 0x67})
	f.Fuzz(func(t *testing.T, nRaw uint8, weights, edges []byte) {
		n := 1 + int(nRaw)%14
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
		var weighted, sized MDSOracle
		cases := []struct {
			o      *MDSOracle
			ref    *graph.Graph
			decide func(limit int64) (bool, error)
		}{
			{&weighted, g, func(limit int64) (bool, error) { return weighted.HasDominatingSetOfWeight(g, limit) }},
			{&sized, unit, func(limit int64) (bool, error) { return sized.HasDominatingSetOfSize(g, int(limit)) }},
		}
		var no [2]effort   // each oracle's effort before its last NO call
		var noCap [2]int64 // and that call's cap
		for step := 0; step < 2; step++ {
			if step == 1 {
				if n < 2 {
					return
				}
				u, v := pairAt(pick(edges, n*(n-1)/2), n)
				if _, err := g.ToggleEdge(u, v, 1); err != nil {
					t.Fatal(err)
				}
				if _, err := unit.ToggleEdge(u, v, 1); err != nil {
					t.Fatal(err)
				}
			}
			for i, tc := range cases {
				want, err := BruteMinDominatingSetWeight(tc.ref)
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int64{want + 1, want, want - 1} {
					no[i], noCap[i] = tc.o.effort, limit
					if got, err := tc.decide(limit); err != nil || got != (want <= limit) {
						t.Fatalf("step %d (n=%d unit=%v cap=%d weights=%v edges=%v): %v (err %v), brute optimum %d",
							step, n, tc.ref == unit, limit, weights, g.Edges(), got, err, want)
					}
				}
			}
		}
		// One edge fewer and a heavier vertex: the NO snapshots of the cap
		// optimum-1 dominate.
		if g.M() > 0 {
			e := g.Edges()[pick(weights, g.M())]
			if _, err := g.ToggleEdge(e.U, e.V, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := unit.ToggleEdge(e.U, e.V, 1); err != nil {
				t.Fatal(err)
			}
		}
		v := pick(edges, n)
		if err := g.SetVertexWeight(v, g.VertexWeight(v)+1); err != nil {
			t.Fatal(err)
		}
		for i, tc := range cases {
			want, err := BruteMinDominatingSetWeight(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			limit := noCap[i]
			carriedNo(t, &tc.o.effort, no[i], want <= limit, func() (bool, error) { return tc.decide(limit) })
		}
	})
}

// FuzzMaxCutOracle checks MaxCutOracle against BruteMaxCut on graphs of at
// most 12 vertices. The input is the vertex count and two bits per vertex
// pair u < v: 0 adds no edge, 1, 2 and 3 an edge of weight 1, 3 and -2,
// so the search also runs without its nonnegative early exit. The oracle
// must answer the targets optimum+1, optimum and optimum-1 on one oracle,
// before and after one pair chosen by the input is toggled (an edge of
// weight 2 added, or the edge removed), so the side vector it carries is
// checked against the new graph. Between the two steps the warm oracle
// runs one MaxCut, whose value must be the brute optimum and whose side
// vector must realize it. Last, the target optimum+1 is decided once more
// after one pair is made lighter; the oracle keeps no NO snapshot, so only
// its answer is checked.
func FuzzMaxCutOracle(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(3), []byte{0b010101})
	f.Add(uint8(6), []byte{0x5a, 0xa5, 0x3c, 0xc3})
	f.Add(uint8(11), []byte{0xff, 0x11, 0x22, 0x44, 0x88, 0x0f, 0xf0, 0x55, 0xaa, 0x33, 0xcc, 0x99, 0x66, 0x12})
	f.Fuzz(func(t *testing.T, nRaw uint8, edges []byte) {
		n := 1 + int(nRaw)%12
		g := graph.New(n)
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				code := 0
				if bit/8 < len(edges) {
					code = int(edges[bit/8]>>(bit%8)) & 3
				}
				bit += 2
				if code > 0 {
					g.MustAddWeightedEdge(u, v, []int64{1, 3, -2}[code-1])
				}
			}
		}
		var o MaxCutOracle
		var target int64
		for step := 0; step < 2; step++ {
			if step == 1 {
				if n < 2 {
					return
				}
				u, v := pairAt(pick(edges, n*(n-1)/2), n)
				if _, err := g.ToggleEdge(u, v, 2); err != nil {
					t.Fatal(err)
				}
			}
			want, err := BruteMaxCut(g)
			if err != nil {
				t.Fatal(err)
			}
			target = want + 1
			for _, target := range []int64{want + 1, want, want - 1} {
				if got, err := o.HasCutOfWeight(g, target); err != nil || got != (want >= target) {
					t.Fatalf("step %d (n=%d target=%d edges=%v): %v (err %v), brute optimum %d", step, n, target, g.Edges(), got, err, want)
				}
			}
			if step == 0 {
				got, side, err := o.MaxCut(g)
				if err != nil || got != want || g.CutWeight(side) != want {
					t.Fatalf("MaxCut (n=%d edges=%v): %d with side %v (err %v), brute optimum %d", n, g.Edges(), got, side, err, want)
				}
			}
		}
		// One pair lighter, an absent one turned into an edge of weight -2:
		// the target optimum+1 stays out of reach.
		u, v := pairAt(pick(edges[min(1, len(edges)):], n*(n-1)/2), n)
		if w, ok := g.EdgeWeight(u, v); ok {
			if err := g.SetEdgeWeight(u, v, w-1); err != nil {
				t.Fatal(err)
			}
		} else if _, err := g.ToggleEdge(u, v, -2); err != nil {
			t.Fatal(err)
		}
		want, err := BruteMaxCut(g)
		if err != nil {
			t.Fatal(err)
		}
		if want >= target {
			t.Fatal("the brute optimum rises after a pair is made lighter")
		}
		if got, err := o.HasCutOfWeight(g, target); err != nil || got {
			t.Fatalf("warm call after one pair is made lighter (n=%d target=%d): %v (err %v), brute optimum %d", n, target, got, err, want)
		}
	})
}

// carriedNo makes one warm call after a NO answer and a toggle in the NO
// carry's direction, so that the instance answered NO dominates the new
// one. The call must answer want, the brute reference's answer, which
// monotonicity makes NO. When the NO answer came through decide since
// before (a search or a NO carry, so the oracle's snapshot dominates the
// instance it answered), the call must be answered by the NO carry,
// without a search.
func carriedNo(t *testing.T, e *effort, before effort, want bool, call func() (bool, error)) {
	t.Helper()
	if want {
		t.Fatal("the brute reference answers YES after a toggle in the NO carry's direction")
	}
	dominated := e.noSearches+e.noCarries > before.noSearches+before.noCarries
	mid := *e
	if got, err := call(); err != nil || got {
		t.Fatalf("warm call after a NO and a toggle in the carry's direction: %v (err %v), brute false", got, err)
	}
	if dominated && (e.searches != mid.searches || e.noCarries != mid.noCarries+1) {
		t.Fatalf("the NO snapshot dominates the instance, yet the call ran %d searches and %d NO carries",
			e.searches-mid.searches, e.noCarries-mid.noCarries)
	}
}

// pick derives an index below n from data (FNV-1a), so a fuzz input
// chooses its own toggle without a further argument and the stored
// corpora keep their signatures.
func pick(data []byte, n int) int {
	h := uint32(2166136261)
	for _, b := range data {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(n))
}

// pairAt returns the p-th vertex pair u < v of an n-vertex graph, in the
// order of the fuzzers' adjacency bit matrices.
func pairAt(p, n int) (int, int) {
	for u := 0; ; u++ {
		if p < n-1-u {
			return u, u + 1 + p
		}
		p -= n - 1 - u
	}
}

// arcAt returns the p-th ordered pair u != v of an n-vertex digraph.
func arcAt(p, n int) (int, int) {
	u, v := p/(n-1), p%(n-1)
	if v >= u {
		v++
	}
	return u, v
}
