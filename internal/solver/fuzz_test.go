package solver

import (
	"testing"

	"congesthard/internal/graph"
)

// FuzzHamiltonOracle checks HamiltonOracle's decision API — the
// single-word bitset search for 2 <= n <= 64 — against the general
// backtracking search on digraphs of at most 14 vertices. The input is
// the vertex count, the start, the end (reduced into {-1, 0..n-1}, -1
// meaning any endpoint) and an adjacency bit matrix: bit u*n+v of arcs
// adds the arc (u, v). Any path the general search finds must be a
// Hamiltonian path with the requested endpoints.
func FuzzHamiltonOracle(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(4), []byte{0b00100010, 0b10000100})
	f.Add(uint8(1), uint8(0), uint8(0), []byte{})
	f.Add(uint8(2), uint8(1), uint8(1), []byte{0b0110})
	f.Add(uint8(7), uint8(3), uint8(0), []byte{0xff, 0x0f, 0xf0, 0x55, 0xaa, 0x33, 0xcc})
	f.Add(uint8(14), uint8(13), uint8(7), []byte{0x5a, 0x01, 0x80, 0x24, 0x42, 0x18, 0x81, 0x3c, 0xc3, 0x66, 0x99, 0x0f, 0xf0, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf1, 0x23, 0x45, 0x67, 0x89})
	f.Fuzz(func(t *testing.T, nRaw, startRaw, endRaw uint8, arcs []byte) {
		n := 1 + int(nRaw)%14
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
		path, want, err := DirectedHamiltonianPathFrom(d, start, end)
		if err != nil {
			t.Fatalf("general search (n=%d start=%d end=%d): %v", n, start, end, err)
		}
		if want && (!IsDirectedHamiltonianPath(d, path) || path[0] != start || (end >= 0 && path[n-1] != end)) {
			t.Fatalf("general search (n=%d start=%d end=%d) returned %v, not a Hamiltonian path with those endpoints", n, start, end, path)
		}
		var o HamiltonOracle
		for call := 0; call < 2; call++ { // the second call runs on warm scratch
			got, err := o.HasDirectedHamiltonianPathFrom(d, start, end)
			if err != nil {
				t.Fatalf("oracle (n=%d start=%d end=%d): %v", n, start, end, err)
			}
			if got != want {
				t.Fatalf("oracle call %d (n=%d start=%d end=%d arcs=%v): %v, general search %v", call, n, start, end, d.Arcs(), got, want)
			}
		}
	})
}

// FuzzSteinerOracle checks SteinerOracle against BruteSteinerTree on
// unit-weight graphs of at most 20 vertices and 16 non-terminals. The
// input is the vertex count, the terminal list (each byte reduced mod n,
// duplicates kept; low non-terminals are appended as terminals until at
// most 16 non-terminals remain), the edge budget (reduced into -1..n) and
// an adjacency bit matrix over vertex pairs u < v. The oracle must answer
// brute <= maxEdges, or false when brute finds the terminals unconnected,
// on both its single-word and its bitset search, each on a cold oracle and
// then a warm one.
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
		if len(terminals) == 0 {
			terminals = append(terminals, 0)
			isTerminal[0] = true
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
		for _, wide := range []bool{false, true} {
			var o SteinerOracle
			for call := 0; call < 2; call++ { // the second call runs on warm scratch
				got, err := o.decide(g, terminals, maxEdges, wide)
				if err != nil {
					t.Fatalf("oracle (n=%d terminals=%v maxEdges=%d wide=%v): %v", n, terminals, maxEdges, wide, err)
				}
				if got != want {
					t.Fatalf("oracle call %d (wide=%v n=%d terminals=%v maxEdges=%d edges=%v): %v, brute %d (err %v)",
						call, wide, n, terminals, maxEdges, g.Edges(), got, brute, err)
				}
			}
		}
	})
}
