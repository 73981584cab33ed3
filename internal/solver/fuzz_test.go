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
