package code

import (
	"testing"
	"testing/quick"
)

func TestNewField(t *testing.T) {
	for _, q := range []int64{2, 3, 5, 7, 101} {
		if _, err := NewField(q); err != nil {
			t.Errorf("prime %d rejected: %v", q, err)
		}
	}
	for _, q := range []int64{0, 1, 4, 9, 100} {
		if _, err := NewField(q); err == nil {
			t.Errorf("non-prime %d accepted", q)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := map[int64]int64{0: 2, 2: 2, 4: 5, 8: 11, 14: 17, 24: 29}
	for in, want := range cases {
		if got := NextPrime(in); got != want {
			t.Errorf("NextPrime(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFieldArithmetic(t *testing.T) {
	f, _ := NewField(7)
	if f.Add(5, 4) != 2 {
		t.Error("add wrong")
	}
	if f.Mul(3, 5) != 1 {
		t.Error("mul wrong")
	}
	if f.Add(-3, 10) != 0 {
		t.Error("negative operand not reduced")
	}
}

func TestQuickFieldAxioms(t *testing.T) {
	f, _ := NewField(101)
	check := func(a, b, c int64) bool {
		// Distributivity and commutativity.
		lhs := f.Mul(a, f.Add(b, c))
		rhs := f.Add(f.Mul(a, b), f.Mul(a, c))
		if lhs != rhs {
			return false
		}
		return f.Add(a, b) == f.Add(b, a) && f.Mul(a, b) == f.Mul(b, a)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReedSolomonParams(t *testing.T) {
	f, _ := NewField(7)
	rs, err := NewReedSolomon(f, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Distance() != 5 {
		t.Errorf("distance = %d, want 5", rs.Distance())
	}
	if _, err := NewReedSolomon(f, 8, 2); err == nil {
		t.Error("N > q accepted")
	}
	if _, err := NewReedSolomon(f, 6, 7); err == nil {
		t.Error("Kappa > N accepted")
	}
}

func TestEncodeKnown(t *testing.T) {
	f, _ := NewField(5)
	rs, _ := NewReedSolomon(f, 4, 2)
	// m(X) = 1 + 2X evaluated at 0,1,2,3 -> 1, 3, 0, 2 (mod 5).
	cw, err := rs.Encode([]int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 0, 2}
	for i := range want {
		if cw[i] != want[i] {
			t.Errorf("cw[%d] = %d, want %d", i, cw[i], want[i])
		}
	}
	if _, err := rs.Encode([]int64{1}); err == nil {
		t.Error("short message accepted")
	}
}

// The MDS property: any two distinct messages yield codewords at distance
// at least N - Kappa + 1.
func TestDistanceExhaustive(t *testing.T) {
	f, _ := NewField(7)
	rs, _ := NewReedSolomon(f, 6, 2)
	var codewords [][]int64
	for a := int64(0); a < 7; a++ {
		for b := int64(0); b < 7; b++ {
			cw, err := rs.Encode([]int64{a, b})
			if err != nil {
				t.Fatal(err)
			}
			codewords = append(codewords, cw)
		}
	}
	for i := range codewords {
		for j := i + 1; j < len(codewords); j++ {
			d := 0
			for p := range codewords[i] {
				if codewords[i][p] != codewords[j][p] {
					d++
				}
			}
			if d < rs.Distance() {
				t.Fatalf("codewords %d,%d at distance %d < %d", i, j, d, rs.Distance())
			}
		}
	}
}

func TestEncodeIndexInjective(t *testing.T) {
	f, _ := NewField(5)
	rs, _ := NewReedSolomon(f, 4, 2)
	seen := map[string]bool{}
	for idx := int64(0); idx < 25; idx++ {
		cw, err := rs.EncodeIndex(idx)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, c := range cw {
			key += string(rune('0' + c))
		}
		if seen[key] {
			t.Fatalf("collision at index %d", idx)
		}
		seen[key] = true
	}
	if _, err := rs.EncodeIndex(25); err == nil {
		t.Error("index beyond q^Kappa accepted")
	}
	if _, err := rs.EncodeIndex(-1); err == nil {
		t.Error("negative index accepted")
	}
}
