package comm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// ones counts the one bits of b.
func ones(b Bits) int {
	n := 0
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) {
			n++
		}
	}
	return n
}

func TestBitsBasics(t *testing.T) {
	b := NewBits(70)
	if b.Len() != 70 {
		t.Fatalf("Len = %d", b.Len())
	}
	if !b.Equal(NewBits(70)) {
		t.Fatal("fresh bits not zero")
	}
	b.Set(0, true)
	b.Set(69, true)
	if !b.Get(0) || !b.Get(69) || b.Get(1) {
		t.Error("Set/Get wrong across word boundary")
	}
	if got := ones(b); got != 2 {
		t.Errorf("%d ones, want 2", got)
	}
	b.Set(0, false)
	if b.Get(0) {
		t.Error("clear failed")
	}
}

func TestBitsFromUint64(t *testing.T) {
	b, err := BitsFromUint64(4, 0b1011)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != "1101" { // LSB first
		t.Errorf("String = %q, want 1101", b.String())
	}
	if _, err := BitsFromUint64(65, 0); err == nil {
		t.Error("n=65 accepted")
	}
	// Out-of-range high bits are masked off.
	b2, _ := BitsFromUint64(2, 0xFF)
	if got := ones(b2); got != 2 {
		t.Errorf("mask failed: %d ones", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	b := NewBits(10)
	c := b.Clone()
	c.Set(3, true)
	if b.Get(3) {
		t.Error("clone shares storage")
	}
}

func TestCopyToIndependent(t *testing.T) {
	// Two 130-bit strings copied into one three-word-per-copy slab: each
	// copy equals its source, shares nothing with it, and stays within its
	// own words.
	a, b := NewBits(130), OnesBits(130)
	a.Set(129, true)
	slab := make([]uint64, 6)
	ca, cb := a.CopyTo(slab[:3]), b.CopyTo(slab[3:])
	if !ca.Equal(a) || !cb.Equal(b) {
		t.Fatalf("copies %s, %s differ from their sources", ca, cb)
	}
	ca.Set(0, true)
	if a.Get(0) {
		t.Error("a copy shares storage with its source")
	}
	if len(ca.w) != 3 || cap(ca.w) != 3 || !cb.Equal(b) {
		t.Error("a copy reaches into the next copy's words")
	}
}

func TestIntersectsAndFirstCommonOne(t *testing.T) {
	x := NewBits(130)
	y := NewBits(130)
	if x.Intersects(y) {
		t.Error("empty strings intersect")
	}
	x.Set(128, true)
	y.Set(128, true)
	if !x.Intersects(y) {
		t.Error("intersection at high index missed")
	}
	if got := x.FirstCommonOne(y); got != 128 {
		t.Errorf("FirstCommonOne = %d, want 128", got)
	}
	y.Set(128, false)
	if got := x.FirstCommonOne(y); got != -1 {
		t.Errorf("FirstCommonOne = %d, want -1", got)
	}
}

func TestFirstDifference(t *testing.T) {
	x := NewBits(100)
	y := NewBits(100)
	if x.FirstDifference(y) != -1 {
		t.Error("equal strings differ")
	}
	y.Set(77, true)
	if got := x.FirstDifference(y); got != 77 {
		t.Errorf("FirstDifference = %d, want 77", got)
	}
}

func TestAllBits(t *testing.T) {
	count := 0
	if err := AllBits(4, func(Bits) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 16 {
		t.Errorf("enumerated %d strings, want 16", count)
	}
	if err := AllBits(30, func(Bits) {}); err == nil {
		t.Error("huge enumeration accepted")
	}
}

func TestPairIndex(t *testing.T) {
	k := 4
	seen := map[int]bool{}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			idx := PairIndex(i, j, k)
			if idx < 0 || idx >= k*k || seen[idx] {
				t.Fatalf("PairIndex(%d,%d) = %d invalid or duplicate", i, j, idx)
			}
			seen[idx] = true
		}
	}
}

func TestQuickRandomBitsLengthAndTail(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rng.Int31n(200))
		b := RandomBits(n, rng)
		if b.Len() != n {
			return false
		}
		// No bits set beyond position n-1 (tail must be clear).
		c := b.Clone()
		for i := 0; i < n; i++ {
			c.Set(i, false)
		}
		return c.Equal(NewBits(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectsSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := RandomBits(90, rng)
		y := RandomBits(90, rng)
		return x.Intersects(y) == y.Intersects(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForEachDiff(t *testing.T) {
	a, _ := BitsFromUint64(10, 0b1010110010)
	b, _ := BitsFromUint64(10, 0b0010010110)
	var got []int
	a.ForEachDiff(b, func(i int) bool {
		got = append(got, i)
		return true
	})
	want := []int{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("diff indices %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff indices %v, want %v", got, want)
		}
	}
	// Early stop after the first index.
	count := 0
	a.ForEachDiff(b, func(i int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop made %d calls", count)
	}
	// Equal strings yield no calls; long strings exercise multiple words.
	long := NewBits(130)
	long2 := long.Clone()
	long2.Set(129, true)
	long2.Set(0, true)
	var idx []int
	long.ForEachDiff(long2, func(i int) bool {
		idx = append(idx, i)
		return true
	})
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 129 {
		t.Fatalf("multi-word diff %v", idx)
	}
}

func TestOnesBits(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		b := OnesBits(n)
		if b.Len() != n {
			t.Fatalf("OnesBits(%d).Len() = %d", n, b.Len())
		}
		for i := 0; i < n; i++ {
			if !b.Get(i) {
				t.Fatalf("OnesBits(%d) bit %d is 0", n, i)
			}
		}
		// The tail beyond n must stay clear so Equal/String behave.
		manual := NewBits(n)
		for i := 0; i < n; i++ {
			manual.Set(i, true)
		}
		if !b.Equal(manual) {
			t.Fatalf("OnesBits(%d) != manually set ones", n)
		}
	}
}
