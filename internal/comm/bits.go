// Package comm implements the two-party communication complexity substrate
// of the paper (Section 1.3 and Section 5.2): fixed-length bit strings,
// Boolean functions on input pairs (set disjointness, equality and their
// negations), the nondeterministic witness protocols for ¬DISJ and ¬EQ
// with exact bit accounting, and the known-complexity table used to
// compute the framework-limitation quantity Γ(f).
package comm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// Bits is an immutable-length bit string x ∈ {0,1}^K backed by uint64 words.
// The zero value is the empty string.
type Bits struct {
	n int
	w []uint64
}

// NewBits returns the all-zero bit string of length n.
func NewBits(n int) Bits {
	if n < 0 {
		n = 0
	}
	return Bits{n: n, w: make([]uint64, (n+63)/64)}
}

// BitsFromUint64 returns a length-n bit string whose i-th bit is bit i of v.
// n must be at most 64.
func BitsFromUint64(n int, v uint64) (Bits, error) {
	if n > 64 {
		return Bits{}, fmt.Errorf("BitsFromUint64 supports n <= 64, got %d", n)
	}
	b := NewBits(n)
	if n > 0 {
		mask := ^uint64(0)
		if n < 64 {
			mask = (uint64(1) << uint(n)) - 1
		}
		b.w[0] = v & mask
	}
	return b, nil
}

// OnesBits returns the all-ones bit string of length n — the "corner"
// input the family verifiers spot-check alongside the all-zeros NewBits.
func OnesBits(n int) Bits {
	b := NewBits(n)
	for i := range b.w {
		b.w[i] = ^uint64(0)
	}
	b.clearTail()
	return b
}

// RandomBits returns a uniformly random length-n bit string drawn from rng.
func RandomBits(n int, rng *rand.Rand) Bits {
	b := NewBits(n)
	for i := range b.w {
		b.w[i] = rng.Uint64()
	}
	b.clearTail()
	return b
}

func (b *Bits) clearTail() {
	if b.n%64 != 0 && len(b.w) > 0 {
		b.w[len(b.w)-1] &= (uint64(1) << uint(b.n%64)) - 1
	}
}

// Len returns the length K of the bit string.
func (b Bits) Len() int { return b.n }

// Get returns bit i.
func (b Bits) Get(i int) bool {
	return b.w[i/64]>>(uint(i)%64)&1 == 1
}

// Set assigns bit i. Bits has value semantics for length but the word
// backing is shared by copies; callers that need an independent copy should
// use Clone first.
func (b Bits) Set(i int, v bool) {
	if v {
		b.w[i/64] |= uint64(1) << (uint(i) % 64)
	} else {
		b.w[i/64] &^= uint64(1) << (uint(i) % 64)
	}
}

// Clone returns an independent copy of b.
func (b Bits) Clone() Bits {
	c := Bits{n: b.n, w: make([]uint64, len(b.w))}
	copy(c.w, b.w)
	return c
}

// CopyTo copies b into the front of w, which must hold at least
// (Len()+63)/64 words, and returns the copy: a Bits of b's length backed
// by those words alone, independent of b. It is Clone into memory the
// caller provides, so that many copies can share one allocation.
func (b Bits) CopyTo(w []uint64) Bits {
	k := len(b.w)
	c := Bits{n: b.n, w: w[:k:k]}
	copy(c.w, b.w)
	return c
}

// Equal reports whether b and other are the same string.
func (b Bits) Equal(other Bits) bool {
	if b.n != other.n {
		return false
	}
	for i := range b.w {
		if b.w[i] != other.w[i] {
			return false
		}
	}
	return true
}

// ForEachDiff calls fn on every index where b and other differ, in
// increasing order, stopping early if fn returns false. The strings must
// have equal length. It is the delta primitive of incremental input walks:
// the number of calls is the Hamming distance, so consecutive Gray-code
// inputs cost exactly one call.
func (b Bits) ForEachDiff(other Bits, fn func(i int) bool) {
	for wi := range b.w {
		diff := b.w[wi] ^ other.w[wi]
		for diff != 0 {
			i := wi*64 + bits.TrailingZeros64(diff)
			diff &= diff - 1
			if !fn(i) {
				return
			}
		}
	}
}

// Intersects reports whether there is an index i with b[i] = other[i] = 1.
// Lengths must match.
func (b Bits) Intersects(other Bits) bool {
	for i := range b.w {
		if b.w[i]&other.w[i] != 0 {
			return true
		}
	}
	return false
}

// FirstCommonOne returns the smallest index i with b[i] = other[i] = 1, or
// -1 if the strings are disjoint.
func (b Bits) FirstCommonOne(other Bits) int {
	for i := range b.w {
		if and := b.w[i] & other.w[i]; and != 0 {
			return i*64 + bits.TrailingZeros64(and)
		}
	}
	return -1
}

// FirstDifference returns the smallest index where b and other differ, or
// -1 if they are equal.
func (b Bits) FirstDifference(other Bits) int {
	for i := range b.w {
		if xor := b.w[i] ^ other.w[i]; xor != 0 {
			return i*64 + bits.TrailingZeros64(xor)
		}
	}
	return -1
}

// String renders the bit string LSB-first, e.g. "1010".
func (b Bits) String() string {
	var sb strings.Builder
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParseBits parses the LSB-first String rendering, e.g. "1010".
func ParseBits(s string) (Bits, error) {
	b := NewBits(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			b.Set(i, true)
		default:
			return Bits{}, fmt.Errorf("bit string %q has non-binary byte %q at %d", s, s[i], i)
		}
	}
	return b, nil
}

// MarshalJSON renders the bit string as its LSB-first String form, so
// reports carrying input pairs serialize readably over the job API.
func (b Bits) MarshalJSON() ([]byte, error) {
	return []byte(`"` + b.String() + `"`), nil
}

// UnmarshalJSON parses the String form produced by MarshalJSON.
func (b *Bits) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("bit string JSON %s is not a string", data)
	}
	parsed, err := ParseBits(string(data[1 : len(data)-1]))
	if err != nil {
		return err
	}
	*b = parsed
	return nil
}

// AllBits enumerates every bit string of length n (2^n strings) and calls
// fn on each. It returns an error for n > 24 to prevent accidental blowups.
func AllBits(n int, fn func(Bits)) error {
	if n > 24 {
		return fmt.Errorf("AllBits: refusing to enumerate 2^%d strings", n)
	}
	for v := uint64(0); v < uint64(1)<<uint(n); v++ {
		b, _ := BitsFromUint64(n, v)
		fn(b)
	}
	return nil
}

// PairIndex flattens a matrix index: strings of length k*k are indexed by
// pairs (i, j) with 0 <= i, j < k, as in the paper's constructions where
// x_{i,j} = 1 encodes the edge (a_1^i, a_2^j).
func PairIndex(i, j, k int) int { return i*k + j }
