package comm

import "fmt"

// Result summarizes one protocol execution.
type Result struct {
	// Output is the protocol's answer for f(x, y).
	Output bool
	// BitsExchanged is the exact number of bits communicated between the
	// players (the communication cost of this execution).
	BitsExchanged int
}

// NondetProtocol is a nondeterministic two-party protocol for a function f
// (Section 5.2): a prover supplies a certificate; the players verify it with
// little communication. Soundness: no certificate makes the players accept
// a FALSE instance. Completeness: every TRUE instance has an accepting
// certificate.
type NondetProtocol interface {
	// CertLen is the certificate length in bits for inputs of length k.
	CertLen(k int) int
	// Prove returns an accepting certificate when f(x, y) = TRUE, or
	// ok = false when the instance is FALSE.
	Prove(x, y Bits) (cert Bits, ok bool)
	// Verify runs the verification exchange on a claimed certificate and
	// returns the accept/reject decision plus bits communicated.
	Verify(x, y, cert Bits) (Result, error)
	// Name identifies the protocol.
	Name() string
}

// NonDisjointnessWitness is the canonical O(log K) nondeterministic protocol
// for ¬DISJ (Section 5.2): the certificate is an index i, encoded in binary,
// with x_i = y_i = 1; both players check their own bit and exchange two
// bits of verdict.
type NonDisjointnessWitness struct{}

var _ NondetProtocol = NonDisjointnessWitness{}

// CertLen returns ceil(log2 k) (at least 1).
func (NonDisjointnessWitness) CertLen(k int) int { return indexBits(k) }

func indexBits(k int) int {
	bitsNeeded := 1
	for (1 << uint(bitsNeeded)) < k {
		bitsNeeded++
	}
	return bitsNeeded
}

// Prove returns the binary encoding of the first common 1-index.
func (NonDisjointnessWitness) Prove(x, y Bits) (Bits, bool) {
	idx := x.FirstCommonOne(y)
	if idx < 0 {
		return Bits{}, false
	}
	cert, _ := BitsFromUint64(indexBits(x.Len()), uint64(idx))
	return cert, true
}

// Verify decodes the index and has both players confirm their bit.
func (NonDisjointnessWitness) Verify(x, y, cert Bits) (Result, error) {
	if x.Len() != y.Len() {
		return Result{}, fmt.Errorf("input length mismatch: %d vs %d", x.Len(), y.Len())
	}
	idx := 0
	for i := 0; i < cert.Len(); i++ {
		if cert.Get(i) {
			idx |= 1 << uint(i)
		}
	}
	if idx >= x.Len() {
		return Result{Output: false, BitsExchanged: 2}, nil
	}
	accept := x.Get(idx) && y.Get(idx)
	// Each player announces whether their own bit at idx is 1.
	return Result{Output: accept, BitsExchanged: 2}, nil
}

// Name returns "nondet-NOT-DISJ".
func (NonDisjointnessWitness) Name() string { return "nondet-NOT-DISJ" }

// InequalityWitness is the O(log K) nondeterministic protocol for ¬EQ: the
// certificate is an index where x and y differ plus Alice's bit value
// there; the players verify with two bits.
type InequalityWitness struct{}

var _ NondetProtocol = InequalityWitness{}

// CertLen returns ceil(log2 k) + 1 (index plus Alice's claimed bit).
func (InequalityWitness) CertLen(k int) int { return indexBits(k) + 1 }

// Prove encodes the first differing index and Alice's bit there.
func (InequalityWitness) Prove(x, y Bits) (Bits, bool) {
	idx := x.FirstDifference(y)
	if idx < 0 {
		return Bits{}, false
	}
	nb := indexBits(x.Len())
	cert, _ := BitsFromUint64(nb+1, uint64(idx))
	if x.Get(idx) {
		cert.Set(nb, true)
	}
	return cert, true
}

// Verify checks that Alice's bit matches the claim and Bob's bit differs.
func (InequalityWitness) Verify(x, y, cert Bits) (Result, error) {
	if x.Len() != y.Len() {
		return Result{}, fmt.Errorf("input length mismatch: %d vs %d", x.Len(), y.Len())
	}
	nb := indexBits(x.Len())
	if cert.Len() != nb+1 {
		return Result{Output: false, BitsExchanged: 0}, nil
	}
	idx := 0
	for i := 0; i < nb; i++ {
		if cert.Get(i) {
			idx |= 1 << uint(i)
		}
	}
	if idx >= x.Len() {
		return Result{Output: false, BitsExchanged: 2}, nil
	}
	claimed := cert.Get(nb)
	accept := x.Get(idx) == claimed && y.Get(idx) != claimed
	return Result{Output: accept, BitsExchanged: 2}, nil
}

// Name returns "nondet-NOT-EQ".
func (InequalityWitness) Name() string { return "nondet-NOT-EQ" }
