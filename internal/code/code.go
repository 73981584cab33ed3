// Package code implements prime-field arithmetic and Reed-Solomon
// evaluation codes, the error-correcting-code substrate of the Section 4.1
// hardness-of-approximation construction: codes with parameters
// (ℓ+t, t, ℓ+1, q) whose distance ℓ+1 guarantees that two distinct row
// vertices disagree with the code gadget on at least ℓ columns.
package code

import "fmt"

// Field is the prime field F_q.
type Field struct {
	q int64
}

// NewField returns F_q for a prime q.
func NewField(q int64) (Field, error) {
	if q < 2 {
		return Field{}, fmt.Errorf("q must be >= 2, got %d", q)
	}
	if !isPrime(q) {
		return Field{}, fmt.Errorf("q = %d is not prime (prime powers beyond primes are unsupported)", q)
	}
	return Field{q: q}, nil
}

func isPrime(n int64) bool {
	if n < 2 {
		return false
	}
	for d := int64(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= n.
func NextPrime(n int64) int64 {
	if n < 2 {
		return 2
	}
	for !isPrime(n) {
		n++
	}
	return n
}

// Q returns the field size.
func (f Field) Q() int64 { return f.q }

// Add returns a + b mod q. Operands are reduced first, so any int64
// values are safe from overflow.
func (f Field) Add(a, b int64) int64 { return mod(mod(a, f.q)+mod(b, f.q), f.q) }

// Mul returns a * b mod q.
func (f Field) Mul(a, b int64) int64 { return mod(mod(a, f.q)*mod(b, f.q), f.q) }

func mod(a, q int64) int64 {
	a %= q
	if a < 0 {
		a += q
	}
	return a
}

// ReedSolomon is the evaluation code of length N and dimension Kappa over
// F_q: a message (m_0..m_{Kappa-1}) encodes to the evaluations of the
// polynomial m(X) = Σ m_i X^i at the points 0, 1, ..., N-1. Its minimum
// distance is N - Kappa + 1 (MDS).
type ReedSolomon struct {
	Field Field
	N     int
	Kappa int
}

// NewReedSolomon validates the parameters: N <= q (distinct evaluation
// points) and 1 <= Kappa <= N.
func NewReedSolomon(field Field, n, kappa int) (*ReedSolomon, error) {
	if n < 1 || int64(n) > field.Q() {
		return nil, fmt.Errorf("length %d must satisfy 1 <= N <= q = %d", n, field.Q())
	}
	if kappa < 1 || kappa > n {
		return nil, fmt.Errorf("dimension %d must satisfy 1 <= Kappa <= N = %d", kappa, n)
	}
	return &ReedSolomon{Field: field, N: n, Kappa: kappa}, nil
}

// Distance returns the code's minimum distance N - Kappa + 1.
func (rs *ReedSolomon) Distance() int { return rs.N - rs.Kappa + 1 }

// Encode evaluates the message polynomial at points 0..N-1.
func (rs *ReedSolomon) Encode(message []int64) ([]int64, error) {
	if len(message) != rs.Kappa {
		return nil, fmt.Errorf("message length %d != dimension %d", len(message), rs.Kappa)
	}
	codeword := make([]int64, rs.N)
	for p := 0; p < rs.N; p++ {
		// Horner evaluation at point p.
		var value int64
		for i := rs.Kappa - 1; i >= 0; i-- {
			value = rs.Field.Add(rs.Field.Mul(value, int64(p)), message[i])
		}
		codeword[p] = value
	}
	return codeword, nil
}

// EncodeIndex encodes the base-q representation of idx (an injection from
// [0, q^Kappa) into codewords), the "g" map of Section 4.1 that assigns
// each row vertex a codeword.
func (rs *ReedSolomon) EncodeIndex(idx int64) ([]int64, error) {
	if idx < 0 {
		return nil, fmt.Errorf("index must be non-negative, got %d", idx)
	}
	message := make([]int64, rs.Kappa)
	v := idx
	for i := 0; i < rs.Kappa; i++ {
		message[i] = v % rs.Field.Q()
		v /= rs.Field.Q()
	}
	if v != 0 {
		return nil, fmt.Errorf("index %d exceeds q^Kappa", idx)
	}
	return rs.Encode(message)
}
