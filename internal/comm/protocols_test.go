package comm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// untabled is a function the complexity table does not know.
type untabled struct{}

func (untabled) Eval(x, y Bits) bool { return x.Intersects(y) }
func (untabled) Name() string        { return "UNTABLED" }

func TestFunctionsOnSmallInputs(t *testing.T) {
	x, _ := BitsFromUint64(4, 0b0011)
	y, _ := BitsFromUint64(4, 0b0100)
	z, _ := BitsFromUint64(4, 0b0110)
	cases := []struct {
		name string
		f    Function
		x, y Bits
		want bool
	}{
		{name: "disjoint", f: Disjointness{}, x: x, y: y, want: true},
		{name: "intersecting", f: Disjointness{}, x: x, y: z, want: false},
		{name: "equal", f: Equality{}, x: x, y: x, want: true},
		{name: "unequal", f: Equality{}, x: x, y: y, want: false},
		{name: "negation", f: Negation{F: Disjointness{}}, x: x, y: z, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.f.Eval(tc.x, tc.y); got != tc.want {
				t.Errorf("%s.Eval = %v, want %v", tc.f.Name(), got, tc.want)
			}
		})
	}
}

func TestNondetNonDisjointness(t *testing.T) {
	p := NonDisjointnessWitness{}
	x, _ := BitsFromUint64(8, 0b10010000)
	y, _ := BitsFromUint64(8, 0b10000001)
	cert, ok := p.Prove(x, y)
	if !ok {
		t.Fatal("no certificate for intersecting inputs")
	}
	res, err := p.Verify(x, y, cert)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output {
		t.Error("valid certificate rejected")
	}
	if res.BitsExchanged > 2 {
		t.Errorf("verification cost %d > 2", res.BitsExchanged)
	}

	// Soundness: disjoint inputs have no accepting certificate.
	x2, _ := BitsFromUint64(8, 0b00000011)
	y2, _ := BitsFromUint64(8, 0b11000000)
	if _, ok := p.Prove(x2, y2); ok {
		t.Error("prover produced certificate for disjoint inputs")
	}
	for v := uint64(0); v < 8; v++ {
		cert, _ := BitsFromUint64(p.CertLen(8), v)
		res, err := p.Verify(x2, y2, cert)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output {
			t.Fatalf("certificate %d accepted on disjoint inputs", v)
		}
	}
}

func TestNondetInequality(t *testing.T) {
	p := InequalityWitness{}
	x, _ := BitsFromUint64(8, 0b10010000)
	y, _ := BitsFromUint64(8, 0b10010100)
	cert, ok := p.Prove(x, y)
	if !ok {
		t.Fatal("no certificate for unequal inputs")
	}
	res, err := p.Verify(x, y, cert)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output {
		t.Error("valid inequality certificate rejected")
	}

	// Soundness on equal inputs: every certificate rejects.
	for v := uint64(0); v < 16; v++ {
		cert, _ := BitsFromUint64(p.CertLen(8), v)
		res, err := p.Verify(x, x, cert)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output {
			t.Fatalf("certificate %d accepted on equal inputs", v)
		}
	}
	if _, ok := p.Prove(x, x); ok {
		t.Error("prover produced certificate for equal inputs")
	}
}

func TestQuickNondetCompleteness(t *testing.T) {
	p := NonDisjointnessWitness{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := RandomBits(40, rng)
		y := RandomBits(40, rng)
		cert, ok := p.Prove(x, y)
		if ok != x.Intersects(y) {
			return false
		}
		if !ok {
			return true
		}
		res, err := p.Verify(x, y, cert)
		return err == nil && res.Output
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestKnownComplexityAndGamma(t *testing.T) {
	cDisj, ok := KnownComplexity(Disjointness{})
	if !ok {
		t.Fatal("DISJ not in table")
	}
	if g := Gamma(cDisj, 1024); g != 1 {
		t.Errorf("Gamma(DISJ, 1024) = %v, want 1 (CC = CC^N = K)", g)
	}
	cEq, ok := KnownComplexity(Equality{})
	if !ok {
		t.Fatal("EQ not in table")
	}
	if g := Gamma(cEq, 1024); g != 1 {
		t.Errorf("Gamma(EQ, 1024) = %v, want 1", g)
	}
	if _, ok := KnownComplexity(untabled{}); ok {
		t.Error("an untabled function is present in the table")
	}
	// The limitation bound shrinks as the cut grows.
	loose := LimitationBound(cDisj, 1024, 1, 1024)
	tight := LimitationBound(cDisj, 1024, 100, 1024)
	if !(tight < loose) {
		t.Errorf("limitation bound not decreasing in cut size: %v vs %v", tight, loose)
	}
}
