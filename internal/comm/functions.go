package comm

// Function is a two-party Boolean function f: {0,1}^K x {0,1}^K -> {TRUE,
// FALSE}, as in Section 1.3 of the paper. Implementations must be pure.
type Function interface {
	// Eval computes f(x, y). Both inputs must have the same length.
	Eval(x, y Bits) bool
	// Name identifies the function in reports, e.g. "DISJ".
	Name() string
}

// Disjointness is the set-disjointness function DISJ_K: it is FALSE iff
// there is an index i with x_i = y_i = 1. Its deterministic and randomized
// communication complexities are Θ(K) (Section 1.3).
type Disjointness struct{}

var _ Function = Disjointness{}

// Eval returns TRUE iff x and y are disjoint as subsets of [K].
func (Disjointness) Eval(x, y Bits) bool { return !x.Intersects(y) }

// Name returns "DISJ".
func (Disjointness) Name() string { return "DISJ" }

// Equality is the equality function EQ_K: TRUE iff x = y. CC(EQ) = Θ(K)
// deterministically but CC_R(EQ) = O(log K) (Section 5.2).
type Equality struct{}

var _ Function = Equality{}

// Eval returns TRUE iff x equals y.
func (Equality) Eval(x, y Bits) bool { return x.Equal(y) }

// Name returns "EQ".
func (Equality) Name() string { return "EQ" }

// Negation is ¬f for an inner function f, used when discussing
// co-nondeterministic complexity (Section 5.2: CC^N(¬f)).
type Negation struct {
	F Function
}

var _ Function = Negation{}

// Eval returns !F(x, y).
func (n Negation) Eval(x, y Bits) bool { return !n.F.Eval(x, y) }

// Name returns "NOT-" plus the inner name.
func (n Negation) Name() string { return "NOT-" + n.F.Name() }
