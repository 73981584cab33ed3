package solver

import (
	"math/rand"
	"testing"
	"testing/quick"

	"congesthard/internal/graph"
)

// Property: adding an edge never increases the dominating set weight and
// never increases the independence number.
func TestQuickMonotonicityUnderEdgeAddition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(9, 0.25, rng)
		gammaBefore, _, err := MinDominatingSet(g)
		if err != nil {
			return false
		}
		alphaBefore, _, err := MaxIndependentSetSize(g)
		if err != nil {
			return false
		}
		// Add a random absent edge if one exists.
		u, v := rng.Intn(9), rng.Intn(9)
		if u == v || g.HasEdge(u, v) {
			return true // vacuous draw
		}
		g.MustAddEdge(u, v)
		gammaAfter, _, err := MinDominatingSet(g)
		if err != nil {
			return false
		}
		alphaAfter, _, err := MaxIndependentSetSize(g)
		if err != nil {
			return false
		}
		return gammaAfter <= gammaBefore && alphaAfter <= alphaBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: max cut is at least half the total edge weight and at most
// the total edge weight; bipartite graphs achieve the total.
func TestQuickMaxCutBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GnpWeighted(10, 0.4, 7, rng)
		cut, _, err := MaxCut(g)
		if err != nil {
			return false
		}
		total := g.TotalEdgeWeight()
		return 2*cut >= total && cut <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: nu(G) <= tau(G) <= 2 nu(G) (matching vs vertex cover duality).
func TestQuickMatchingCoverDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(9, 0.3, rng)
		nu, _, err := MaxMatching(g)
		if err != nil {
			return false
		}
		tau, _, err := MinVertexCoverSize(g)
		if err != nil {
			return false
		}
		return nu <= tau && tau <= 2*nu
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the k-domination weight is non-increasing in k, reaching the
// cheapest single vertex at k >= diameter.
func TestQuickKDominationMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(8, 0.35, rng)
		if !g.IsConnected() {
			return true
		}
		prev := int64(1 << 40)
		for k := 1; k <= 3; k++ {
			w, _, err := MinKDominatingSet(g, k)
			if err != nil {
				return false
			}
			if w > prev {
				return false
			}
			prev = w
		}
		diam := g.Diameter()
		w, _, err := MinKDominatingSet(g, diam)
		if err != nil {
			return false
		}
		return w == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: a planted Hamiltonian graph is always detected, and the
// returned cycle validates.
func TestQuickPlantedHamiltonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := graph.HamiltonianGnp(12, 0.15, rng)
		cycle, found, err := HamiltonianCycle(g)
		if err != nil || !found {
			return false
		}
		return IsHamiltonianCycle(g, cycle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: max flow is bounded by both the out-capacity of s and the
// in-capacity of t, and MinSTCut returns a matching value and valid side.
func TestQuickFlowCutDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := graph.RandomDigraph(7, 0.4, rng)
		flow, _, err := MaxFlow(d, 0, 6)
		if err != nil {
			return false
		}
		value, side, err := MinSTCut(d, 0, 6)
		if err != nil {
			return false
		}
		if value != flow {
			return false
		}
		if !side[0] || side[6] {
			return false
		}
		return CutCapacity(d, side) == flow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
