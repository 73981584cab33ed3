package reduction

import (
	"testing"

	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// droppingMDS is the MDS family with a wrong delta: ApplyBit ignores
// Bob's bit 3, so its instances lack that bit's edge.
type droppingMDS struct{ *mdslb.Family }

func (f droppingMDS) ApplyBit(g *graph.Graph, player, bit int, val bool) error {
	if player == lbfamily.PlayerY && bit == 3 {
		return nil
	}
	return f.Family.ApplyBit(g, player, bit, val)
}

// droppingHam is droppingMDS for the Hamiltonian path family.
type droppingHam struct{ *hamlb.Family }

func (f droppingHam) ApplyBit(d *graph.Digraph, player, bit int, val bool) error {
	if player == lbfamily.PlayerY && bit == 3 {
		return nil
	}
	return f.Family.ApplyBit(d, player, bit, val)
}

// TestCertifyGatesTheDelta: Certify runs the consistency gate before it
// trusts a delta, so a family whose ApplyBit disagrees with Build, or
// whose derived changes do not compose (a squared instance), certifies
// exactly the pairs rebuilding every instance certifies.
func TestCertifyGatesTheDelta(t *testing.T) {
	mds := mdsFam(t)
	squared := &lbfamily.DerivedFamily{
		Inner: mds, FamilyName: "mds-squared",
		Transform: func(g *graph.Graph, side []bool) (*graph.Graph, []bool, error) { return g.Power(2), side, nil },
		Pred:      mds.Predicate,
	}
	for _, fam := range []lbfamily.Family{droppingMDS{mds}, squared} {
		want, err := Certify(fam, CollectMDS(mds), Config{Seed: 1, ForceRebuild: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Certify(fam, CollectMDS(mds), Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, fam.Name(), want, got)
	}
	ham := hamFam(t)
	fam := droppingHam{ham}
	want, err := CertifyDigraph(fam, CollectHamPath(ham), Config{Seed: 1, ForceRebuild: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CertifyDigraph(fam, CollectHamPath(ham), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "hampath with a wrong delta", want, got)
}
