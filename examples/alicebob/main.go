// Command alicebob makes Theorem 1.1 concrete: it runs a CONGEST
// algorithm (min-id flooding) on a lower-bound graph G_{x,y} with Alice
// simulating V_A and Bob V_B, meters the bits that cross the fixed cut,
// and compares them with the Theorem 1.1 budget 2*T*|E_cut|*B — the
// inequality that converts round lower bounds into communication lower
// bounds. It then shows the Section 5 counterpoint: the 2-approximation
// protocol for MDS solves the approximate problem with only
// O(|E_cut|*log n) bits, which is why Theorem 1.1 cannot rule out fast
// 2-approximations (Claim 5.8).
package main

import (
	"fmt"
	"log"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/lbfamily"
	"congesthard/internal/limits"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fam, err := mdslb.New(4)
	if err != nil {
		return err
	}
	x := comm.NewBits(fam.K())
	y := comm.NewBits(fam.K())
	x.Set(5, true)
	y.Set(5, true)

	// A T-round algorithm: flood the minimum id for T rounds, broadcasting
	// it to every neighbor each round from a one-message outbox.
	const rounds = 12
	factory := func(local congest.Local) congest.Node {
		best := int64(local.ID)
		out := []congest.Message{{Port: congest.AllPorts}}
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				for _, m := range inbox {
					if m.Payload < best {
						best = m.Payload
					}
				}
				if round >= rounds {
					return nil, true
				}
				out[0].Payload = best
				return out, false
			},
			OutputFunc: func() interface{} { return best },
		}
	}

	res, err := lbfamily.SimulateTwoParty(fam, x, y, factory)
	if err != nil {
		return err
	}
	stats, err := lbfamily.MeasureStats(fam)
	if err != nil {
		return err
	}
	budget := int64(2*res.Rounds*stats.CutSize) * int64(res.BandwidthBits)
	fmt.Println("== Theorem 1.1 simulation on the MDS family (k=4) ==")
	fmt.Printf("n = %d, |E_cut| = %d, bandwidth B = %d bits\n", stats.N, stats.CutSize, res.BandwidthBits)
	fmt.Printf("algorithm ran %d rounds; bits across the cut: %d\n", res.Rounds, res.CutBits)
	fmt.Printf("Theorem 1.1 budget 2*T*|E_cut|*B = %d  (measured <= budget: %v)\n",
		budget, res.CutBits <= budget)
	fmt.Println()
	fmt.Println("So a T-round CONGEST algorithm yields a protocol with")
	fmt.Println("O(T*|E_cut|*log n) bits; CC(DISJ) = Omega(k^2) then forces")
	fmt.Println("T = Omega(k^2 / (|E_cut| log n)) rounds.")

	// The Section 5 counterpoint.
	g, err := fam.Build(x, y)
	if err != nil {
		return err
	}
	protoRes, err := limits.TwoApproxMDS(g, fam.AliceSide())
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("== Claim 5.8 counterpoint: 2-approximate MDS is cheap ==")
	fmt.Printf("protocol value %d vs optimum %d (ratio %.2f) using only %d bits\n",
		protoRes.Value, protoRes.Optimal, protoRes.Ratio, protoRes.Bits)
	fmt.Println("=> the Alice-Bob framework cannot prove hardness beyond factor 2 for MDS.")
	return nil
}
