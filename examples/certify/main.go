// Command certify walks the reduction engine end to end on the Theorem
// 2.1 MDS family: it certifies the exact collect-and-solve upper bound
// over every input pair, shows the greedy baseline being flagged as not
// deciding the predicate, and extracts one run's two-party transcript —
// the Alice-Bob simulation of Theorem 1.1 made concrete.
package main

import (
	"fmt"
	"log"
	"time"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/graph"
	"congesthard/internal/reduction"
)

func main() {
	fam, err := mdslb.New(2)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Certify the exact algorithm over all 2^(2K) = 256 pairs: every
	// run is a real CONGEST simulation with the Alice-Bob cut metered.
	// The sweep runs across GOMAXPROCS workers yet reports exactly what
	// a one-worker walk (Config.Workers = 1) would, in canonical order.
	started := time.Now()
	rep, err := reduction.Certify(fam, reduction.CollectMDS(fam), reduction.Config{Seed: 1, TranscriptChecks: 1})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(started)
	fmt.Printf("collect-and-solve on the MDS family: %d/%d pairs correct\n",
		len(rep.Pairs)-rep.Mismatches, len(rep.Pairs))
	fmt.Printf("  worst run: %d rounds, Theorem 1.1 budget 2*T*B*|E_cut| = %d bits >= CC(DISJ at K=%d) = %.0f\n",
		rep.MaxRounds, rep.SimBits, rep.Stats.K, rep.CCBound)
	fmt.Printf("  swept %d pairs in %s (%.0f pairs/s)\n",
		rep.Completed, elapsed.Round(time.Millisecond), float64(rep.Completed)/elapsed.Seconds())

	// 2. The greedy O(log n)-approximation does NOT decide the predicate:
	// Certify counts the pairs where it misdecides.
	greedy, err := reduction.Certify(fam, reduction.GreedyMDS(fam), reduction.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy baseline: flagged on %d/%d pairs (one-sided: overshoots on yes-instances)\n",
		greedy.Mismatches, len(greedy.Pairs))

	// 3. Extract the two-party transcript of one intersecting pair and
	// verify the simulation invariant: replaying Bob's recorded messages
	// against Alice's side alone reproduces her run exactly.
	x, _ := comm.BitsFromUint64(fam.K(), 0b0110)
	y, _ := comm.BitsFromUint64(fam.K(), 0b0011)
	g, err := fam.Build(x, y)
	if err != nil {
		log.Fatal(err)
	}
	factory, _, err := algorithms.CollectFactory(g, 0, algorithms.CollectSpec{
		Eval: func(component *graph.Graph) (int64, error) { return int64(component.M()), nil },
	})
	if err != nil {
		log.Fatal(err)
	}
	transcript, res, err := reduction.VerifySimulation(g, fam.AliceSide(), factory, congest.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transcript of (x=%s, y=%s): %d crossing messages, %d bits A->B, %d bits B->A over %d rounds\n",
		x, y, len(transcript.Entries), transcript.BitsAB, transcript.BitsBA, res.Rounds)
	fmt.Println("simulation invariant verified: Alice's view is her side plus the transcript")
}
