package algorithms

import (
	"fmt"
	"math/rand"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// MaximalMatchingVCFactory returns the node program of the randomized
// proposal maximal matching: each vertex's Output is its matched partner
// (-1 if unmatched), and the matched vertices form the classical
// 2-approximate vertex cover. The program is deterministic given (seed,
// vertex id), so metered runs (reduction.Certify, transcript replay) can
// re-execute it exactly.
func MaximalMatchingVCFactory(seed int64, maxPhases int) congest.Factory {
	return func(local congest.Local) congest.Node {
		rng := rand.New(rand.NewSource(seed + int64(local.ID)*40503))
		matched := false
		partner, partnerPort := -1, -1
		// available[port] marks the neighbors not yet known to be matched.
		available := make([]bool, len(local.Neighbors))
		for port := range available {
			available[port] = true
		}
		left := len(available)
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				phase := round % 2
				if phase == 0 {
					// Handle accept/withdraw messages from the previous
					// proposal round.
					for _, msg := range inbox {
						switch msg.Payload {
						case 2: // accepted
							matched = true
							partner, partnerPort = local.Neighbors[msg.Port], msg.Port
						case 3: // neighbor now matched: remove
							if available[msg.Port] {
								available[msg.Port] = false
								left--
							}
						}
					}
					if matched || left == 0 || round/2 >= maxPhases {
						// Tell available neighbors we are gone, in port
						// order: the program must be deterministic per
						// (seed, id) so the reduction engine's transcript
						// replays reproduce it exactly.
						var out []congest.Message
						if matched {
							for port, on := range available {
								if on && port != partnerPort {
									out = append(out, congest.Message{Port: port, Payload: 3})
								}
							}
						}
						return out, true
					}
					// Propose to a random available neighbor, drawn by its
					// rank among the available ports.
					pick, target := rng.Intn(left), -1
					for port, on := range available {
						if on {
							if pick == 0 {
								target = port
								break
							}
							pick--
						}
					}
					return []congest.Message{{Port: target, Payload: 1}}, false
				}
				// Phase 1: accept the smallest-id (smallest-port) proposer
				// if unmatched.
				bestProposer := -1
				for _, msg := range inbox {
					if msg.Payload == 1 && (bestProposer < 0 || msg.Port < bestProposer) {
						bestProposer = msg.Port
					}
				}
				if !matched && bestProposer >= 0 {
					matched = true
					partner, partnerPort = local.Neighbors[bestProposer], bestProposer
					return []congest.Message{{Port: bestProposer, Payload: 2}}, false
				}
				return nil, false
			},
			OutputFunc: func() interface{} { return partner },
		}
	}
}

// MatchedVertices extracts the matched-vertex cover from a finished
// MaximalMatchingVCFactory run.
func MatchedVertices(res *congest.Result) []int {
	var cover []int
	for v, out := range res.Outputs {
		if p, ok := out.(int); ok && p >= 0 {
			cover = append(cover, v)
		}
	}
	return cover
}

// GreedyMDS runs a sequential-greedy dominating set centrally (pick the
// vertex covering the most undominated vertices until done) — the
// O(log Δ)-approximation the paper's Section 2.1 cites as the state of the
// art that its Ω̃(n²) exactness bound contrasts with. Returned with the
// round cost a distributed implementation would pay (O(Δ) phases of O(1)
// rounds; we report 3 rounds per selection as in the aggregate version).
func GreedyMDS(g *graph.Graph) ([]int, int, error) {
	n := g.N()
	dominated := make([]bool, n)
	var set []int
	remaining := n
	rounds := 0
	for remaining > 0 {
		bestV, bestGain := -1, 0
		for v := 0; v < n; v++ {
			gain := 0
			if !dominated[v] {
				gain++
			}
			for _, h := range g.Neighbors(v) {
				if !dominated[h.To] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain = gain
				bestV = v
			}
		}
		if bestV < 0 {
			return nil, 0, fmt.Errorf("internal: no progress with %d undominated", remaining)
		}
		set = append(set, bestV)
		if !dominated[bestV] {
			dominated[bestV] = true
			remaining--
		}
		for _, h := range g.Neighbors(bestV) {
			if !dominated[h.To] {
				dominated[h.To] = true
				remaining--
			}
		}
		rounds += 3
	}
	return set, rounds, nil
}
