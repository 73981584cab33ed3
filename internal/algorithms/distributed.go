package algorithms

import (
	"fmt"
	"math/rand"

	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// LubyMIS computes a maximal independent set with Luby's algorithm on the
// congest simulator: in each phase every active vertex draws a random
// value; local maxima join the MIS and deactivate their neighbors.
// Terminates in O(log n) phases with high probability (maxPhases guards).
func LubyMIS(g *graph.Graph, seed int64, maxPhases int) ([]int, *congest.Result, error) {
	n := g.N()
	res, err := congest.Run(g, LubyMISFactory(seed, maxPhases), congest.Options{MaxRounds: 3*maxPhases + 6})
	if err != nil {
		return nil, nil, err
	}
	var mis []int
	for v := 0; v < n; v++ {
		if in, ok := res.Outputs[v].(bool); ok && in {
			mis = append(mis, v)
		}
	}
	return mis, res, nil
}

// LubyMISFactory returns the node program of Luby's MIS. The program is
// deterministic given (seed, vertex id) — including its outbox order —
// so metered runs (reduction.Certify, transcript replay) can re-execute
// it exactly; see TestLubyMISMeterDeterminism.
func LubyMISFactory(seed int64, maxPhases int) congest.Factory {
	return func(local congest.Local) congest.Node {
		rng := rand.New(rand.NewSource(seed + int64(local.ID)*2654435761))
		const (
			stateActive = iota
			stateInMIS
			stateOut
		)
		state := stateActive
		// active[port] marks the neighbors still in the running.
		active := make([]bool, len(local.Neighbors))
		for port := range active {
			active[port] = true
		}
		var draw int64
		return &congest.FuncNode{
			RoundFunc: func(round int, inbox []congest.Incoming) ([]congest.Message, bool) {
				phase := round % 3
				switch phase {
				case 0:
					// Process join/deactivate notifications from last phase.
					for _, msg := range inbox {
						switch msg.Payload {
						case 1: // neighbor joined MIS
							if state == stateActive {
								state = stateOut
							}
							active[msg.Port] = false
						case 2: // neighbor deactivated
							active[msg.Port] = false
						}
					}
					if state != stateActive {
						return nil, true
					}
					if round/3 >= maxPhases {
						return nil, true
					}
					// Draw and broadcast a random value; the range n² fits
					// the 2·log n CONGEST bandwidth, and ties only cause a
					// redraw in the next phase. Broadcast in ascending
					// port (neighbor id) order: the outbox sequence feeds
					// any Meter hook, and transcript replay needs it
					// deterministic.
					draw = rng.Int63n(int64(local.N)*int64(local.N) + 1)
					out := make([]congest.Message, 0, len(active))
					for port, on := range active {
						if on {
							out = append(out, congest.Message{Port: port, Payload: draw})
						}
					}
					return out, false
				case 1:
					// Join if strictly above all active neighbors (ties
					// broken by never joining; re-drawn next phase).
					isMax := true
					for _, msg := range inbox {
						if msg.Payload >= draw {
							isMax = false
						}
					}
					if isMax {
						state = stateInMIS
					}
					return nil, false
				default:
					// Announce join (1) or stay quiet; deactivated vertices
					// announce 2 in their final phase (handled at case 0 by
					// termination, so here only joins are announced).
					if state == stateInMIS {
						out := make([]congest.Message, 0, len(active))
						for port, on := range active {
							if on {
								out = append(out, congest.Message{Port: port, Payload: 1})
							}
						}
						return out, false
					}
					return nil, false
				}
			},
			OutputFunc: func() interface{} { return state == stateInMIS },
		}
	}
}

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

// MaximalMatching2ApproxVC computes a maximal matching by randomized
// proposals on the congest simulator and returns the matched vertices —
// the classical 2-approximate vertex cover.
func MaximalMatching2ApproxVC(g *graph.Graph, seed int64, maxPhases int) ([]int, *congest.Result, error) {
	res, err := congest.Run(g, MaximalMatchingVCFactory(seed, maxPhases), congest.Options{MaxRounds: 2*maxPhases + 6})
	if err != nil {
		return nil, nil, err
	}
	return MatchedVertices(res), res, nil
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
