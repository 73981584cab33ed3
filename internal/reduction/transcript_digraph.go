package reduction

import (
	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
)

// This file is the directed half of the transcript machinery. The
// simulators share their message types, meter and replay stub, so only
// the instance and the node factory differ: a digraph and dicongest
// programs.

// ExtractDigraphTranscript runs factory on d with the arc cut metered and
// returns the two-party transcript alongside the run result.
func ExtractDigraphTranscript(d *graph.Digraph, side []bool, factory dicongest.Factory, opts dicongest.Options) (*TwoPartyTranscript, *dicongest.Result, error) {
	transcript := &TwoPartyTranscript{}
	opts.CutSide = side
	opts.Meter = transcript
	res, err := dicongest.Run(d, factory, opts)
	if err != nil {
		return nil, nil, err
	}
	return transcript, res, nil
}

// VerifyDigraphSimulation asserts the Theorem 1.1 simulation invariant on
// one directed run, exactly as VerifySimulation does for undirected
// instances: Alice's view is a deterministic function of her side of the
// digraph plus the transcript, so re-running her vertices against replay
// stubs must reproduce her outputs and her A→B message sequence.
func VerifyDigraphSimulation(d *graph.Digraph, side []bool, factory dicongest.Factory, opts dicongest.Options) (*TwoPartyTranscript, *dicongest.Result, error) {
	return checkSimulation(d.N(), side, func(schedules map[int][]Entry) (*TwoPartyTranscript, *dicongest.Result, error) {
		return ExtractDigraphTranscript(d, side, func(local dicongest.Local) dicongest.Node {
			if schedules != nil && !side[local.ID] {
				return &replayStub{schedule: schedules[local.ID], neighbors: local.Neighbors}
			}
			return factory(local)
		}, opts)
	})
}
