package serve_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"congesthard/internal/faults"
	"congesthard/internal/reduction"
	"congesthard/internal/serve"
)

// reportDigest hashes everything a certification report claims: the
// header, the Theorem 1.1 aggregates and, pair by pair in canonical
// order, the inputs, rounds, message and cut traffic, and verdicts.
func reportDigest(seed int64, rep *reduction.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d %s/%s exact=%v exhaustive=%v stats=%+v B=%d\n",
		seed, rep.Family, rep.Algorithm, rep.Exact, rep.Exhaustive, rep.Stats, rep.Bandwidth)
	fmt.Fprintf(h, "completed=%d/%d mismatches=%d T=%d maxcut=%d sim=%d cc=%g\n",
		rep.Completed, rep.Total, rep.Mismatches, rep.MaxRounds, rep.MaxCutBits, rep.SimBits, rep.CCBound)
	for i, p := range rep.Pairs {
		fmt.Fprintf(h, "%d %s %s r=%d m=%d cm=%d cb=%d out=%v want=%v ok=%v\n",
			i, p.X, p.Y, p.Rounds, p.Messages, p.CutMessages, p.CutBits, p.Output, p.Want, p.Correct)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRegistryReportDigests pins the report of every DefaultRegistry
// pairing — exhaustive at seed 1 — plus collect-retry under a seeded 1%
// drop plan. The digests were captured before the sweep engines were
// merged into one; any change to pair order, per-pair seeds, rounds,
// cut bits or verdicts changes them. Each sweep runs at one worker and
// at GOMAXPROCS, which must agree.
func TestRegistryReportDigests(t *testing.T) {
	want := map[string]string{
		"dir-steiner/collect": "999fe2a226952bf9",
		"hamlb/collect":       "7cf3479a2313456f",
		"hamlb/greedy-path":   "e56e1ac3a0e971ea",
		"maxcut/exact":        "ec79da76bb6860ad",
		"maxcut/sampled":      "278435804e7cd89a",
		"mds/collect":         "b80d1f37b902af0f",
		"mds/collect-retry":   "1f974d1efbe142c5",
		"mds/greedy":          "3df9ac9b26f3a8b2",
		"mvc/matching":        "1cc7ec0383e5bad1",
		// collect-retry retransmits on a fixed schedule, so a 1% drop
		// plan changes no count it reports: the faulted digest equals
		// the fault-free one.
		"mds/collect-retry+faults": "1f974d1efbe142c5",
	}
	plan, err := faults.Parse("drop=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		name string
		p    serve.Pairing
		cfg  reduction.Config
	}
	var jobs []job
	for _, p := range serve.DefaultRegistry().List() {
		jobs = append(jobs, job{p.Key(), p, reduction.Config{Seed: 1}})
		if p.Key() == "mds/collect-retry" {
			jobs = append(jobs, job{p.Key() + "+faults", p, reduction.Config{Seed: 1, Faults: plan}})
		}
	}
	if len(jobs) != len(want) {
		t.Errorf("registry yields %d digest jobs, table pins %d", len(jobs), len(want))
	}
	for _, j := range jobs {
		run, err := j.p.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", j.name, err)
		}
		for _, workers := range []int{1, 0} {
			cfg := j.cfg
			cfg.Workers = workers
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", j.name, workers, err)
			}
			if !rep.Exhaustive {
				t.Errorf("%s: sweep is sampled, want exhaustive", j.name)
			}
			if got := reportDigest(cfg.Seed, rep); got != want[j.name] {
				t.Errorf("%s/workers=%d: report digest %s, want %s", j.name, workers, got, want[j.name])
			}
		}
	}
}
