package reduction

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/mdslb"
)

// TestCertifyCtxConcurrent runs several certification sweeps concurrently
// against ONE shared family instance — the access pattern of the job
// server, whose base cache hands the same built family to every worker.
// Families must be read-only after construction; this test (run under the
// -race CI job) is the proof. Same-seed sweeps must also agree exactly,
// catching any shared mutable state that corrupts results without racing.
func TestCertifyCtxConcurrent(t *testing.T) {
	fam, err := mdslb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	alg := CollectMDS(fam)
	const goroutines = 8
	reports := make([]*Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half share seed 1 (must agree exactly), half get distinct
			// seeds (must still certify cleanly).
			seed := int64(1)
			if i >= goroutines/2 {
				seed = int64(i)
			}
			reports[i], errs[i] = CertifyCtx(context.Background(), fam, alg, Config{Pairs: 24, Seed: seed})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		if reports[i].Mismatches != 0 {
			t.Fatalf("sweep %d: %d mismatches from the exact collect", i, reports[i].Mismatches)
		}
	}
	base := reports[0]
	for i := 1; i < goroutines/2; i++ {
		r := reports[i]
		if r.SimBits != base.SimBits || r.MaxRounds != base.MaxRounds || r.MaxCutBits != base.MaxCutBits {
			t.Fatalf("same-seed sweeps diverged: sweep %d {sim=%d rounds=%d cut=%d} vs {sim=%d rounds=%d cut=%d}",
				i, r.SimBits, r.MaxRounds, r.MaxCutBits, base.SimBits, base.MaxRounds, base.MaxCutBits)
		}
		for p := range r.Pairs {
			if !r.Pairs[p].X.Equal(base.Pairs[p].X) || !r.Pairs[p].Y.Equal(base.Pairs[p].Y) || r.Pairs[p].Output != base.Pairs[p].Output {
				t.Fatalf("same-seed sweeps diverged at pair %d", p)
			}
		}
	}
}

// TestCertifyDigraphCtxConcurrent is the directed twin: concurrent sweeps
// of the Hamiltonian-path family through CertifyDigraphCtx, sharing one
// family and one algorithm value.
func TestCertifyDigraphCtxConcurrent(t *testing.T) {
	fam, err := hamlb.New(2)
	if err != nil {
		t.Fatal(err)
	}
	alg := CollectHamPath(fam)
	const goroutines = 6
	reports := make([]*Report, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = CertifyDigraphCtx(context.Background(), fam, alg, Config{Pairs: 12, Seed: int64(i + 1)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("directed sweep %d: %v", i, err)
		}
		if reports[i].Mismatches != 0 {
			t.Fatalf("directed sweep %d: %d mismatches from the exact collect", i, reports[i].Mismatches)
		}
		if reports[i].Completed != 12 {
			t.Fatalf("directed sweep %d certified %d of 12 pairs", i, reports[i].Completed)
		}
	}
}

// reportDigest hashes everything a certification report claims: the
// header, the Theorem 1.1 aggregates and, pair by pair in canonical
// order, the inputs, rounds, message and cut traffic, and verdicts.
func reportDigest(rep *Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%s exact=%v exhaustive=%v stats=%+v B=%d\n",
		rep.Family, rep.Algorithm, rep.Exact, rep.Exhaustive, rep.Stats, rep.Bandwidth)
	fmt.Fprintf(h, "completed=%d/%d mismatches=%d T=%d maxcut=%d sim=%d cc=%g\n",
		rep.Completed, rep.Total, rep.Mismatches, rep.MaxRounds, rep.MaxCutBits, rep.SimBits, rep.CCBound)
	for i, p := range rep.Pairs {
		fmt.Fprintf(h, "%d %s %s r=%d m=%d cm=%d cb=%d out=%v want=%v ok=%v\n",
			i, p.X, p.Y, p.Rounds, p.Messages, p.CutMessages, p.CutBits, p.Output, p.Want, p.Correct)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestConcurrentSweepsShareArenas runs mds/collect and hamlb/collect
// sweeps from several goroutines at once, on shared algorithm values (so
// their workspace pools are shared) and on the shared list of free
// simulator arenas, some with transcript replays, which rerun a pair on
// its worker's arena. Every report must equal, digest for digest, the
// same sweep run alone at one worker. Under -race (the CI race job runs
// it with -short, which it does not skip under) a pooled workspace or
// arena handed to two runs at once is a data race.
func TestConcurrentSweepsShareArenas(t *testing.T) {
	mds, ham := mdsFam(t), hamFam(t)
	mdsAlg, hamAlg := CollectMDS(mds), CollectHamPath(ham)
	sweeps := []func(cfg Config) (*Report, error){
		func(cfg Config) (*Report, error) { return Certify(mds, mdsAlg, cfg) },
		func(cfg Config) (*Report, error) { return CertifyDigraph(ham, hamAlg, cfg) },
	}
	type job struct {
		sweep int
		cfg   Config
	}
	var jobs []job
	for sweep := range sweeps {
		jobs = append(jobs, job{sweep, Config{Seed: 1}}, job{sweep, Config{Seed: 2, TranscriptChecks: 24}})
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		cfg := j.cfg
		cfg.Workers = 1
		rep, err := sweeps[j.sweep](cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = reportDigest(rep)
	}
	const rounds = 2
	got := make([][rounds]string, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				cfg := j.cfg
				cfg.Workers = 1 + (i+r)%3
				rep, err := sweeps[j.sweep](cfg)
				if err != nil {
					t.Error(err)
					return
				}
				got[i][r] = reportDigest(rep)
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		for r := range rounds {
			if got[i][r] != want[i] {
				t.Errorf("sweep %d (seed %d, %d transcript checks), concurrent round %d: report digest %.16s, alone %.16s",
					j.sweep, j.cfg.Seed, j.cfg.TranscriptChecks, r, got[i][r], want[i])
			}
		}
	}
}
