package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"congesthard/internal/constructions/apxmaxislb"
	"congesthard/internal/constructions/boundedlb"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/constructions/kmdslb"
	"congesthard/internal/constructions/maxcutlb"
	"congesthard/internal/constructions/mdslb"
	"congesthard/internal/constructions/steinerlb"
	"congesthard/internal/cover"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/reduction"
)

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metrics this command reports in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, hardbench declares %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, hardbench declares %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd, true)
	compare("per_layer", bench.PerLayer, perLayer, false)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, hardbench runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, hardbench has %q", i, w.Name, workloads[i])
		}
	}
}

func TestParseOptions(t *testing.T) {
	o, err := parseOptions([]string{"--workload", "verify", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "verify" || o.seed != 7 || o.seconds != 3 || !o.trace {
		t.Fatalf("parsed %+v", o)
	}
	for _, args := range [][]string{
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--workload", "verify", "extra"},
	} {
		if _, err := parseOptions(args); err == nil {
			t.Errorf("parseOptions(%q) accepted bad arguments", args)
		}
	}
	if _, err := run(options{workload: "nope", seconds: 1}); err == nil {
		t.Error("run accepted an unknown workload")
	}
}

// TestNormalize checks that a sensitivity of 1 applies the probe's scale
// in full, 0 not at all, and 0.5 as its square root.
func TestNormalize(t *testing.T) {
	for _, c := range []struct{ sensitivity, want float64 }{{1, 0.5}, {0, 2}, {0.5, 1}} {
		if got := normalize([]float64{2}, []float64{0.25}, c.sensitivity); got[0] != c.want {
			t.Errorf("sensitivity %v: got %v, want %v", c.sensitivity, got[0], c.want)
		}
	}
}

func undirectedCaps(f lbfamily.Family) [3]bool {
	_, delta := f.(lbfamily.DeltaFamily)
	_, oracle := f.(lbfamily.OracleFamily)
	_, checked := f.(sideChecker)
	return [3]bool{delta, oracle, checked}
}

func directedCaps(f lbfamily.DigraphFamily) [3]bool {
	_, delta := f.(lbfamily.DeltaDigraphFamily)
	_, oracle := f.(lbfamily.DigraphOracleFamily)
	_, checked := f.(sideChecker)
	return [3]bool{delta, oracle, checked}
}

// TestWrapperKeepsCapabilities checks that a wrapped family offers
// exactly the optional interfaces of the family it wraps, so Verify and
// Certify take the same path on both.
func TestWrapperKeepsCapabilities(t *testing.T) {
	c, err := cover.Find(4, 12, 2, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	params := kmdslb.Params{Collection: c, R: 2}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mds, err := mdslb.New(2)
	must(err)
	maxcut, err := maxcutlb.New(2)
	must(err)
	steiner, err := steinerlb.New(2)
	must(err)
	twoMDS, err := kmdslb.NewTwoMDS(params)
	must(err)
	bounded, err := boundedlb.NewFamily(2, 3)
	must(err)
	unweighted, err := apxmaxislb.NewUnweighted(apxmaxislb.Params{K: 2, L: 2, T: 1})
	must(err)
	derived := &lbfamily.DerivedFamily{
		Inner: mds, FamilyName: "derived",
		Transform: func(g *graph.Graph, side []bool) (*graph.Graph, []bool, error) { return g, side, nil },
		Pred:      mds.Predicate,
	}
	for _, f := range []lbfamily.Family{mds, maxcut, steiner, twoMDS, bounded, unweighted, derived} {
		if got, want := undirectedCaps(wrapFamily(f, f.Name(), newRecorder())), undirectedCaps(f); got != want {
			t.Errorf("%s: wrapped capabilities (delta, oracle, checked) = %v, want %v", f.Name(), got, want)
		}
	}
	ham, err := hamlb.New(2)
	must(err)
	cycle, err := hamlb.NewCycle(2)
	must(err)
	dirSteiner, err := kmdslb.NewDirSteiner(params)
	must(err)
	for _, f := range []lbfamily.DigraphFamily{ham, cycle, dirSteiner} {
		if got, want := directedCaps(wrapDigraphFamily(f, f.Name(), newRecorder())), directedCaps(f); got != want {
			t.Errorf("%s: wrapped capabilities (delta, oracle, checked) = %v, want %v", f.Name(), got, want)
		}
	}
}

// TestWrappedVerifyTakesFastPath checks that Verify on a wrapped family
// walks the delta path: its workers toggle bits beyond the 2K toggles of
// the surface check, and every pair goes through the per-worker oracle,
// none through Predicate.
func TestWrappedVerifyTakesFastPath(t *testing.T) {
	light, heavy, err := newVerifyFamilies()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(light, heavy) {
		rec := newRecorder()
		if err := f.verify(rec); err != nil {
			t.Fatalf("%s: %v", f.label, err)
		}
		count := map[string]int{}
		for _, s := range rec.spans {
			count[s.Name]++
		}
		k := 0
		for 1<<k < f.cols {
			k++
		}
		if count["apply"] <= 2*k || count["oracle"] != f.pairs || count["predicate"] != 0 {
			t.Errorf("%s: %d toggles (want > %d), %d oracle calls (want %d), %d Predicate calls (want 0)",
				f.label, count["apply"], 2*k, count["oracle"], f.pairs, count["predicate"])
		}
	}
}

// TestTracedSweepMatchesGolden checks that tracing changes no report
// and that each pair's span splits exactly into its layer times.
func TestTracedSweepMatchesGolden(t *testing.T) {
	for _, target := range []certifyTarget{mdsTarget, hamlbTarget} {
		plain, err := target.newSweep(nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := plain(reduction.Config{Seed: 3, Workers: 2})
		if err := target.checkSweep(rep, err); err != nil {
			t.Fatalf("%s untraced: %v", target.name, err)
		}
		rec := newRecorder()
		traced, err := target.newSweep(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.within("sweep", target.name, func() error {
			rep, err = traced(reduction.Config{Seed: 3, Workers: 2})
			return target.checkSweep(rep, err)
		}); err != nil {
			t.Fatalf("%s traced: %v", target.name, err)
		}
		pairs := 0
		for _, s := range rec.spans {
			if s.Name != "pair" {
				continue
			}
			pairs++
			p := s.Pair
			parts := p.PrepareNS + p.SetupNS + p.InitNS + p.GossipNS + p.FinishNonrootNS + p.FinishRootNS + p.RoundSelfNS + p.DecideNS
			if parts != s.dur() || p.SetupNS < 0 || p.RoundSelfNS < 0 {
				t.Fatalf("%s: pair span of %dns splits into %+v", target.name, s.dur(), *p)
			}
		}
		if pairs != rep.Total {
			t.Errorf("%s: %d pair spans for %d pairs", target.name, pairs, rep.Total)
		}
	}
}

// TestWorkloadsQuick runs every workload, untraced and traced, at smoke
// size through the same code path as a full run. The serve runs also
// drain a server with SIGTERM and require exit code 0.
func TestWorkloadsQuick(t *testing.T) {
	owned := map[string][]string{
		"certify-mds":   {"congest.rounds", "algorithms.gossip_us", "reduction.pairs_per_s_w1"},
		"certify-hamlb": {"dicongest.rounds", "algorithms.finish_nonroot_us", "reduction.shard_efficiency"},
		"verify":        {"lbfamily.verify_ms.steinerlb", "solver.oracle_us.hamlb", "constructions.apply_us.mdslb"},
		"serve":         {"serve.pair_us", "serve.rounds_per_pair.collect-retry", "serve.cache_misses"},
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				if w == "serve" && testing.Short() {
					t.Skip("builds and spawns the hardness binary")
				}
				o := options{workload: w, seed: 5, seconds: 1, trace: trace, workdir: t.TempDir(), quick: true, nproc: 2}
				r, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.result(trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
				}
				names := owned[w]
				if !trace {
					names = nil
					for _, d := range endToEnd {
						names = append(names, d.name)
					}
				}
				for _, name := range names {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
					}
				}
			})
		}
	}
}
