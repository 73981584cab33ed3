package reduction

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/faults"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
	"congesthard/internal/obs"
)

// Algorithm is a CONGEST algorithm paired with a family predicate: Prepare
// builds the node programs for one instance graph and an extractor that
// turns the finished run into the algorithm's yes/no decision for P.
type Algorithm struct {
	// Name identifies the algorithm in reports, e.g. "collect".
	Name string
	// Exact declares that the algorithm decides P exactly; Certify flags
	// the declaration against the measured mismatch count.
	Exact bool
	// Prepare is called once per (x, y) pair with the instance graph, the
	// run's bandwidth and the pair's seed. The returned factory must be
	// deterministic given (g, seed) — transcript replay re-executes it.
	Prepare func(g *graph.Graph, bandwidth int, seed int64) (congest.Factory, func(*congest.Result) (bool, error), error)
}

// MaxExhaustiveCertifyK is the largest input length K for exhaustive
// certification: all 2^(2K) pairs are simulated, so the cap bounds the
// worst case at 65536 CONGEST runs. The sweep amortizes that over
// GOMAXPROCS workers holding reused instances and arenas (per-pair cost
// is one delta toggle plus one arena-backed run), which is what lifted
// the cap from the single-goroutine era's K = 6. It is shared by Certify
// and CertifyDigraph; beyond it, set Config.Pairs > 0 for sampled
// certification, whose cost scales with Pairs/Workers instead of
// 2^(2K)/Workers.
const MaxExhaustiveCertifyK = 8

// Config tunes Certify and CertifyDigraph. The zero value selects the
// exhaustive sweep: all 2^(2K) pairs, GOMAXPROCS workers, seed 0,
// the default bandwidth, no faults and no transcript checks.
type Config struct {
	// Pairs is the number of sampled (x, y) pairs; 0 selects exhaustive
	// certification over all 2^(2K) pairs, which requires
	// K <= MaxExhaustiveCertifyK.
	Pairs int
	// Seed drives pair sampling and the per-pair algorithm seeds. A
	// pair's seed is a pure function of (Seed, idx), where idx is the
	// pair's position in the canonical sweep order — never of the worker
	// that happens to claim it — so the same Config produces bit-identical
	// reports at any worker count.
	Seed int64
	// Bandwidth overrides the CONGEST bandwidth B (0 selects the default
	// 2*ceil(log2(n+1))).
	Bandwidth int
	// ForceRebuild disables the DeltaFamily incremental instance builder,
	// rebuilding every G_{x,y} from scratch (the differential-testing
	// reference path).
	ForceRebuild bool
	// TranscriptChecks runs the Theorem 1.1 simulation-invariant check
	// (VerifySimulation) on that many of the certified pairs: the run is
	// replayed from Alice's side plus the recorded transcript and must
	// reproduce her outputs and messages exactly. The checked pairs are
	// the first TranscriptChecks positions of the canonical sweep order,
	// so the same pairs are checked regardless of worker scheduling.
	TranscriptChecks int
	// Faults injects a deterministic fault plan into every certified run
	// (dropped, delayed or failed links, crashed nodes — see the faults
	// package). Faults act after the sender's messages are validated and
	// metered, so the Theorem 1.1 cut accounting and transcript replay are
	// preserved; nil runs fault-free.
	Faults *faults.Plan
	// MaxRounds overrides the simulators' runaway guard (0 keeps their
	// default 4n²+64). Retransmitting algorithms bake a larger round
	// budget into their programs — see algorithms.CollectRetryRoundsCap
	// for the collect-retry value.
	MaxRounds int
	// Progress, if non-nil, is called after every certified pair with the
	// completed and total pair counts — the hook the serving layer uses
	// to poll and stream per-pair job progress. It is called from worker
	// goroutines, but calls are serialized and completed is strictly
	// increasing, so the hook itself needs no locking; keep it cheap and
	// non-blocking, since it runs under the sweep's lock.
	Progress func(completed, total int)
	// Trace, if non-nil, is consulted before each pair's CONGEST run
	// with the pair's canonical index and inputs; the returned tracer
	// (the congest.Tracer interface both simulators share) observes
	// that run's rounds, and returning nil skips tracing the pair.
	// Purely observational: reports are bit-identical with or without
	// it. Tracers of different pairs run concurrently from worker
	// goroutines — set Workers to 1 for a strictly ordered round stream.
	// Transcript-checked pairs replay the run, so their rounds are
	// observed twice; set TranscriptChecks to 0 for clean traces.
	Trace func(idx int, x, y comm.Bits) congest.Tracer
	// Metrics, if non-nil, receives per-pair measurements as pairs
	// complete: wall-clock latency, simulated rounds and cut bits land
	// in the bundle's histograms (see obs.SweepMetrics). Purely
	// observational and safe across workers (the histograms are
	// atomic). This is the one place certification reads the wall clock,
	// and the reading never feeds results — only histograms.
	Metrics *obs.SweepMetrics
	// Workers caps the sweep's worker count; 0 selects GOMAXPROCS. Each
	// worker holds a private instance (a DeltaFamily base clone, or
	// per-pair rebuilds) and a private simulator arena, so memory scales
	// linearly with Workers. One worker walks the pairs strictly in
	// canonical order.
	Workers int
}

// PairReport is the measured outcome of one (x, y) certification run:
// the pair's inputs (cloned, safe to retain), the run's round and
// message counts, the Alice/Bob cut traffic that enters the Theorem 1.1
// budget, and the algorithm's output against the family predicate's
// ground truth. Every PairReport in a returned Report — including a
// partial one — is fully populated; there are no placeholder entries.
type PairReport struct {
	X, Y        comm.Bits
	Rounds      int
	Messages    int64
	CutMessages int64
	CutBits     int64
	Output      bool
	Want        bool
	Correct     bool
}

// Report aggregates a certification: per-pair measurements plus the
// Theorem 1.1 accounting. SimBits = 2·maxRounds·B·|E_cut| is the protocol
// budget the slowest run grants the two-party simulation; CCBound is the
// known deterministic communication complexity of the family's function at
// input length K (0 if the function is not in the known table). An exact
// algorithm must satisfy SimBits >= CCBound — that inequality is the lower
// bound.
type Report struct {
	Family     string
	Algorithm  string
	Exact      bool
	Exhaustive bool
	Stats      lbfamily.Stats
	Bandwidth  int
	Pairs      []PairReport
	Mismatches int
	MaxRounds  int
	MaxCutBits int64
	SimBits    int64
	CCBound    float64
	// Completed and Total count certified vs selected pairs; Completed ==
	// len(Pairs) always, and Completed == Total exactly when the sweep
	// finished. They differ only in a partial report, which arrives
	// alongside a non-nil error and comes in two shapes:
	//
	//   - *lbfamily.PanicError: Pairs is the exact canonical-order prefix
	//     preceding the panicked pair (later pairs that finished on
	//     other workers are discarded);
	//   - *lbfamily.CancelledError: Pairs holds the pairs certified
	//     before ctx fired, in canonical order; with several workers the
	//     set may have gaps (workers stop mid-column), but the error's
	//     Completed/Total always agree with len(Pairs)/Total.
	//
	// The aggregate fields (Mismatches, MaxRounds, MaxCutBits, SimBits)
	// are computed over the included pairs only.
	Completed int
	Total     int
}

// Certify runs alg over (x, y) input pairs of fam — exhaustively when
// cfg.Pairs == 0 (K <= MaxExhaustiveCertifyK), sampled otherwise — with
// the Alice/Bob cut metered, and reports per-pair {rounds, cut traffic,
// output, correct} plus the aggregate rounds·B·|E_cut| budget against
// CC(f). The pairs run through lbfamily's sweep engine, one Gray-code
// column per claim, across cfg.Workers workers (GOMAXPROCS by default):
// for families implementing lbfamily.DeltaFamily whose delta passes the
// consistency gate (lbfamily.GatedDelta) each worker holds a private
// instance (BuildBase once, Clone per further worker) walked by ApplyBit
// toggles (Hamming distance 1 between consecutive pairs of a
// column), which splice the instance's Freeze snapshot in place, with a
// reused simulator arena, so steady-state allocations per pair are near
// zero; other families rebuild each claimed G_{x,y} from
// scratch, as every family does with cfg.ForceRebuild. Per-pair seeds are keyed by canonical pair index, so the
// report is bit-identical at any worker count.
func Certify(fam lbfamily.Family, alg Algorithm, cfg Config) (*Report, error) {
	return CertifyCtx(context.Background(), fam, alg, cfg)
}

// CertifyCtx is Certify with cancellation and panic confinement: when
// ctx fires mid-sweep, workers stop claiming pairs and the partial
// report (the certified pairs, in canonical order) is returned alongside
// a *lbfamily.CancelledError whose Completed/Total match the report; a
// panic inside one pair — in the algorithm, or in the family's Build or
// ApplyBit — is confined and returned as a *lbfamily.PanicError naming
// the earliest failing (x, y) pair in canonical order, with the report
// truncated to that pair's prefix. See Report for the partial-report
// invariants.
func CertifyCtx(ctx context.Context, fam lbfamily.Family, alg Algorithm, cfg Config) (*Report, error) {
	if alg.Prepare == nil {
		return nil, fmt.Errorf("algorithm %q has no Prepare", alg.Name)
	}
	stats := func() (lbfamily.Stats, error) { return lbfamily.MeasureStats(fam) }
	return certify(ctx, fam, stats, alg.Name, alg.Exact, cfg, simulator(alg.Prepare, congest.Run, VerifySimulation))
}

// simulate is the one graph-kind-specific step of a certification: it
// prepares the algorithm on a worker's instance g with the pair's seed,
// runs it on the worker's arena under opts — replaying the transcript
// when replay is set — and decides. On failure it names the failing
// stage ("prepare", "run" or "decide").
type simulate[G any] func(g G, seed int64, replay bool, opts congest.Options) (congest.Metrics, bool, string, error)

// simulator returns the simulator constructor of one graph kind G, whose
// programs F the algorithm's prepare builds: run is the kind's simulator
// (congest.Run or dicongest.Run) and check its transcript replay
// (VerifySimulation or VerifyDigraphSimulation). Each simulator it makes
// owns an arena.
func simulator[G, F any](prepare func(g G, bandwidth int, seed int64) (F, func(*congest.Result) (bool, error), error),
	run func(g G, factory F, opts congest.Options) (*congest.Result, error),
	check func(g G, side []bool, factory F, opts congest.Options) (*TwoPartyTranscript, *congest.Result, error)) func() simulate[G] {
	return func() simulate[G] {
		arena := &congest.Arena{}
		return func(g G, seed int64, replay bool, opts congest.Options) (congest.Metrics, bool, string, error) {
			factory, decide, err := prepare(g, opts.BandwidthBits, seed)
			if err != nil {
				return congest.Metrics{}, false, "prepare", err
			}
			opts.Arena = arena
			var res *congest.Result
			if replay {
				_, res, err = check(g, opts.CutSide, factory, opts)
			} else {
				res, err = run(g, factory, opts)
			}
			if err != nil {
				return congest.Metrics{}, false, "run", err
			}
			output, err := decide(res)
			return res.Metrics, output, "decide", err
		}
	}
}

// family is the part of Family and DigraphFamily a certification reads.
type family[G any] interface {
	Name() string
	K() int
	Func() comm.Function
	Build(x, y comm.Bits) (G, error)
	AliceSide() []bool
}

// certify is the one certification body behind CertifyCtx and
// CertifyDigraphCtx. newSim makes a worker's simulator, with its own
// arena, on the worker's first pair.
func certify[G lbfamily.Instance[G]](ctx context.Context, fam family[G], stats func() (lbfamily.Stats, error),
	name string, exact bool, cfg Config, newSim func() simulate[G]) (*Report, error) {
	side, err := lbfamily.AliceSideOf(fam)
	if err != nil {
		return nil, fmt.Errorf("alice side: %w", err)
	}
	st, err := stats()
	if err != nil {
		return nil, err
	}
	if len(side) != st.N {
		return nil, fmt.Errorf("AliceSide has %d entries for %d vertices", len(side), st.N)
	}
	bandwidth := cfg.Bandwidth
	if bandwidth == 0 {
		bandwidth = congest.DefaultBandwidth(st.N)
	}
	xs, ys, exhaustive, err := certifyPairs(fam.K(), cfg)
	if err != nil {
		return nil, err
	}
	report := &Report{
		Family:     fam.Name(),
		Algorithm:  name,
		Exact:      exact,
		Exhaustive: exhaustive,
		Stats:      st,
		Bandwidth:  bandwidth,
		Pairs:      make([]PairReport, len(xs)),
		Total:      len(xs),
	}
	f := fam.Func()

	// A column is a contiguous block of the canonical list: one fixed-y
	// Gray column of 2^K pairs for exhaustive sweeps, a single pair for
	// sampled ones.
	rows := 1
	if exhaustive {
		rows = 1 << uint(fam.K())
	}
	sims := make([]simulate[G], lbfamily.SweepWorkers(cfg.Workers, len(xs)/rows))
	sw := lbfamily.Sweep[G]{
		Cols: len(xs) / rows, Rows: rows, Workers: len(sims),
		Pair: func(c, r int) (comm.Bits, comm.Bits, int) {
			idx := c*rows + r
			return xs[idx], ys[idx], idx
		},
		Build: func(x, y comm.Bits) (G, error) {
			g, err := fam.Build(x, y)
			if err != nil {
				err = fmt.Errorf("build (%s,%s): %w", x, y, err)
			}
			return g, err
		},
		// The transcript-checked pairs are the first cfg.TranscriptChecks
		// canonical indices — a pure function of idx, not of visit order.
		Visit: func(w, idx int, g G, x, y comm.Bits) error {
			opts := congest.Options{BandwidthBits: bandwidth, MaxRounds: cfg.MaxRounds, CutSide: side, Faults: cfg.Faults}
			if cfg.Trace != nil {
				opts.Trace = cfg.Trace(idx, x, y)
			}
			var started time.Time
			if cfg.Metrics != nil {
				started = time.Now() //nolint:hardlint/detrand wall-clock feeds observability histograms only, never certification results
			}
			if sims[w] == nil {
				sims[w] = newSim()
			}
			m, output, stage, err := sims[w](g, pairSeed(cfg.Seed, idx), idx < cfg.TranscriptChecks, opts)
			if err != nil {
				return fmt.Errorf("%s (%s,%s): %w", stage, x, y, err)
			}
			if cfg.Metrics != nil {
				cfg.Metrics.ObservePair(time.Since(started).Seconds(), int64(m.Rounds), m.CutBits) //nolint:hardlint/detrand wall-clock feeds observability histograms only, never certification results
			}
			want := f.Eval(x, y)
			report.Pairs[idx] = PairReport{
				X: x.Clone(), Y: y.Clone(),
				Rounds:      m.Rounds,
				Messages:    m.Messages,
				CutMessages: m.CutMessages,
				CutBits:     m.CutBits,
				Output:      output,
				Want:        want,
				Correct:     output == want,
			}
			return nil
		},
		Progress: cfg.Progress,
	}
	if !cfg.ForceRebuild {
		sw.Delta = lbfamily.GatedDelta(fam, side)
	}
	return resolve(report, sw.Run(ctx), ctx.Err(), f)
}

// resolve converts a finished sweep into the report/error contract:
//
//   - every pair certified → the finalized complete report;
//   - an earliest failure whose predecessors all completed (always so
//     unless ctx fired) → a *lbfamily.PanicError with the report
//     truncated to the pairs before it, or a plain error alone with no
//     report; later pairs that happened to finish are discarded;
//   - a cancelled sweep → the certified pairs compacted in canonical
//     order plus a *lbfamily.CancelledError whose Completed matches
//     len(Pairs). A sweep that finished every pair before the context
//     fired is complete, not cancelled.
func resolve(report *Report, res lbfamily.SweepResult, ctxErr error, f comm.Function) (*Report, error) {
	certified := func(idx int) bool { return report.Pairs[idx].X.Len() > 0 }
	if res.First >= 0 {
		prefix := true
		for idx := 0; idx < res.First && prefix; idx++ {
			prefix = certified(idx)
		}
		if prefix || ctxErr == nil {
			var perr *lbfamily.PanicError
			if !errors.As(res.Err, &perr) {
				return nil, res.Err
			}
			report.Pairs = report.Pairs[:res.First]
			report.Completed = res.First
			report.finalize(f)
			return report, res.Err
		}
	}
	done := 0
	for idx := range report.Pairs {
		if certified(idx) {
			report.Pairs[done] = report.Pairs[idx]
			done++
		}
	}
	report.Pairs = report.Pairs[:done]
	report.Completed = done
	report.finalize(f)
	if ctxErr != nil && done < report.Total {
		return report, &lbfamily.CancelledError{Completed: done, Total: report.Total, Err: ctxErr}
	}
	return report, nil
}

// finalize computes the aggregate Theorem 1.1 accounting from the
// recorded pairs: mismatch count, worst rounds/cut-bits, the
// 2·T·B·|E_cut| simulation budget and the known CC(f) bound. Shared by
// Certify and CertifyDigraph — the accounting is graph-kind agnostic.
func (r *Report) finalize(f comm.Function) {
	for i := range r.Pairs {
		p := &r.Pairs[i]
		if !p.Correct {
			r.Mismatches++
		}
		if p.Rounds > r.MaxRounds {
			r.MaxRounds = p.Rounds
		}
		if p.CutBits > r.MaxCutBits {
			r.MaxCutBits = p.CutBits
		}
	}
	r.SimBits = 2 * int64(r.MaxRounds) * int64(r.Bandwidth) * int64(r.Stats.CutSize)
	if cc, ok := comm.KnownDeterministicCC(f, r.Stats.K); ok {
		r.CCBound = cc
	}
}

// certifyPairs selects the certified input pairs: the full 2^(2K) cube in
// Gray-friendly row-major order when cfg.Pairs == 0, otherwise the two
// corner pairs plus deduplicated random draws up to cfg.Pairs total.
func certifyPairs(k int, cfg Config) (xs, ys []comm.Bits, exhaustive bool, err error) {
	if cfg.Pairs <= 0 {
		if k > MaxExhaustiveCertifyK {
			return nil, nil, false, fmt.Errorf("exhaustive certification limited to K <= %d, got %d: 2^(2K) CONGEST runs exceed the sweep's budget even across all cores; set Config.Pairs > 0 for sampled certification, which costs Pairs runs instead", MaxExhaustiveCertifyK, k)
		}
		var inputs []comm.Bits
		if err := comm.AllBits(k, func(b comm.Bits) { inputs = append(inputs, b.Clone()) }); err != nil {
			return nil, nil, false, err
		}
		// Gray order over y in the outer walk and over x within each y
		// column keeps consecutive pairs cheap for the DeltaFamily
		// builder: Hamming distance 1 within a column, and at each
		// column boundary one y bit plus the x jump from the last Gray
		// element back to zero (applyDiff handles any distance).
		for yi := range inputs {
			y := inputs[yi^(yi>>1)]
			for xi := range inputs {
				xs = append(xs, inputs[xi^(xi>>1)])
				ys = append(ys, y)
			}
		}
		return xs, ys, true, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zero, ones := comm.NewBits(k), comm.OnesBits(k)
	seen := map[string]bool{}
	add := func(x, y comm.Bits) {
		key := x.String() + "|" + y.String()
		if !seen[key] {
			seen[key] = true
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	add(zero, zero)
	add(ones, ones)
	// Stop early once every distinct pair has been drawn (the 2^(2k)
	// pair space can be smaller than the request).
	space := -1
	if 2*k < 63 {
		space = 1 << uint(2*k)
	}
	for attempts := 0; len(xs) < cfg.Pairs && len(xs) != space && attempts < 64*cfg.Pairs; attempts++ {
		add(comm.RandomBits(k, rng), comm.RandomBits(k, rng))
	}
	return xs, ys, false, nil
}

// splitmix64 is the package's shared bit mixer, used for per-pair seeds
// and shared-randomness sampling coins.
func splitmix64(x uint64) uint64 {
	z := x + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pairSeed derives the per-pair algorithm seed, independent of the visit
// order.
func pairSeed(seed int64, idx int) int64 {
	return int64(splitmix64(uint64(seed) ^ splitmix64(uint64(idx))))
}
