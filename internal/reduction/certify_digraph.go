package reduction

import (
	"context"
	"fmt"

	"congesthard/internal/dicongest"
	"congesthard/internal/graph"
	"congesthard/internal/lbfamily"
)

// DigraphAlgorithm is a CONGEST algorithm for directed instances, paired
// with a family predicate — the dicongest twin of Algorithm.
type DigraphAlgorithm struct {
	// Name identifies the algorithm in reports, e.g. "collect".
	Name string
	// Exact declares that the algorithm decides P exactly; CertifyDigraph
	// flags the declaration against the measured mismatch count.
	Exact bool
	// Prepare is called once per (x, y) pair with the instance digraph,
	// the run's bandwidth and the pair's seed. The returned factory must
	// be deterministic given (d, seed) — transcript replay re-executes it.
	Prepare func(d *graph.Digraph, bandwidth int, seed int64) (dicongest.Factory, func(*dicongest.Result) (bool, error), error)
}

// CertifyDigraph is Certify for directed families: the same sweep, the
// same per-pair seeds and the same report, with the arc cut metered by
// dicongest. Families implementing lbfamily.DeltaDigraphFamily whose
// delta passes the consistency gate give each worker a private instance
// walked by ApplyBit arc toggles, with the out-adjacency Freeze
// snapshot spliced in place between runs.
func CertifyDigraph(fam lbfamily.DigraphFamily, alg DigraphAlgorithm, cfg Config) (*Report, error) {
	return CertifyDigraphCtx(context.Background(), fam, alg, cfg)
}

// CertifyDigraphCtx is CertifyDigraph with cancellation and panic
// confinement, exactly as in CertifyCtx.
func CertifyDigraphCtx(ctx context.Context, fam lbfamily.DigraphFamily, alg DigraphAlgorithm, cfg Config) (*Report, error) {
	if alg.Prepare == nil {
		return nil, fmt.Errorf("algorithm %q has no Prepare", alg.Name)
	}
	stats := func() (lbfamily.Stats, error) { return lbfamily.MeasureDigraphStats(fam) }
	return certify(ctx, fam, stats, alg.Name, alg.Exact, cfg, simulator(alg.Prepare, dicongest.Run, VerifyDigraphSimulation))
}
