package lbfamily

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"congesthard/internal/comm"
)

// DeltaSource is the incremental instance surface of DeltaFamily and
// DeltaDigraphFamily for their graph kind G.
type DeltaSource[G any] interface {
	K() int
	BuildBase() (G, error)
	ApplyBit(g G, player, bit int, val bool) error
}

// Sweep is the one sweep engine behind Verify, VerifyDigraph and the
// reduction package's Certify and CertifyDigraph, generic over the graph
// kind G (*graph.Graph or *graph.Digraph). The pairs are laid out
// as Cols columns of Rows pairs; workers claim whole columns from an
// atomic counter and walk each in order. With Delta set, every worker
// holds a private instance — BuildBase once, a Clone for each further
// worker — and moves it from pair to pair by ApplyBit toggles of only the
// bits that differ; otherwise each pair is built from scratch with Build.
//
// Failures are ordered by the caller's report order: each pair carries a
// key, and a pair whose key is later than the earliest failure so far is
// skipped (its instance still toggles along). Panics in BuildBase, Clone,
// ApplyBit, Build and Visit are confined to a *PanicError naming the pair.
// A delta instance that failed to toggle is out of step, so its worker
// stops; the rest of its column goes unvisited. The engine has no policy
// beyond that: the caller decides what a failure means.
type Sweep[G interface{ Clone() G }] struct {
	// Cols and Rows shape the sweep: Cols*Rows pairs, keyed 0..Cols*Rows-1.
	Cols, Rows int
	// Pair returns the r-th pair of column c in walk order and its key.
	Pair func(c, r int) (x, y comm.Bits, key int)
	// Workers is the worker goroutine count; see SweepWorkers.
	Workers int
	// Delta selects the delta path; nil rebuilds every pair with Build.
	Delta DeltaSource[G]
	Build func(x, y comm.Bits) (G, error)
	// Visit processes one pair on worker w's instance g; an error marks
	// the pair failed.
	Visit func(w, key int, g G, x, y comm.Bits) error
	// Progress, if non-nil, is called after every pair Visit accepted,
	// with the accepted count and the total; calls are serialized and
	// the count strictly increases.
	Progress func(completed, total int)
}

// SweepResult is the outcome of one Sweep.Run.
type SweepResult struct {
	// First is the key of the earliest failed pair, or -1; Err is its
	// error.
	First int
	Err   error
	// Visited counts the pairs whose outcome is known: built (or
	// toggled to) and visited, accepted or not. It falls short of the
	// total only under cancellation or after a failure.
	Visited int
	// Broken reports that a delta instance failed to build or toggle.
	Broken bool
}

// SweepWorkers returns the worker count for a sweep of cols columns:
// requested when positive, else GOMAXPROCS, capped at one per column.
func SweepWorkers(requested, cols int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return max(1, min(requested, cols))
}

// sweepState is the state the workers of one Run share.
type sweepState struct {
	nextCol atomic.Int64
	// minKey mirrors first for lock-free skip checks.
	minKey  atomic.Int64
	visited atomic.Int64
	broken  atomic.Bool

	mu        sync.Mutex
	first     int
	err       error
	completed int
}

// fail records a failed pair, keeping the earliest by key.
func (st *sweepState) fail(key int, err error) {
	st.mu.Lock()
	if key < st.first {
		st.first, st.err = key, err
		st.minKey.Store(int64(key))
	}
	st.mu.Unlock()
}

// Run sweeps every pair, or until ctx fires: workers then stop claiming
// pairs and the in-flight ones finish, so every visited pair is complete.
func (s *Sweep[G]) Run(ctx context.Context) SweepResult {
	total := s.Cols * s.Rows
	st := &sweepState{first: total}
	st.minKey.Store(int64(total))
	instances := make([]G, s.Workers)
	if s.Delta != nil && total > 0 {
		if err := s.instances(instances); err != nil {
			st.broken.Store(true)
			st.fail(0, err)
			return st.result(total)
		}
	}
	var wg sync.WaitGroup
	for w := range instances {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(ctx, w, instances[w], st)
		}()
	}
	wg.Wait()
	return st.result(total)
}

func (st *sweepState) result(total int) SweepResult {
	res := SweepResult{First: -1, Visited: int(st.visited.Load()), Broken: st.broken.Load()}
	if st.first < total {
		res.First, res.Err = st.first, st.err
	}
	return res
}

// instances fills gs with the workers' delta instances: one BuildBase,
// then a Clone per further worker, cheaper than rebuilding the skeleton.
// A panic names the all-zeros pair the base instance stands for.
func (s *Sweep[G]) instances(gs []G) (err error) {
	zero := comm.NewBits(s.Delta.K())
	defer confine(zero, zero, &err)
	base, err := s.Delta.BuildBase()
	if err != nil {
		return fmt.Errorf("delta base build: %w", err)
	}
	gs[0] = base
	for w := 1; w < len(gs); w++ {
		gs[w] = base.Clone()
	}
	return nil
}

// worker claims columns until none remain or ctx fires.
//
//hardness:hotpath
func (s *Sweep[G]) worker(ctx context.Context, w int, g G, st *sweepState) {
	var curX, curY comm.Bits
	if s.Delta != nil {
		curX, curY = comm.NewBits(s.Delta.K()), comm.NewBits(s.Delta.K())
	}
	total := s.Cols * s.Rows
	for {
		c := int(st.nextCol.Add(1) - 1)
		if c >= s.Cols || ctx.Err() != nil {
			return
		}
		for r := 0; r < s.Rows; r++ {
			if ctx.Err() != nil {
				return
			}
			x, y, key := s.Pair(c, r)
			if s.Delta != nil {
				if err := s.toggle(g, curX, curY, x, y); err != nil {
					st.broken.Store(true)
					st.fail(key, err)
					return
				}
			}
			if int64(key) > st.minKey.Load() {
				continue // a pair earlier in report order already failed
			}
			inst := g
			var err error
			if s.Delta == nil {
				inst, err = s.build(x, y)
			}
			if err == nil {
				err = s.visit(w, key, inst, x, y)
			}
			st.visited.Add(1)
			if err != nil {
				st.fail(key, err)
				continue
			}
			if s.Progress != nil {
				st.mu.Lock()
				st.completed++
				s.Progress(st.completed, total)
				st.mu.Unlock()
			}
		}
	}
}

// toggle moves a delta instance from (curX, curY) to (x, y).
func (s *Sweep[G]) toggle(g G, curX, curY, x, y comm.Bits) (err error) {
	defer confine(x, y, &err)
	if err := s.applyDiff(g, PlayerY, curY, y); err != nil {
		return fmt.Errorf("delta apply y at (%s,%s): %w", x, y, err)
	}
	if err := s.applyDiff(g, PlayerX, curX, x); err != nil {
		return fmt.Errorf("delta apply x at (%s,%s): %w", x, y, err)
	}
	return nil
}

// applyDiff applies the bits of one player on which cur and target
// differ, updating cur as it goes.
func (s *Sweep[G]) applyDiff(g G, player int, cur, target comm.Bits) error {
	var applyErr error
	cur.ForEachDiff(target, func(i int) bool {
		if applyErr = s.Delta.ApplyBit(g, player, i, target.Get(i)); applyErr != nil {
			return false
		}
		cur.Set(i, target.Get(i))
		return true
	})
	return applyErr
}

func (s *Sweep[G]) build(x, y comm.Bits) (g G, err error) {
	defer confine(x, y, &err)
	return s.Build(x, y)
}

func (s *Sweep[G]) visit(w, key int, g G, x, y comm.Bits) (err error) {
	defer confine(x, y, &err)
	return s.Visit(w, key, g, x, y)
}

// confine, deferred, turns a panic into a *PanicError naming (x, y).
func confine(x, y comm.Bits, err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{X: x.Clone(), Y: y.Clone(), Value: r, Stack: debug.Stack()}
	}
}
