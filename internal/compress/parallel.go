package compress

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/icm"
	"tqec/internal/journal"
	"tqec/internal/obs"
)

// SeedError is one failed simulated-annealing restart: the seed that ran
// and the error its pipeline returned.
type SeedError struct {
	Seed int64
	Err  error
}

func (e SeedError) Error() string { return fmt.Sprintf("seed %d: %v", e.Seed, e.Err) }

// Unwrap exposes the underlying pipeline error to errors.Is/As.
func (e SeedError) Unwrap() error { return e.Err }

// AllSeedsFailedError aggregates the per-seed errors of a CompileBest run
// in which no restart produced a result. Seeds holds one entry per seed
// in the original seed order.
type AllSeedsFailedError struct {
	Seeds []SeedError
}

func (e *AllSeedsFailedError) Error() string {
	msgs := make([]string, len(e.Seeds))
	for i, s := range e.Seeds {
		msgs[i] = s.Error()
	}
	return fmt.Sprintf("compress: all %d seeds failed: %s", len(e.Seeds), strings.Join(msgs, "; "))
}

// Unwrap exposes every per-seed error to errors.Is/As (so a caller can
// still detect, say, context.DeadlineExceeded behind the aggregation).
func (e *AllSeedsFailedError) Unwrap() []error {
	errs := make([]error, len(e.Seeds))
	for i, s := range e.Seeds {
		errs[i] = s
	}
	return errs
}

// CompileBestContext runs the pipeline once per seed, in parallel, and
// returns the result with the smallest final volume (ties broken by the
// earliest seed, so the output is deterministic). Every run is fully
// independent — simulated-annealing restarts are the classic defence
// against local minima, which the paper inherits from Paetznick &
// Fowler's SA-based compaction.
//
// parallel bounds the number of concurrent runs; 0 selects GOMAXPROCS.
//
// Failed seeds do not sink the compile as long as at least one seed
// succeeds: the best surviving result is returned with Result.SeedsTried
// and Result.SeedErrors recording the partial failures. When every seed
// fails the returned error is an *AllSeedsFailedError aggregating the
// per-seed causes. Cancellation stops every in-flight seed at its next
// iteration boundary and the context's error is returned directly (not
// wrapped in an aggregate).
func CompileBestContext(ctx context.Context, c *circuit.Circuit, opt Options, seeds []int64, parallel int) (*Result, error) {
	return bestOf(ctx, seeds, parallel, func(ctx context.Context, seed int64) (*Result, error) {
		runOpt := opt
		runOpt.Seed = seed
		return CompileContext(ctx, c, runOpt)
	})
}

// CompileBestICMContext is CompileBestContext over a pre-built ICM
// representation. The representation is read-only across the pipeline,
// so the runs may share it.
func CompileBestICMContext(ctx context.Context, rep *icm.Rep, name string, opt Options, seeds []int64, parallel int) (*Result, error) {
	return bestOf(ctx, seeds, parallel, func(ctx context.Context, seed int64) (*Result, error) {
		runOpt := opt
		runOpt.Seed = seed
		return CompileICMContext(ctx, rep, name, runOpt, time.Time{}, nil)
	})
}

// bestOf fans one compile per seed across a bounded worker set and picks
// the smallest-volume success.
func bestOf(ctx context.Context, seeds []int64, parallel int, run func(context.Context, int64) (*Result, error)) (*Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("compress: no seeds")
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	type outcome struct {
		res *Result
		err error
	}
	results := make([]outcome, len(seeds))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Each restart gets its own span so a traced multi-seed sweep
			// shows the parallel pipelines side by side, and its seed
			// attribute stamps every journal event emitted beneath it; with
			// nothing observing ctx this is a nil no-op.
			sp, runCtx := obs.StartSpan(ctx, fmt.Sprintf("seed-%d", seed))
			sp.SetAttr("seed", seed)
			res, err := run(runCtx, seed)
			if err != nil {
				obs.Warn(runCtx, "seed-failed", err.Error())
			} else {
				sp.SetAttr("volume", res.Volume)
			}
			sp.End()
			results[i] = outcome{res: res, err: err}
		}(i, seed)
	}
	wg.Wait()
	var best *Result
	var failed []SeedError
	for i, o := range results {
		if o.err != nil {
			failed = append(failed, SeedError{Seed: seeds[i], Err: o.err})
			continue
		}
		if best == nil || o.res.Volume < best.Volume {
			best = o.res
		}
	}
	if best == nil {
		// Cancellation surfaces as-is: the per-seed errors would all just
		// restate ctx's error with less precision.
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("compress: %w", err)
		}
		return nil, &AllSeedsFailedError{Seeds: failed}
	}
	sort.Slice(failed, func(a, b int) bool { return failed[a].Seed < failed[b].Seed })
	// Each failed seed warned under its own seed span; the winning
	// restart's journal document collects those warnings too, so -explain
	// shows them beside the waterfall.
	if best.Journal != nil {
		for _, se := range failed {
			best.Journal.Warnings = append(best.Journal.Warnings,
				journal.Warning{Code: "seed-failed", Message: se.Err.Error(), Seed: se.Seed})
		}
	}
	best.SeedsTried = len(seeds)
	best.SeedErrors = failed
	return best, nil
}
