// Package anneal provides the seeded simulated-annealing engine used by
// the 2.5-D module placement stage (paper §3.5). It is deliberately
// generic: problems expose a cost, an in-place perturbation with undo, and
// snapshot/restore for best-solution tracking.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"tqec/internal/obs"
)

// Problem is an annealable optimization state.
type Problem interface {
	// Cost evaluates the current state (lower is better).
	Cost() float64
	// Perturb applies a random move in place and returns an undo function.
	// Returning a nil undo means the move was a no-op. An undo may read
	// state the problem keeps for its last move, so it is valid only until
	// the next Perturb.
	Perturb(rng *rand.Rand) (undo func())
	// Snapshot captures the current state for later Restore.
	Snapshot() any
	// Restore reinstates a snapshot taken from the same problem.
	Restore(snapshot any)
}

// Options tunes the annealing run. Zero values select defaults.
type Options struct {
	Seed     int64
	MaxMoves int // hard move budget; default 50_000
}

func (o Options) withDefaults() Options {
	if o.MaxMoves <= 0 {
		o.MaxMoves = 50_000
	}
	return o
}

// The geometric schedule: it starts at initialTempFactor × the initial
// cost (+1, the classic rule of thumb), cools by the factor cooling per
// temperature step and ends below finalTempRatio × the start.
const (
	initialTempFactor = 0.3
	finalTempRatio    = 1e-3
	cooling           = 0.93
	// tempSteps ≈ ln(finalTempRatio)/ln(cooling): movesPerTemp spreads
	// the move budget across the schedule, so MaxMoves is the
	// effective knob.
	tempSteps = 95
)

// Result reports the annealing run.
type Result struct {
	InitialCost float64
	BestCost    float64
	Moves       int
	Accepted    int
	Uphill      int
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("anneal: %.1f -> %.1f in %d moves (%d accepted, %d uphill)",
		r.InitialCost, r.BestCost, r.Moves, r.Accepted, r.Uphill)
}

// ctxCheckEvery is how many accepted-or-rejected moves pass between
// context polls. One poll per move would be prompt but wasteful; a small
// batch keeps the cancellation latency at a handful of cost evaluations.
const ctxCheckEvery = 64

// RunContext anneals the problem, polling ctx at move-batch boundaries.
// On cancellation (or deadline) it restores the best state found so far
// and returns the partial result together with ctx's error, so callers
// can distinguish a completed schedule from an interrupted one. The
// context polls never touch the random stream, so an uninterrupted run
// depends on the seed alone.
//
// Every temperature epoch, including one cut short by cancellation, is
// one "anneal-epoch" obs span carrying the epoch index, the temperature
// and the epoch's attempted/accepted move counts; a journal reads its end
// as a progress heartbeat. The probe is consulted once per epoch, never
// per move, and reads no randomness, so an observed run is bit-identical
// to an unobserved one.
func RunContext(ctx context.Context, p Problem, opt Options) (Result, error) {
	cur := p.Cost()
	opt = opt.withDefaults()
	initialTemp := initialTempFactor*cur + 1
	finalTemp := initialTemp * finalTempRatio
	movesPerTemp := opt.MaxMoves/tempSteps + 1
	rng := rand.New(rand.NewSource(opt.Seed))

	res := Result{InitialCost: cur, BestCost: cur}
	best := p.Snapshot()

	var err error
	epoch := 0
	for temp := initialTemp; temp > finalTemp && res.Moves < opt.MaxMoves; temp *= cooling {
		if err = ctx.Err(); err != nil {
			break
		}
		epoch++
		moves, accepted := res.Moves, res.Accepted
		sp, _ := obs.StartSpan(ctx, "anneal-epoch")
		for i := 0; i < movesPerTemp && res.Moves < opt.MaxMoves; i++ {
			undo := p.Perturb(rng)
			if undo == nil {
				continue
			}
			res.Moves++
			if res.Moves%ctxCheckEvery == 0 {
				if err = ctx.Err(); err != nil {
					break
				}
			}
			next := p.Cost()
			delta := next - cur
			accept := delta <= 0 || rng.Float64() < math.Exp(-delta/temp)
			if !accept {
				undo()
				continue
			}
			res.Accepted++
			if delta > 0 {
				res.Uphill++
			}
			cur = next
			if cur < res.BestCost {
				res.BestCost = cur
				best = p.Snapshot()
			}
		}
		if sp != nil {
			sp.SetAttr("epoch", epoch)
			sp.SetAttr("temp", temp)
			sp.SetAttr("moves", res.Moves-moves)
			sp.SetAttr("accepted", res.Accepted-accepted)
			sp.End()
		}
		if err != nil {
			break
		}
	}
	p.Restore(best)
	return res, err
}
