package fleet

import (
	"context"
	"math/rand"
	"time"
)

// The fleet's one retry policy: the delay before retry n (0-based) is
// backoffBase·2ⁿ, capped at backoffMax, less a random share of up to
// backoffJitter. Dispatch retries, result fetches and an agent's
// re-registration all use it, so the fleet's retry storms stay
// de-synchronized the same way everywhere.
const (
	backoffBase   = 100 * time.Millisecond
	backoffMax    = 5 * time.Second
	backoffJitter = 0.5
)

// backoffDelay is the delay before 0-based retry n, with u, uniform in
// [0, 1), drawing the jitter: it lies in [d·(1−backoffJitter), d] for the
// capped exponential d.
func backoffDelay(n int, u float64) time.Duration {
	d := backoffBase
	for i := 0; i < n && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	return time.Duration(float64(d) * (1 - backoffJitter*u))
}

// backoff sleeps before 0-based retry n, returning ctx.Err() as soon as
// ctx ends, so a shutdown or a job's cancel never waits out a backoff.
func backoff(ctx context.Context, n int) error {
	return sleepCtx(ctx, backoffDelay(n, rand.Float64()))
}
