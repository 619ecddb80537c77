package fleet

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestFleetClock pins every timing the heartbeat derives, at the default
// heartbeat, and the retry policy's constants.
func TestFleetClock(t *testing.T) {
	cfg := Config{}.withDefaults()
	for _, tc := range []struct {
		name      string
		got, want time.Duration
	}{
		{"heartbeat", cfg.HeartbeatInterval, 2 * time.Second},
		{"suspect after", cfg.suspectAfter(), 6 * time.Second},
		{"dead after", cfg.deadAfter(), 18 * time.Second},
		{"poll interval", cfg.pollInterval(), 200 * time.Millisecond},
		{"backoff base", backoffBase, 100 * time.Millisecond},
		{"backoff cap", backoffMax, 5 * time.Second},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
	if backoffJitter != 0.5 || dispatchAttempts != 3 {
		t.Errorf("backoff jitter %v, dispatch attempts %d; want 0.5 and 3", backoffJitter, dispatchAttempts)
	}
	if got := (Config{HeartbeatInterval: time.Nanosecond}).pollInterval(); got != time.Millisecond {
		t.Errorf("poll interval at a 1ns heartbeat = %s, want the 1ms floor", got)
	}
}

func TestBackoffExponentialGrowthAndCap(t *testing.T) {
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		3200 * time.Millisecond,
		5 * time.Second, // capped
		5 * time.Second, // stays capped
	}
	for n, w := range want {
		// u = 0 draws no jitter, so the delay is the exact exponential.
		if got := backoffDelay(n, 0); got != w {
			t.Errorf("backoffDelay(%d, 0) = %s, want %s", n, got, w)
		}
	}
	if got := backoffDelay(1000, 0); got != backoffMax {
		t.Errorf("backoffDelay(1000, 0) = %s, want the %s cap", got, backoffMax)
	}
}

func TestBackoffJitterRange(t *testing.T) {
	// A seeded source makes the sequence reproducible; every draw must
	// land in [d·(1−jitter), d].
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 8; n++ {
		hi := backoffDelay(n, 0)
		lo := hi / 2
		for i := 0; i < 100; i++ {
			if d := backoffDelay(n, rng.Float64()); d < lo || d > hi {
				t.Fatalf("backoffDelay(%d) = %s outside [%s, %s]", n, d, lo, hi)
			}
		}
	}
}

func TestBackoffJitterIsConsumed(t *testing.T) {
	// Two seeded sources with the same seed must produce identical
	// sequences; different seeds must diverge somewhere.
	mk := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = backoffDelay(2, rng.Float64())
		}
		return out
	}
	a, b, c := mk(7), mk(7), mk(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestBackoffSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// Retry 1000 is capped at 5s: only the cancel can end it in time.
	go func() { done <- backoff(ctx, 1000) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("backoff returned nil after context cancellation")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("backoff did not return after context cancellation")
	}
}
