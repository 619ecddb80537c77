package obs

import (
	"context"
	"testing"
)

// TestTraceContextCarriers: the request ID is the one correlation value
// a context carries across an outbound call.
func TestTraceContextCarriers(t *testing.T) {
	ctx := context.Background()
	if id := RequestIDFrom(ctx); id != "" {
		t.Fatal("empty context claims a request ID")
	}
	ctx = WithRequestID(ctx, "req-1234")
	if id := RequestIDFrom(ctx); id != "req-1234" {
		t.Fatalf("RequestIDFrom = %q, want req-1234", id)
	}
}
