package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tqec/internal/compress"
)

// EffortPoint is one point of the optimization-budget/quality curve.
type EffortPoint struct {
	Effort   compress.Effort
	Volume   int
	Placed   int
	Runtime  time.Duration
	Overflow int
	// Order is the residual time-ordering penalty of the placement:
	// higher budgets trade volume for ordering legality, so the curve
	// must be read with both columns (see EXPERIMENTS.md).
	Order float64
}

// RunEffortCurve compiles one workload at every effort level, quantifying
// the quality-vs-runtime trade the paper's §4 discusses (the runtime
// increase "taking more time to reach the estimated results").
func RunEffortCurve(ctx context.Context, spec Spec, seed int64, skipRouting bool) ([]EffortPoint, error) {
	var out []EffortPoint
	for _, eff := range []compress.Effort{compress.EffortFast, compress.EffortNormal, compress.EffortHigh} {
		rep, _, err := spec.GenerateICM(seed)
		if err != nil {
			return nil, err
		}
		res, err := compress.CompileICMContext(ctx, rep, spec.Name, compress.Options{
			Mode: compress.Full, Seed: seed, Effort: eff, SkipRouting: skipRouting,
		}, time.Time{}, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, EffortPoint{
			Effort:   eff,
			Volume:   res.Volume,
			Placed:   res.PlacedVolume,
			Runtime:  res.Runtime,
			Overflow: res.RouteOverflow,
			Order:    res.Placement.Order,
		})
	}
	return out, nil
}

// FormatEffortCurve renders the curve.
func FormatEffortCurve(name string, pts []EffortPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Effort curve for %s (full pipeline)\n", name)
	fmt.Fprintf(&sb, "%-8s %10s %10s %9s %9s %9s\n", "effort", "volume", "placed", "t(s)", "overflow", "order")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%-8s %10d %10d %9.2f %9d %9.0f\n",
			p.Effort, p.Volume, p.Placed, p.Runtime.Seconds(), p.Overflow, p.Order)
	}
	return sb.String()
}
