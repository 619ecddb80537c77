package route_test

import (
	"context"
	"testing"
	"time"

	"tqec/internal/bench"
	"tqec/internal/compress"
	"tqec/internal/obs"
	"tqec/internal/route"
)

// rd84Sink keeps the benchmarked routing live.
var rd84Sink *route.Result

// BenchmarkRouteRD84 routes the rd84_142 Full seed-1 placement
// (`EffortFast`) once per iteration: 3,181 A* searches expanding 984,498
// cells over three negotiation rounds. It reports ns per expanded cell,
// counting the expansions once in an untimed traced pass.
func BenchmarkRouteRD84(b *testing.B) {
	spec, ok := bench.ByName("rd84_142")
	if !ok {
		b.Fatal("no rd84_142 spec")
	}
	rep, _, err := spec.GenerateICM(1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := compress.Options{Mode: compress.Full, Effort: compress.EffortFast, Seed: 1, SkipRouting: true}
	res, err := compress.CompileICMContext(ctx, rep, spec.Name, opt, time.Time{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	opt.SkipRouting = false
	tr := obs.NewTracer("route")
	if _, err := compress.RoutePlacement(obs.WithTracer(ctx, tr), res.Placement, opt); err != nil {
		b.Fatal(err)
	}
	tr.Finish()
	expansions := 0
	for _, sp := range tr.Root().Find("route-round") {
		if v, ok := sp.Lookup("expansions"); ok {
			expansions += v.(int)
		}
	}
	if expansions == 0 {
		b.Fatal("the traced pass expanded no cells")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rd84Sink, err = compress.RoutePlacement(ctx, res.Placement, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(expansions), "ns/expansion")
}
