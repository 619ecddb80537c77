package compress

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"tqec/internal/circuit"
	"tqec/internal/obs"
	"tqec/internal/revlib"
)

func mixed4Circuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := revlib.ParseString(revlib.Samples["mixed4"])
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stageNames projects StageTimes to its ordered stage-name list.
func stageNames(sts []StageTime) []string {
	out := make([]string, len(sts))
	for i, st := range sts {
		out[i] = st.Stage
	}
	return out
}

func TestStageTimesPipelineOrder(t *testing.T) {
	c := mixed4Circuit(t)
	res, err := Compile(c, Options{Mode: Full, Seed: 1, KeepGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pdgraph", "simplify", "primal-bridge", "dual-bridge", "place", "route", "geometry"}
	got := stageNames(res.StageTimes)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stage order = %v, want %v", got, want)
	}
	for _, st := range res.StageTimes {
		if st.Duration < 0 {
			t.Fatalf("stage %s has negative duration %v", st.Stage, st.Duration)
		}
	}
}

func TestStageTimesOmitSkippedStages(t *testing.T) {
	c := mixed4Circuit(t)

	// Dual-only mode runs no I-shaped simplification: the stage must be
	// absent from StageTimes, not recorded with a zero duration.
	dual, err := Compile(c, Options{Mode: DualOnly, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range dual.StageTimes {
		if st.Stage == "simplify" {
			t.Fatal("dual-only compile recorded a simplify stage")
		}
	}

	// SkipRouting stops after placement; without KeepGeometry no geometry
	// stage runs either.
	placed, err := Compile(c, Options{Mode: Full, Seed: 1, SkipRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range placed.StageTimes {
		if st.Stage == "route" || st.Stage == "geometry" {
			t.Fatalf("skip-routing compile recorded stage %s", st.Stage)
		}
	}
	if names := stageNames(placed.StageTimes); names[len(names)-1] != "place" {
		t.Fatalf("skip-routing stages = %v, want place last", names)
	}
}

func TestTracedCompileBitIdenticalToUntraced(t *testing.T) {
	c := mixed4Circuit(t)
	opt := Options{Mode: Full, Seed: 1}

	plain, err := Compile(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("traced")
	ctx := obs.WithTracer(context.Background(), tr)
	traced, err := CompileContext(ctx, c, opt)
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Instrumentation must not perturb the algorithm: placement, the
	// annealing schedule and the routed result are deterministic per seed,
	// so every one of them must match.
	if plain.Volume != traced.Volume || plain.PlacedVolume != traced.PlacedVolume ||
		plain.Wirelength != traced.Wirelength ||
		plain.Placement.SA.Moves != traced.Placement.SA.Moves ||
		plain.Placement.SA.Accepted != traced.Placement.SA.Accepted ||
		plain.Placement.SA.BestCost != traced.Placement.SA.BestCost {
		t.Fatalf("traced result differs: volume %d/%d placed %d/%d wirelength %d/%d moves %d/%d accepted %d/%d",
			plain.Volume, traced.Volume, plain.PlacedVolume, traced.PlacedVolume,
			plain.Wirelength, traced.Wirelength,
			plain.Placement.SA.Moves, traced.Placement.SA.Moves,
			plain.Placement.SA.Accepted, traced.Placement.SA.Accepted)
	}
	if len(plain.Placement.Placed) != len(traced.Placement.Placed) {
		t.Fatal("placement item counts differ")
	}
	for i := range plain.Placement.Placed {
		p, q := plain.Placement.Placed[i], traced.Placement.Placed[i]
		if p.X != q.X || p.Y != q.Y || p.Z != q.Z {
			t.Fatalf("item %d placed at (%d,%d,%d) traced vs (%d,%d,%d) untraced",
				i, q.X, q.Y, q.Z, p.X, p.Y, p.Z)
		}
	}
}

func TestTracedCompileRecordsHotLoopSpans(t *testing.T) {
	c := mixed4Circuit(t)
	tr := obs.NewTracer("traced")
	ctx := obs.WithTracer(context.Background(), tr)
	res, err := CompileContext(ctx, c, Options{Mode: Full, Seed: 1})
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	// The stage spans are the root's children, in StageTimes order, and
	// each hot loop's spans all nest under its stage. (That every span is
	// closed and mirrored by the journal is TestJournalEventsPerStage.)
	if fmt.Sprint(spanNames(root.Children)) != fmt.Sprint(stageNames(res.StageTimes)) {
		t.Fatalf("stage spans %v, StageTimes %v", spanNames(root.Children), stageNames(res.StageTimes))
	}
	for loop, stage := range map[string]string{"anneal-epoch": "place", "route-round": "route", "dual-pass": "dual-bridge"} {
		all := root.Find(loop)
		if len(all) == 0 {
			t.Fatalf("no %s spans recorded", loop)
		}
		if nested := root.Find(stage)[0].Find(loop); len(nested) != len(all) {
			t.Fatalf("%d of %d %s spans nest under the %s stage", len(nested), len(all), loop, stage)
		}
	}
}

func spanNames(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestConcurrentTracersDoNotInterleave runs several traced compiles in
// parallel, each with its own tracer, and checks that no span leaks into
// another compile's tree. Run with -race this also exercises the
// tracer's internal locking.
func TestConcurrentTracersDoNotInterleave(t *testing.T) {
	c := mixed4Circuit(t)
	const n = 4
	tracers := make([]*obs.Tracer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := obs.NewTracer(fmt.Sprintf("compile-%d", i))
			ctx := obs.WithTracer(context.Background(), tr)
			_, err := CompileContext(ctx, c, Options{Mode: Full, Seed: int64(i + 1)})
			tr.Finish()
			tracers[i] = tr
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("compile %d: %v", i, errs[i])
		}
		root := tracers[i].Root()
		if root.Name != fmt.Sprintf("compile-%d", i) {
			t.Fatalf("tracer %d root = %q", i, root.Name)
		}
		// Exactly one span per pipeline stage: a second "place" span would
		// mean another goroutine's compile leaked into this tree.
		for _, stage := range []string{"pdgraph", "simplify", "primal-bridge", "dual-bridge", "place", "route"} {
			if got := len(root.Find(stage)); got != 1 {
				t.Fatalf("tracer %d has %d %q spans, want 1", i, got, stage)
			}
		}
	}
}
