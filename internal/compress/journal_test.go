package compress

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tqec/internal/journal"
	"tqec/internal/obs"
)

// journaledCompile runs one compile with a fresh flight recorder in ctx
// and returns the result together with the recorder.
func journaledCompile(t *testing.T, opt Options) (*Result, *journal.Recorder) {
	t.Helper()
	c := mixed4Circuit(t)
	jr := journal.NewRecorder(0)
	ctx := journal.WithRecorder(context.Background(), jr)
	res, err := CompileContext(ctx, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	return res, jr
}

// TestJournalWaterfallInvariant pins the telescoping invariant the
// -explain waterfall relies on: per-stage deltas sum exactly from the
// canonical volume to the final volume, with continuous per-stage
// before/after volumes, in every pipeline configuration.
func TestJournalWaterfallInvariant(t *testing.T) {
	for name, opt := range map[string]Options{
		"full":         {Mode: Full, Seed: 1},
		"dual-only":    {Mode: DualOnly, Seed: 1},
		"skip-routing": {Mode: Full, Seed: 1, SkipRouting: true},
		"geometry":     {Mode: Full, Seed: 1, KeepGeometry: true},
	} {
		t.Run(name, func(t *testing.T) {
			res, _ := journaledCompile(t, opt)
			j := res.Journal
			if j == nil {
				t.Fatal("journaled compile returned no journal")
			}
			if j.CanonicalVolume != res.CanonicalVolume || j.FinalVolume != res.Volume {
				t.Fatalf("journal volumes %d->%d, result %d->%d",
					j.CanonicalVolume, j.FinalVolume, res.CanonicalVolume, res.Volume)
			}
			if err := j.CheckWaterfall(); err != nil {
				t.Fatalf("waterfall invariant violated: %v", err)
			}
			// The waterfall covers exactly the stages that ran, in order.
			if len(j.Stages) != len(res.StageTimes) {
				t.Fatalf("journal has %d stages, StageTimes has %d", len(j.Stages), len(res.StageTimes))
			}
			for i, st := range res.StageTimes {
				if j.Stages[i].Stage != st.Stage {
					t.Fatalf("stage %d = %q, want %q", i, j.Stages[i].Stage, st.Stage)
				}
			}
		})
	}
}

// TestJournaledCompileBitIdenticalToPlain mirrors the tracer bit-identity
// test: recording a journal must not perturb the algorithm, down to the
// routed volume and wirelength.
func TestJournaledCompileBitIdenticalToPlain(t *testing.T) {
	c := mixed4Circuit(t)
	opt := Options{Mode: Full, Seed: 1}

	plain, err := Compile(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Journal != nil {
		t.Fatal("unjournaled compile produced a journal")
	}
	journaled, _ := journaledCompile(t, opt)
	if plain.Volume != journaled.Volume || plain.PlacedVolume != journaled.PlacedVolume ||
		plain.Wirelength != journaled.Wirelength ||
		plain.Placement.SA.Moves != journaled.Placement.SA.Moves ||
		plain.Placement.SA.Accepted != journaled.Placement.SA.Accepted ||
		plain.Placement.SA.BestCost != journaled.Placement.SA.BestCost {
		t.Fatalf("journaled result differs: volume %d/%d placed %d/%d wirelength %d/%d moves %d/%d accepted %d/%d",
			plain.Volume, journaled.Volume, plain.PlacedVolume, journaled.PlacedVolume,
			plain.Wirelength, journaled.Wirelength,
			plain.Placement.SA.Moves, journaled.Placement.SA.Moves,
			plain.Placement.SA.Accepted, journaled.Placement.SA.Accepted)
	}
	if len(plain.Placement.Placed) != len(journaled.Placement.Placed) {
		t.Fatal("placement item counts differ")
	}
	for i := range plain.Placement.Placed {
		p, q := plain.Placement.Placed[i], journaled.Placement.Placed[i]
		if p.X != q.X || p.Y != q.Y || p.Z != q.Z {
			t.Fatalf("item %d placed at (%d,%d,%d) journaled vs (%d,%d,%d) plain",
				i, q.X, q.Y, q.Z, p.X, p.Y, p.Z)
		}
	}
}

// observedCompile compiles mixed4 under ctx with a fresh tracer and
// flight recorder installed, and returns both with the outcome.
func observedCompile(ctx context.Context, t *testing.T, opt Options) (*Result, error, *obs.Tracer, *journal.Recorder) {
	t.Helper()
	tr, jr := obs.NewTracer("compile"), journal.NewRecorder(0)
	ctx = journal.WithRecorder(obs.WithTracer(ctx, tr), jr)
	res, err := CompileContext(ctx, mixed4Circuit(t), opt)
	tr.Finish()
	jr.Close()
	return res, err, tr, jr
}

// numericAttrs projects a span's numeric attributes as journal fields.
func numericAttrs(sp *obs.Span) map[string]float64 {
	out := map[string]float64{}
	for _, a := range sp.Attrs {
		switch v := a.Value.(type) {
		case int:
			out[a.Key] = float64(v)
		case float64:
			out[a.Key] = v
		}
	}
	return out
}

// checkProjection asserts the journal is exactly a projection of the
// span stream: per hot-loop kind, the spans and the progress events match
// one to one with equal numeric fields; every stage-started has a
// stage-done, and the stage spans and the stage-done rows agree. It
// reports every disagreement it finds, not just the first.
func checkProjection(t *testing.T, tr *obs.Tracer, jr *journal.Recorder) {
	t.Helper()
	progress := map[string][]journal.Event{}
	var started []string
	var done []journal.Event
	for _, ev := range jr.Events() {
		switch ev.Type {
		case journal.TypeProgress:
			progress[ev.Stage] = append(progress[ev.Stage], ev)
		case journal.TypeStageStarted:
			started = append(started, ev.Stage)
		case journal.TypeStageDone:
			done = append(done, ev)
		}
	}
	root := tr.Root()
	for _, kind := range []string{"anneal-epoch", "route-round", "dual-pass"} {
		spans, evs := root.Find(kind), progress[kind]
		if len(spans) != len(evs) {
			t.Errorf("%d %s spans, %d progress events", len(spans), kind, len(evs))
			continue
		}
		for i, sp := range spans {
			if got, want := evs[i].Fields, numericAttrs(sp); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s %d: progress fields %v, span attrs %v", kind, i, got, want)
				break
			}
		}
	}
	if len(started) != len(done) || len(root.Children) != len(done) {
		t.Fatalf("%d stage spans, %d stage-started events, %d stage-done", len(root.Children), len(started), len(done))
	}
	for i, sp := range root.Children {
		ev := done[i]
		if sp.EndTime.IsZero() {
			t.Fatalf("stage span %s never ended", sp.Name)
		}
		if started[i] != sp.Name || ev.Stage != sp.Name {
			t.Fatalf("stage %d: span %s, started %s, done %s", i, sp.Name, started[i], ev.Stage)
		}
		row := map[string]float64{
			"volume_before": float64(ev.VolumeBefore),
			"volume_after":  float64(ev.VolumeAfter),
			"delta":         float64(ev.Delta),
		}
		for k, v := range ev.Mechanisms {
			row[k] = float64(v)
		}
		attrs := numericAttrs(sp)
		for _, k := range []string{"volume_after", "delta"} {
			if _, ok := attrs[k]; !ok {
				attrs[k] = 0 // a failed stage never reaches its volume
			}
		}
		if fmt.Sprint(row) != fmt.Sprint(attrs) {
			t.Fatalf("stage %s: stage-done row %v, span attrs %v", sp.Name, row, attrs)
		}
		if want := float64(sp.Duration()) / float64(time.Millisecond); ev.DurationMS != want {
			t.Fatalf("stage %s: stage-done %.3f ms, span %.3f ms", sp.Name, ev.DurationMS, want)
		}
	}
}

// TestJournalEventsPerStage checks that the journal of a successful
// traced and journaled compile is exactly a projection of its span
// stream, and that the document folded from it matches the result.
func TestJournalEventsPerStage(t *testing.T) {
	res, err, tr, jr := observedCompile(context.Background(), t, Options{Mode: Full, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkProjection(t, tr, jr)
	root := tr.Root()
	if len(root.Children) != len(res.StageTimes) {
		t.Fatalf("%d stage spans, %d StageTimes", len(root.Children), len(res.StageTimes))
	}
	for _, kind := range []string{"anneal-epoch", "route-round", "dual-pass"} {
		if len(root.Find(kind)) == 0 {
			t.Fatalf("no %s spans recorded", kind)
		}
	}
	doc := res.Journal
	if len(doc.Stages) != len(root.Children) || len(doc.Anneal) != len(root.Find("anneal-epoch")) ||
		len(doc.RouteRounds) != len(root.Find("route-round")) || len(doc.DualPasses) != len(root.Find("dual-pass")) {
		t.Fatalf("document sizes differ from the span stream: %d stages, %d epochs, %d rounds, %d passes",
			len(doc.Stages), len(doc.Anneal), len(doc.RouteRounds), len(doc.DualPasses))
	}
	// The anneal trajectory matches the SA run.
	moves := 0
	for _, e := range doc.Anneal {
		moves += e.Moves
	}
	if moves != res.Placement.SA.Moves {
		t.Fatalf("anneal trajectory sums to %d moves, SA reports %d", moves, res.Placement.SA.Moves)
	}
	// The router's work totals are the route-round spans' sums.
	searches, expansions := 0, 0
	for _, r := range doc.RouteRounds {
		searches += r.Searches
		expansions += r.Expansions
	}
	spanSearches, spanExpansions := 0, 0
	for _, sp := range root.Find("route-round") {
		a := numericAttrs(sp)
		spanSearches += int(a["searches"])
		spanExpansions += int(a["expansions"])
	}
	if searches != spanSearches || expansions != spanExpansions || searches == 0 || expansions < searches {
		t.Fatalf("journal totals %d searches, %d expansions; spans %d, %d",
			searches, expansions, spanSearches, spanExpansions)
	}
}

// tripCtx reports itself canceled once trip holds, so a cancellation
// lands deterministically inside a chosen hot loop.
type tripCtx struct {
	context.Context
	trip func() bool
}

func (c tripCtx) Err() error {
	if c.trip() {
		return context.Canceled
	}
	return nil
}

// TestInterruptedWorkAppearsInBothViews cancels a traced and journaled
// compile inside a hot loop. The interrupted loop iteration and the
// failed stage must appear identically in the trace and in the journal.
func TestInterruptedWorkAppearsInBothViews(t *testing.T) {
	for _, loop := range []string{"route-round", "anneal-epoch"} {
		t.Run(loop, func(t *testing.T) {
			var tr *obs.Tracer
			ctx := tripCtx{Context: context.Background(), trip: func() bool {
				return tr != nil && len(tr.Root().Find(loop)) > 0
			}}
			tr = obs.NewTracer("compile")
			jr := journal.NewRecorder(0)
			res, err := CompileContext(journal.WithRecorder(obs.WithTracer(ctx, tr), jr), mixed4Circuit(t), Options{Mode: Full, Seed: 1})
			tr.Finish()
			jr.Close()
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("compile returned %v, %v; want a cancellation", res, err)
			}
			if len(tr.Root().Find(loop)) == 0 {
				t.Fatalf("no %s span opened before the cancellation", loop)
			}
			checkProjection(t, tr, jr)
			last := tr.Root().Children[len(tr.Root().Children)-1]
			failed := false
			for _, a := range last.Attrs {
				failed = failed || a.Key == "error"
			}
			if !failed {
				t.Fatalf("interrupted stage %s carries no error", last.Name)
			}
		})
	}
}

// TestCompileBestJournalSeedAttribution runs a multi-seed sweep over one
// shared recorder and checks the winning restart's journal is stamped
// with (and filtered to) the winning seed. The tracer installed after the
// recorder shares the parallel restarts' spans with it (run under -race).
func TestCompileBestJournalSeedAttribution(t *testing.T) {
	c := mixed4Circuit(t)
	jr := journal.NewRecorder(0)
	ctx := obs.WithTracer(journal.WithRecorder(context.Background(), jr), obs.NewTracer("sweep"))
	res, err := CompileBestContext(ctx, c, Options{Mode: Full}, []int64{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	j := res.Journal
	if j == nil {
		t.Fatal("best-of sweep returned no journal")
	}
	if err := j.CheckWaterfall(); err != nil {
		t.Fatalf("winning journal waterfall: %v", err)
	}
	if j.FinalVolume != res.Volume {
		t.Fatalf("journal final volume %d, result %d", j.FinalVolume, res.Volume)
	}
	// Every event carries its restart's seed; the shared stream holds one
	// full stage set per seed.
	perSeed := map[int64]int{}
	for _, ev := range jr.Events() {
		if ev.Type == journal.TypeStageDone {
			perSeed[ev.Seed]++
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		if perSeed[seed] == 0 {
			t.Fatalf("no stage-done events for seed %d", seed)
		}
	}
}
