package compress

import (
	"context"
	"testing"

	"tqec/internal/journal"
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

// TestJournalEventsPerStage checks the live event stream carries one
// stage-started and one stage-done per executed stage, plus the hot-loop
// progress heartbeats.
func TestJournalEventsPerStage(t *testing.T) {
	res, jr := journaledCompile(t, Options{Mode: Full, Seed: 1})
	started := map[string]int{}
	done := map[string]int{}
	progress := map[string]int{}
	for _, ev := range jr.Events() {
		switch ev.Type {
		case journal.TypeStageStarted:
			started[ev.Stage]++
		case journal.TypeStageDone:
			done[ev.Stage]++
		case journal.TypeProgress:
			progress[ev.Stage]++
		}
	}
	for _, st := range res.StageTimes {
		if started[st.Stage] != 1 || done[st.Stage] != 1 {
			t.Fatalf("stage %s: %d started / %d done events, want 1/1",
				st.Stage, started[st.Stage], done[st.Stage])
		}
	}
	for _, kind := range []string{"anneal-epoch", "route-round", "dual-pass"} {
		if progress[kind] == 0 {
			t.Fatalf("no %s progress events recorded", kind)
		}
	}
	// The anneal trajectory reconstructed from events matches the SA run.
	doc := jr.BuildDoc("mixed4")
	moves := 0
	for _, e := range doc.Anneal {
		moves += e.Moves
	}
	if moves != res.Placement.SA.Moves {
		t.Fatalf("anneal trajectory sums to %d moves, SA reports %d", moves, res.Placement.SA.Moves)
	}
}

// TestCompileBestJournalSeedAttribution runs a multi-seed sweep over one
// shared recorder and checks the winning restart's journal is stamped
// with (and filtered to) the winning seed.
func TestCompileBestJournalSeedAttribution(t *testing.T) {
	c := mixed4Circuit(t)
	jr := journal.NewRecorder(0)
	ctx := journal.WithRecorder(context.Background(), jr)
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
