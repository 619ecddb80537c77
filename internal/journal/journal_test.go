package journal

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"tqec/internal/obs"
)

// span emits one finished span the way the pipeline does: opened through
// ctx, given its attributes, ended.
func span(ctx context.Context, name string, attrs ...obs.Attr) {
	sp, _ := obs.StartSpan(ctx, name)
	for _, a := range attrs {
		sp.SetAttr(a.Key, a.Value)
	}
	sp.End()
}

// seedCtx opens a span stamped with seed under ctx, as a multi-seed
// sweep's seed-<n> span is.
func seedCtx(ctx context.Context, seed int64) context.Context {
	sp, sctx := obs.StartSpan(ctx, "seed-n")
	sp.SetAttr("seed", seed)
	return sctx
}

func TestNilFastPath(t *testing.T) {
	ctx := context.Background()
	if got := WithRecorder(ctx, nil); got != ctx {
		t.Fatal("nil recorder installed in context")
	}
	if obs.Observed(ctx) {
		t.Fatal("bare context reports an observer")
	}
	if Document(ctx, "x", 1) != nil {
		t.Fatal("context without a recorder built a document")
	}
	// A tracer alone yields spans but no journal document.
	tctx := obs.WithTracer(ctx, obs.NewTracer("t"))
	if Document(tctx, "x", 1) != nil {
		t.Fatal("traced context without a recorder built a document")
	}
}

func TestEmitSequenceAndSeedStamp(t *testing.T) {
	r := NewRecorder(0)
	ctx := WithRecorder(context.Background(), r)
	span(ctx, "pdgraph")
	span(seedCtx(ctx, 7), "place")
	obs.Warn(ctx, "code", "msg")
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5: %+v", len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.TMS < 0 {
			t.Fatalf("event %d has negative timestamp", i)
		}
	}
	wantTypes := []Type{TypeStageStarted, TypeStageDone, TypeStageStarted, TypeStageDone, TypeWarning}
	wantSeeds := []int64{0, 0, 7, 7, 0}
	for i, ev := range evs {
		if ev.Type != wantTypes[i] || ev.Seed != wantSeeds[i] {
			t.Fatalf("event %d = %s seed %d, want %s seed %d", i, ev.Type, ev.Seed, wantTypes[i], wantSeeds[i])
		}
	}
	if evs[4].Code != "code" || evs[4].Message != "msg" {
		t.Fatalf("warning event = %+v", evs[4])
	}
}

// TestRecorderComposesWithTracer installs a tracer and a recorder in both
// orders: either way the tracer keeps the span tree and the recorder sees
// the same events.
func TestRecorderComposesWithTracer(t *testing.T) {
	for name, install := range map[string]func(context.Context, *obs.Tracer, *Recorder) context.Context{
		"tracer-first": func(ctx context.Context, tr *obs.Tracer, r *Recorder) context.Context {
			return WithRecorder(obs.WithTracer(ctx, tr), r)
		},
		"recorder-first": func(ctx context.Context, tr *obs.Tracer, r *Recorder) context.Context {
			return obs.WithTracer(WithRecorder(ctx, r), tr)
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr, r := obs.NewTracer("root"), NewRecorder(0)
			ctx := install(context.Background(), tr, r)
			sp, sctx := obs.StartSpan(ctx, "place")
			span(sctx, "anneal-epoch", obs.Attr{Key: "moves", Value: 40})
			sp.End()
			if len(tr.Root().Find("anneal-epoch")) != 1 || len(tr.Root().Find("place")) != 1 {
				t.Fatal("tracer missed the spans")
			}
			var types []Type
			for _, ev := range r.Events() {
				types = append(types, ev.Type)
			}
			if want := []Type{TypeStageStarted, TypeProgress, TypeStageDone}; len(types) != 3 ||
				types[0] != want[0] || types[1] != want[1] || types[2] != want[2] {
				t.Fatalf("recorder events = %v, want %v", types, want)
			}
		})
	}
}

func TestRingBufferBoundsAndCountsDrops(t *testing.T) {
	r := NewRecorder(8)
	ctx := WithRecorder(context.Background(), r)
	for i := 0; i < 30; i++ {
		span(ctx, "anneal-epoch", obs.Attr{Key: "epoch", Value: i + 1})
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	if r.Dropped() != 22 {
		t.Fatalf("dropped = %d, want 22", r.Dropped())
	}
	// The surviving window is the newest events with their original seqs.
	if evs[0].Seq != 23 || evs[7].Seq != 30 {
		t.Fatalf("ring window seqs = %d..%d, want 23..30", evs[0].Seq, evs[7].Seq)
	}
	// The document is folded from every event, dropped or not.
	if doc := Document(ctx, "x", 0); len(doc.Anneal) != 30 || doc.EventsDropped != 22 {
		t.Fatalf("document has %d epochs and %d drops, want 30 and 22", len(doc.Anneal), doc.EventsDropped)
	}
}

func TestSubscribeReplayThenTail(t *testing.T) {
	r := NewRecorder(0)
	r.JobState("queued", "")
	r.JobState("running", "")

	replay, ch, cancel := r.Subscribe()
	defer cancel()
	if len(replay) != 2 {
		t.Fatalf("replay has %d events, want 2", len(replay))
	}
	r.JobState("done", "")
	select {
	case ev := <-ch:
		if ev.Code != "done" || ev.Seq != 3 {
			t.Fatalf("tailed event = %+v", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("tail event never arrived")
	}
	r.Close()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("expected channel close after recorder Close")
		}
	case <-time.After(time.Second):
		t.Fatal("channel never closed")
	}
}

func TestLateSubscriberGetsFullReplayAndClosedChannel(t *testing.T) {
	r := NewRecorder(0)
	r.JobState("running", "")
	r.JobState("done", "")
	r.Close()
	// Events after Close are discarded.
	r.JobState("late", "should not appear")

	replay, ch, cancel := r.Subscribe()
	defer cancel()
	if len(replay) != 2 {
		t.Fatalf("late replay has %d events, want 2", len(replay))
	}
	if _, ok := <-ch; ok {
		t.Fatal("late subscriber channel should be closed")
	}
}

func TestCancelDetachesSubscriber(t *testing.T) {
	r := NewRecorder(0)
	_, ch, cancel := r.Subscribe()
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("cancelled subscriber channel should be closed")
	}
	// Emission after cancel must not panic on the detached channel.
	r.JobState("running", "")
}

// TestConcurrentEmitAndSubscribe exercises the locking under -race: many
// emitters, a subscriber churn, and snapshot readers all at once.
func TestConcurrentEmitAndSubscribe(t *testing.T) {
	r := NewRecorder(128)
	ctx := WithRecorder(context.Background(), r)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sctx := seedCtx(ctx, int64(g))
			for i := 0; i < 200; i++ {
				span(sctx, "anneal-epoch", obs.Attr{Key: "epoch", Value: i + 1})
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, ch, cancel := r.Subscribe()
				for j := 0; j < 5; j++ {
					select {
					case <-ch:
					default:
					}
				}
				cancel()
				_ = r.Events()
				_ = r.Dropped()
			}
		}()
	}
	wg.Wait()
	r.Close()
	if got := int(r.Dropped()) + len(r.Events()); got != 800 {
		t.Fatalf("dropped+buffered = %d, want 800", got)
	}
}

func TestDocumentFiltersBySeed(t *testing.T) {
	r := NewRecorder(0)
	ctx := WithRecorder(context.Background(), r)
	a, b := seedCtx(ctx, 1), seedCtx(ctx, 2)
	span(a, "anneal-epoch", obs.Attr{Key: "epoch", Value: 1}, obs.Attr{Key: "temp", Value: 9.5},
		obs.Attr{Key: "moves", Value: 40}, obs.Attr{Key: "accepted", Value: 13})
	span(b, "anneal-epoch", obs.Attr{Key: "epoch", Value: 1}, obs.Attr{Key: "temp", Value: 3.5},
		obs.Attr{Key: "moves", Value: 40}, obs.Attr{Key: "accepted", Value: 7})
	span(a, "route-round", obs.Attr{Key: "round", Value: 1}, obs.Attr{Key: "ripped", Value: 5}, obs.Attr{Key: "overflow", Value: 2})
	span(a, "dual-pass", obs.Attr{Key: "pass", Value: 1}, obs.Attr{Key: "merges", Value: 3})
	obs.Warn(a, "route-squeezed", "2 cells")
	obs.Warn(b, "route-failed", "1 net")

	doc := Document(a, "circ", 1)
	if doc.Seed != 1 || doc.Name != "circ" {
		t.Fatalf("doc identity = %q seed %d", doc.Name, doc.Seed)
	}
	if len(doc.Anneal) != 1 || doc.Anneal[0].Temp != 9.5 || doc.Anneal[0].Accepted != 13 {
		t.Fatalf("anneal trajectory = %+v", doc.Anneal)
	}
	if len(doc.RouteRounds) != 1 || doc.RouteRounds[0].Overflow != 2 || doc.RouteRounds[0].Ripped != 5 {
		t.Fatalf("route trajectory = %+v", doc.RouteRounds)
	}
	if len(doc.DualPasses) != 1 || doc.DualPasses[0].Merges != 3 {
		t.Fatalf("dual trajectory = %+v", doc.DualPasses)
	}
	if len(doc.Warnings) != 1 || doc.Warnings[0].Code != "route-squeezed" {
		t.Fatalf("warnings = %+v", doc.Warnings)
	}
}

// TestDocumentFollowsLatestCompile runs two compiles under one stamp: the
// second's first stage starts a fresh document whose waterfall is built
// from the stage spans' attributes.
func TestDocumentFollowsLatestCompile(t *testing.T) {
	r := NewRecorder(0)
	ctx := WithRecorder(context.Background(), r)
	stage := func(name string, before, after int, mech ...obs.Attr) {
		attrs := append([]obs.Attr{{Key: AttrVolumeBefore, Value: before},
			{Key: AttrVolumeAfter, Value: after}, {Key: AttrDelta, Value: after - before}}, mech...)
		span(ctx, name, attrs...)
	}
	stage("pdgraph", 500, 500)
	stage("place", 500, 400)
	stage("pdgraph", 168, 168, obs.Attr{Key: "modules", Value: 14}, obs.Attr{Key: "error", Value: "ignored"})
	stage("place", 168, 60, obs.Attr{Key: "moves", Value: 4000})

	doc := Document(ctx, "circ", 3)
	if err := doc.CheckWaterfall(); err != nil {
		t.Fatal(err)
	}
	if doc.CanonicalVolume != 168 || doc.FinalVolume != 60 || len(doc.Stages) != 2 {
		t.Fatalf("document = %+v, want the second compile only", doc)
	}
	if m := doc.Stages[0].Mechanisms; len(m) != 1 || m["modules"] != 14 {
		t.Fatalf("pdgraph mechanisms = %v, want only modules=14", m)
	}
}

func TestCheckWaterfall(t *testing.T) {
	good := &Journal{
		CanonicalVolume: 168,
		FinalVolume:     90,
		Stages: []StageEntry{
			{Stage: "pdgraph", VolumeBefore: 168, VolumeAfter: 168, Delta: 0},
			{Stage: "place", VolumeBefore: 168, VolumeAfter: 60, Delta: -108},
			{Stage: "route", VolumeBefore: 60, VolumeAfter: 90, Delta: 30, DurationMS: 0.8},
		},
	}
	if err := good.CheckWaterfall(); err != nil {
		t.Fatalf("valid waterfall rejected: %v", err)
	}

	for name, bad := range map[string]*Journal{
		"empty": {CanonicalVolume: 1, FinalVolume: 1},
		"wrong-start": {CanonicalVolume: 100, FinalVolume: 90,
			Stages: []StageEntry{{Stage: "place", VolumeBefore: 99, VolumeAfter: 90, Delta: -9}}},
		"discontinuous": {CanonicalVolume: 100, FinalVolume: 90,
			Stages: []StageEntry{
				{Stage: "a", VolumeBefore: 100, VolumeAfter: 95, Delta: -5},
				{Stage: "b", VolumeBefore: 94, VolumeAfter: 90, Delta: -4}}},
		"bad-delta": {CanonicalVolume: 100, FinalVolume: 90,
			Stages: []StageEntry{{Stage: "a", VolumeBefore: 100, VolumeAfter: 90, Delta: -9}}},
		"wrong-end": {CanonicalVolume: 100, FinalVolume: 80,
			Stages: []StageEntry{{Stage: "a", VolumeBefore: 100, VolumeAfter: 90, Delta: -10}}},
	} {
		if err := bad.CheckWaterfall(); err == nil {
			t.Fatalf("%s waterfall accepted", name)
		}
	}
}

func TestFormatExplain(t *testing.T) {
	j := &Journal{
		Name: "threecnot", Seed: 1,
		CanonicalVolume: 168, FinalVolume: 90,
		Stages: []StageEntry{
			{Stage: "pdgraph", VolumeBefore: 168, VolumeAfter: 168, Delta: 0,
				Mechanisms: map[string]int{"modules": 14, "nets": 7}},
			{Stage: "place", VolumeBefore: 168, VolumeAfter: 60, Delta: -108,
				Mechanisms: map[string]int{"moves": 4000}},
			{Stage: "route", VolumeBefore: 60, VolumeAfter: 90, Delta: 30, DurationMS: 0.8},
		},
		Anneal: []AnnealEpoch{{Epoch: 1, Temp: 50, Moves: 40, Accepted: 20}},
		RouteRounds: []RouteRound{
			{Round: 1, Ripped: 7, Searches: 9, Expansions: 120, Overflow: 2},
			{Round: 2, Ripped: 2, Searches: 3, Expansions: 40, Overflow: 0},
		},
		Warnings: []Warning{{Code: "route-squeezed", Message: "2 cells"}},
	}
	out := FormatExplain(j)
	for _, want := range []string{
		"threecnot", "canonical", "pdgraph", "-108", "+30",
		"modules=14 nets=7", "anneal:", "[route-squeezed]",
		"routing:  2 negotiation rounds, 12 A* searches, 160 expansions at 5000 ns each, final overflow 0",
		"53.6% of canonical",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	// Without a route stage time there is no cost per expansion.
	j.Stages = j.Stages[:2]
	if out := FormatExplain(j); !strings.Contains(out, "160 expansions, final overflow 0") {
		t.Fatalf("explain output without a route stage:\n%s", out)
	}
	if !strings.Contains(FormatExplain(nil), "no journal") {
		t.Fatal("nil journal explain")
	}
}
