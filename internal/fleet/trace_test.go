package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/obs"
	"tqec/internal/service"
)

const tracedThreecnotBody = `{"source":{"sample":"threecnot"},"options":{"mode":"full"},"trace":true}`

// spanningCompile is a fast fake compile that emits one pipeline span,
// so the stitched fleet trace has worker-side content to assert on.
func spanningCompile() service.CompileFunc {
	return func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		sp, _ := obs.StartSpan(ctx, "anneal")
		sp.SetAttr("seeds", len(seeds))
		sp.End()
		return &compress.Result{Name: c.Name, Volume: 6, PlacedVolume: 6, SeedsTried: len(seeds)}, nil
	}
}

// findTreeSpans walks an exported span tree depth-first collecting the
// spans with the given name.
func findTreeSpans(n *obs.SpanJSON, name string) []*obs.SpanJSON {
	if n == nil {
		return nil
	}
	var out []*obs.SpanJSON
	var walk func(*obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		if s.Name == name {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// TestFleetTraceStitchedAfterFailover drives the full distributed-trace
// story: a traced job starts on a worker that dies mid-compile, fails
// over, completes elsewhere — and the coordinator's stitched trace shows
// the whole history, with the surviving worker's pipeline spans grafted
// under the final dispatch attempt. Run under -race in CI: the tracer is
// written by the supervisor goroutine and read by the trace handler.
func TestFleetTraceStitchedAfterFailover(t *testing.T) {
	key := threecnotKey(t)
	blockerID := "blocker"
	runnerID := pickLosingID(t, blockerID, key)
	f := newTestFleet(t, Config{DispatchAttempts: 4},
		[]string{blockerID, runnerID},
		map[string]service.CompileFunc{
			blockerID: blockingCompile(),
			runnerID:  spanningCompile(),
		})

	st := f.submit(t, tracedThreecnotBody)
	waitCondition(t, 10*time.Second, "job to start on the doomed worker", func() bool {
		got := f.getStatus(t, st.ID)
		return got.Worker == blockerID && got.State == service.StateRunning
	})

	f.workers[blockerID].kill()

	final := f.waitJob(t, st.ID, 60*time.Second)
	if final.State != service.StateDone {
		t.Fatalf("job after worker death = %s (err %q), want done via failover", final.State, final.Error)
	}
	if final.Worker != runnerID {
		t.Fatalf("job finished on %s, want failover target %s", final.Worker, runnerID)
	}

	var tree obs.SpanJSON
	if code := getJSON(t, f.ts.URL+"/v1/jobs/"+st.ID+"/trace", &tree); code != http.StatusOK {
		t.Fatalf("trace: http %d", code)
	}
	if tree.Name != "job:"+st.ID {
		t.Fatalf("root span = %q, want job:%s", tree.Name, st.ID)
	}
	if tree.Process != "coordinator" {
		t.Fatalf("root process = %q, want coordinator", tree.Process)
	}

	// The failure history is visible: one route decision and one dispatch
	// per attempt, plus a failover span for the death.
	dispatches := findTreeSpans(&tree, "dispatch")
	if len(dispatches) < 2 {
		t.Fatalf("got %d dispatch spans, want >= 2 (original + failover)", len(dispatches))
	}
	if len(findTreeSpans(&tree, "route-decision")) < 2 {
		t.Fatal("missing per-attempt route-decision spans")
	}
	if len(findTreeSpans(&tree, "failover")) < 1 {
		t.Fatal("missing failover span for the dead worker")
	}

	// The worker's pipeline tree is grafted under the LAST dispatch span
	// (the attempt that actually produced the result), placed by the
	// worker's queue wait and stamped with the stitch base.
	last := dispatches[len(dispatches)-1]
	if len(last.Children) != 1 {
		t.Fatalf("last dispatch has %d children, want 1 grafted worker tree", len(last.Children))
	}
	for _, d := range dispatches[:len(dispatches)-1] {
		if len(d.Children) != 0 {
			t.Fatal("worker tree grafted under a non-final dispatch attempt")
		}
	}
	guest := last.Children[0]
	if guest.Process != runnerID {
		t.Fatalf("guest process lane = %q, want %s", guest.Process, runnerID)
	}
	if _, ok := guest.Attrs["stitch_base_us"]; !ok {
		t.Fatalf("guest missing stitch_base_us attr: %v", guest.Attrs)
	}
	if _, ok := guest.Attrs["queued_us"]; !ok {
		t.Fatalf("guest missing queued_us attr: %v", guest.Attrs)
	}
	if guest.StartUS < last.StartUS || guest.StartUS+guest.DurUS > last.StartUS+last.DurUS {
		t.Fatalf("worker tree [%d, %d]µs does not lie within its dispatch [%d, %d]µs",
			guest.StartUS, guest.StartUS+guest.DurUS, last.StartUS, last.StartUS+last.DurUS)
	}
	anneals := findTreeSpans(guest, "anneal")
	if len(anneals) != 1 {
		t.Fatalf("got %d anneal spans under the worker tree, want 1", len(anneals))
	}
	if anneals[0].StartUS < last.StartUS {
		t.Fatalf("worker span starts at %dµs, before its dispatch at %dµs", anneals[0].StartUS, last.StartUS)
	}

	// Chrome export: a valid trace_event array with one lane per process
	// and the worker span present.
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + st.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace: http %d: %s", resp.StatusCode, raw)
	}
	var events []obs.ChromeEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("chrome trace is not a valid event array: %v", err)
	}
	lanes := map[string]bool{}
	sawAnneal := false
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if name, ok := ev.Args["name"].(string); ok {
				lanes[name] = true
			}
		}
		if ev.Name == "anneal" {
			sawAnneal = true
		}
	}
	if !lanes["coordinator"] || !lanes[runnerID] {
		t.Fatalf("chrome lanes = %v, want coordinator and %s", lanes, runnerID)
	}
	if !sawAnneal {
		t.Fatal("chrome trace missing the worker's anneal span")
	}
}

func TestFleetTraceUntracedJob(t *testing.T) {
	f := newTestFleet(t, Config{}, []string{"w-a"}, map[string]service.CompileFunc{
		"w-a": spanningCompile(),
	})
	st := f.submit(t, threecnotBody)
	f.waitJob(t, st.ID, 30*time.Second)
	var e map[string]any
	if code := getJSON(t, f.ts.URL+"/v1/jobs/"+st.ID+"/trace", &e); code != http.StatusNotFound {
		t.Fatalf("trace for untraced job: http %d, want 404", code)
	}
}
