package service

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
)

// instantCompile returns a deterministic stand-in result without
// running the pipeline.
func instantCompile(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
	return &compress.Result{Name: c.Name, Volume: 7, PlacedVolume: 7, SeedsTried: len(seeds)}, nil
}

func TestListEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Runner: Compiler(instantCompile)})
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"source":{"sample":"threecnot"},"options":{"seeds":[%d]}}`, i+1)
		st, code := postJob(t, ts, body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %d: http %d", i, code)
		}
		waitState(t, ts, st.ID, 10*time.Second)
		ids = append(ids, st.ID)
	}

	var list JobList
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: http %d", code)
	}
	if list.Total != 3 || len(list.Jobs) != 3 {
		t.Fatalf("list = total %d, %d jobs; want 3/3", list.Total, len(list.Jobs))
	}
	// Newest first: the last submission leads.
	for i, want := range []string{ids[2], ids[1], ids[0]} {
		if list.Jobs[i].ID != want {
			t.Fatalf("list order[%d] = %s, want %s", i, list.Jobs[i].ID, want)
		}
	}

	// limit truncates the page but Total still reports the full match.
	if code := getJSON(t, ts.URL+"/v1/jobs?limit=2", &list); code != http.StatusOK {
		t.Fatalf("list limit: http %d", code)
	}
	if list.Total != 3 || len(list.Jobs) != 2 || list.Jobs[0].ID != ids[2] {
		t.Fatalf("limited list = total %d, %d jobs starting %s; want 3, 2, %s",
			list.Total, len(list.Jobs), list.Jobs[0].ID, ids[2])
	}

	// State filtering.
	if code := getJSON(t, ts.URL+"/v1/jobs?state=done", &list); code != http.StatusOK || list.Total != 3 {
		t.Fatalf("state=done: http %d, total %d; want 200, 3", code, list.Total)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?state=running", &list); code != http.StatusOK || list.Total != 0 {
		t.Fatalf("state=running: http %d, total %d; want 200, 0", code, list.Total)
	}

	// Malformed parameters are rejected, not silently defaulted.
	if code := getJSON(t, ts.URL+"/v1/jobs?state=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("state=bogus: http %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?limit=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("limit=-1: http %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?limit=abc", nil); code != http.StatusBadRequest {
		t.Fatalf("limit=abc: http %d, want 400", code)
	}
}

func TestClientRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Runner: Compiler(instantCompile)})
	cl := NewClient(ts.URL + "/") // trailing slash must be tolerated
	ctx := contextWithTimeout(t, 30*time.Second)

	st, err := cl.Submit(ctx, SubmitRequest{
		Source:  Source{Sample: "threecnot"},
		Options: OptionSpec{Mode: "full"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.CacheKey == "" {
		t.Fatalf("submit status incomplete: %+v", st)
	}

	final, err := cl.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}

	payload, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if payload.Report.Volume != 7 {
		t.Fatalf("volume = %d, want the stand-in's 7", payload.Report.Volume)
	}

	list, err := cl.Jobs(ctx, StateDone, 10)
	if err != nil {
		t.Fatal(err)
	}
	if list.Total != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("jobs list = %+v, want exactly %s", list, st.ID)
	}

	h, err := cl.Healthz(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}
	m, err := cl.Metrics(ctx)
	if err != nil || m.Jobs.Done != 1 {
		t.Fatalf("metrics done = %d, %v; want 1", m.Jobs.Done, err)
	}

	// Error surfaces: a terminal job rejects cancel with a StatusError
	// the caller can classify; an unknown ID is a 404.
	if _, err := cl.Cancel(ctx, st.ID); !IsStatusCode(err, http.StatusConflict) {
		t.Fatalf("cancel done job: err = %v, want 409 StatusError", err)
	}
	if _, err := cl.Status(ctx, "j999999"); !IsStatusCode(err, http.StatusNotFound) {
		t.Fatalf("unknown job: err = %v, want 404 StatusError", err)
	}

	// Transport failures are NOT StatusErrors — the retry-policy
	// distinction the fleet dispatcher relies on.
	bad := NewClient("http://127.0.0.1:1")
	if _, err := bad.Healthz(ctx); err == nil || IsStatusCode(err, http.StatusNotFound) {
		t.Fatalf("unreachable daemon: err = %v, want a non-StatusError transport error", err)
	}
}
