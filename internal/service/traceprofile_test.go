package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/obs"
)

// slowCompile holds the worker long enough for the slow-job threshold
// to fire, doing real work so the CPU profile has something to sample.
func slowCompile(d time.Duration) CompileFunc {
	return func(ctx context.Context, c *circuit.Circuit, opt compress.Options, seeds []int64, parallel int) (*compress.Result, error) {
		deadline := time.Now().Add(d)
		x := 1.0
		for time.Now().Before(deadline) {
			for i := 0; i < 1000; i++ {
				x = x*1.0000001 + float64(i)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
		}
		_ = x
		return &compress.Result{Name: c.Name, Volume: 7, PlacedVolume: 7, SeedsTried: len(seeds)}, nil
	}
}

// postJobWithHeaders submits a job with extra request headers (the
// plain postJob helper cannot set them).
func postJobWithHeaders(t *testing.T, url, body string, headers map[string]string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("submit response %q: %v", raw, err)
		}
	}
	return st, resp.StatusCode
}

func TestSlowProfileCapture(t *testing.T) {
	svc, ts := newTestServer(t, Config{
		Workers:          1,
		SlowProfileAfter: 20 * time.Millisecond,
		Runner:           Compiler(slowCompile(250 * time.Millisecond)),
	})
	_ = svc
	st, code := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: http %d", code)
	}
	st = waitState(t, ts, st.ID, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Error)
	}
	if !st.Profiled {
		t.Fatal("status.Profiled = false for a job that crossed the threshold")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: http %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("profile content type = %q", ct)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, st.ID+".pprof") {
		t.Fatalf("profile disposition = %q, want filename %s.pprof", cd, st.ID)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) == 0 {
		t.Fatal("profile body is empty")
	}
}

func TestSlowProfileNotCrossed(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:          1,
		SlowProfileAfter: time.Hour,
		Runner:           Compiler(instantCompile),
	})
	st, _ := postJob(t, ts, `{"source":{"sample":"threecnot"}}`)
	st = waitState(t, ts, st.ID, 10*time.Second)
	if st.Profiled {
		t.Fatal("fast job reports Profiled")
	}
	var e errorResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/profile", &e); code != http.StatusNotFound {
		t.Fatalf("profile for fast job: http %d, want 404", code)
	}
}

// TestSubmitTraceparentLink: a traced submission carrying a valid
// traceparent header produces a span tree linked into the caller's
// distributed trace; a malformed header degrades to a fresh local root
// without failing the job.
func TestSubmitTraceparentLink(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Runner:  Compiler(instantCompile),
		Logger:  slog.New(slog.NewTextHandler(&logBuf, nil)),
	})

	tc := obs.NewTraceContext()
	st, code := postJobWithHeaders(t, ts.URL,
		`{"source":{"sample":"threecnot"},"trace":true}`,
		map[string]string{
			obs.TraceparentHeader: tc.Traceparent(),
			obs.RequestIDHeader:   "req-linktest",
		})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: http %d", code)
	}
	st = waitState(t, ts, st.ID, 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("job state = %s (err %q)", st.State, st.Error)
	}

	var tree obs.SpanJSON
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/trace", &tree); code != http.StatusOK {
		t.Fatalf("trace: http %d", code)
	}
	if tree.TraceID != tc.TraceID || tree.ParentSpanID != tc.SpanID {
		t.Fatalf("trace identity = %q/%q, want %q/%q",
			tree.TraceID, tree.ParentSpanID, tc.TraceID, tc.SpanID)
	}
	if tree.EpochUnixUS == 0 {
		t.Fatal("linked trace has no epoch anchor for stitching")
	}
	if !strings.Contains(logBuf.String(), "req_id=req-linktest") {
		t.Error("job log lines not correlated with the X-Request-ID")
	}

	// Malformed header: warn + fresh local root, job still runs.
	st2, code := postJobWithHeaders(t, ts.URL,
		`{"source":{"sample":"threecnot"},"trace":true}`,
		map[string]string{obs.TraceparentHeader: "00-garbage-01"})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit with bad traceparent: http %d", code)
	}
	st2 = waitState(t, ts, st2.ID, 10*time.Second)
	if st2.State != StateDone {
		t.Fatalf("job with bad traceparent = %s (err %q)", st2.State, st2.Error)
	}
	var tree2 obs.SpanJSON
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st2.ID+"/trace", &tree2); code != http.StatusOK {
		t.Fatalf("trace: http %d", code)
	}
	if tree2.TraceID != "" || tree2.ParentSpanID != "" {
		t.Fatalf("malformed header leaked identity %q/%q into the trace", tree2.TraceID, tree2.ParentSpanID)
	}
	if !strings.Contains(logBuf.String(), "bad traceparent") {
		t.Error("malformed traceparent not logged")
	}
}
