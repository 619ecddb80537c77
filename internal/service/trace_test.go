package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"tqec/internal/obs"
)

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

// TestSubmitTraceparentLink: a traced submission's X-Request-ID lands on
// every log line of the job as req_id, and its queue wait on the trace
// root as queued_us. A traceparent header, which clients built before
// trace IDs were dropped still send, is ignored: the job is traced as a
// local root.
func TestSubmitTraceparentLink(t *testing.T) {
	var logBuf bytes.Buffer
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Runner:  Compiler(instantCompile),
		Logger:  slog.New(slog.NewTextHandler(&logBuf, nil)),
	})

	st, code := postJobWithHeaders(t, ts.URL,
		`{"source":{"sample":"threecnot"},"trace":true}`,
		map[string]string{
			"traceparent":       "00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-01",
			obs.RequestIDHeader: "req-linktest",
		})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: http %d", code)
	}
	st = waitState(t, ts, st.ID, 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("job state = %s (err %q)", st.State, st.Error)
	}

	var tree map[string]any
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/trace", &tree); code != http.StatusOK {
		t.Fatalf("trace: http %d", code)
	}
	attrs, _ := tree["attrs"].(map[string]any)
	if q, ok := attrs["queued_us"].(float64); !ok || q < 0 {
		t.Fatalf("trace root attrs = %v, want a non-negative queued_us", attrs)
	}
	for _, k := range []string{"trace_id", "parent_span_id", "epoch_unix_us"} {
		if v, ok := tree[k]; ok {
			t.Fatalf("trace root carries %s = %v; the traceparent header should be ignored", k, v)
		}
	}
	if !strings.Contains(logBuf.String(), "req_id=req-linktest") {
		t.Error("job log lines not correlated with the X-Request-ID")
	}
}
