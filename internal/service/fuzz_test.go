package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tqec/internal/circuit"
	"tqec/internal/obs"
	"tqec/internal/revlib"
)

// FuzzSubmit drives POST /v1/jobs, the one submit decoder every tqecd
// role runs: whatever the body, the handler must not panic and must
// answer a bad submission with a 4xx, never a 5xx. The seeds are the CI
// smoke bodies plus every source kind, valid and broken.
func FuzzSubmit(f *testing.F) {
	for _, body := range []string{
		`{"source":{"sample":"threecnot"},"options":{"mode":"full","seeds":[1],"drc":true}}`,
		`{"source":{"sample":"threecnot"},"options":{"mode":"full","seeds":[1]},"no_cache":true}`,
		`{"source":{"sample":"mixed4"},"options":{"mode":"full","seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"parallel":1}}`,
		`{"source":{"sample":"mixed4"},"options":{"mode":"full","seeds":[1]},"trace":true}`,
		`{"source":{"bench":"4gt10-v1_81","gen_seed":3},"options":{"effort":"normal","skip_routing":true}}`,
		`{"source":{"sample":"threecnot","bench":"4gt10-v1_81"}}`,
		`{"source":{"sample":"nope"},"options":{"mode":"sideways","effort":"max"}}`,
		`{"source":{},"timeout_ms":-1,"extra":true}`,
		`{"source":{"text":"qubits 0\ncnot 0 9\n"}}`,
		`not json`,
		``,
	} {
		f.Add(body)
	}
	// Every inline source kind, well-formed and truncated.
	toffoli := revlib.Samples["toffoli3"]
	c, err := revlib.ParseString(toffoli)
	if err != nil {
		f.Fatal(err)
	}
	var text strings.Builder
	if err := circuit.WriteText(&text, c); err != nil {
		f.Fatal(err)
	}
	for _, src := range []Source{{Real: toffoli}, {Real: toffoli[:len(toffoli)/2]}, {Text: text.String()}, {Text: text.String()[:text.Len()/2]}} {
		body, err := json.Marshal(SubmitRequest{Source: src})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}

	svc := New(context.Background(), Config{
		Workers:         2,
		QueueDepth:      1 << 12,
		MaxFinishedJobs: 16,
		JournalEvents:   -1,
		Logger:          obs.NopLogger(),
		Runner:          Compiler(instantCompile),
	})
	f.Cleanup(svc.Close)
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK || code == http.StatusAccepted:
		case code >= 400 && code < 500:
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("http %d without an error message: %q", code, rec.Body.String())
			}
		default:
			t.Fatalf("http %d for body %q: %s", code, body, rec.Body.String())
		}
	})
}
