package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(1) // le="1" is inclusive
	h.Observe(5)
	h.Observe(100)
	h.ObserveDuration(2 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	want := []int64{2, 2, 1} // (..1], (1..10], (10..+Inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Sum != 0.5+1+5+100+2 {
		t.Fatalf("sum = %f", s.Sum)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_jobs_total", "Jobs.")
	g := r.Gauge("test_running", "Running.")
	r.GaugeFunc("test_depth", "Depth.", func() float64 { return 2.5 })
	h := r.Histogram("test_latency_ms", "Latency.", []float64{1, 10, 100})
	v := r.HistogramVec("test_stage_ms", "Stage latency.", "stage", []float64{1, 10})
	r.Counter("test_bytes_total", "Bytes.").Add(1_234_567)
	r.CounterFunc("test_store_hits_total", "Hits.", func() float64 { return 1e6 })
	r.HistogramFunc("test_pauses_seconds", "Pauses.", func() HistSnapshot {
		return HistSnapshot{Bounds: []float64{1e-6, 0.5}, Counts: []int64{3, 0, 1}, Sum: 0.75, Count: 4}
	})
	r.HistogramVec("test_offset_ms", "Offset\\with\nhelp.", "worker", []float64{1}).With("a\\b \"quoted\"\nline").Observe(0.125)

	c.Add(3)
	g.Set(1)
	h.Observe(0.5)
	h.Observe(50)
	h.Observe(5000)
	v.With("place").Observe(2)
	v.With(`we"ird\stage`).Observe(1)

	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# HELP test_jobs_total Jobs.\n",
		"# TYPE test_jobs_total counter\n",
		"test_jobs_total 3\n",
		"# TYPE test_running gauge\n",
		"test_running 1\n",
		"# TYPE test_depth gauge\n",
		"test_depth 2.5\n",
		"# TYPE test_latency_ms histogram\n",
		`test_latency_ms_bucket{le="1"} 1` + "\n",
		`test_latency_ms_bucket{le="10"} 1` + "\n",
		`test_latency_ms_bucket{le="100"} 2` + "\n",
		`test_latency_ms_bucket{le="+Inf"} 3` + "\n",
		"test_latency_ms_sum 5050.5\n",
		"test_latency_ms_count 3\n",
		`test_stage_ms_bucket{stage="place",le="10"} 1` + "\n",
		`test_stage_ms_sum{stage="place"} 2` + "\n",
		`test_stage_ms_count{stage="place"} 1` + "\n",
		// Spec escaping of quote and backslash in label values.
		`test_stage_ms_sum{stage="we\"ird\\stage"} 1` + "\n",
		// Integral values print in full, not as 1.234567e+06.
		"test_bytes_total 1234567\n",
		"# TYPE test_store_hits_total counter\n",
		"test_store_hits_total 1000000\n",
		"# TYPE test_pauses_seconds histogram\n",
		`test_pauses_seconds_bucket{le="1e-06"} 3` + "\n",
		`test_pauses_seconds_bucket{le="+Inf"} 4` + "\n",
		"test_pauses_seconds_sum 0.75\n",
		// Help text escapes backslash and newline; a label value escapes
		// backslash, quote and newline.
		`# HELP test_offset_ms Offset\\with\nhelp.` + "\n",
		`test_offset_ms_sum{worker="a\\b \"quoted\"\nline"} 0.125` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}

	// Cumulative buckets must be monotonically non-decreasing and end at
	// the series count.
	assertBucketsMonotone(t, out, "test_latency_ms_bucket{le=")
}

// assertBucketsMonotone walks the rendered bucket lines of one series and
// checks the le-cumulative invariant.
func assertBucketsMonotone(t *testing.T, exposition, prefix string) {
	t.Helper()
	prev := int64(-1)
	n := 0
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		val, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if val < prev {
			t.Fatalf("bucket series not cumulative: %q after %d", line, prev)
		}
		prev = val
		n++
	}
	if n == 0 {
		t.Fatalf("no bucket lines with prefix %q", prefix)
	}
}

// TestLabelValueEscaping pins the v0.0.4 escaping rules on a
// worker-id-shaped label value: exactly \\, \", and \n are escaped, and
// characters %q would mangle (tab, non-ASCII) pass through raw.
func TestLabelValueEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{`w1`, `w1`},
		{`host:8151`, `host:8151`},
		{`w"1`, `w\"1`},
		{`a\b`, `a\\b`},
		{"line1\nline2", `line1\nline2`},
		// A tab must stay a raw tab: the exposition grammar defines no \t
		// escape, so emitting one (as %q would) corrupts the value.
		{"a\tb", "a\tb"},
		{"héllo", "héllo"},
	}
	for _, c := range cases {
		if got := EscapeLabelValue(c.in); got != c.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", c.in, got, c.want)
		}
	}

	// End to end: a HistogramVec keyed by a quote-bearing worker ID
	// renders a line a conforming scraper can parse back to the original
	// value.
	r := NewRegistry()
	r.HistogramVec("test_wait_ms", "Wait.", "worker", []float64{1}).With(`w"quote\id`).Observe(42)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `test_wait_ms_sum{worker="w\"quote\\id"} 42` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing %q\n--- got ---\n%s", want, buf.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_total", "second")
}

func TestVersionNonEmpty(t *testing.T) {
	if Version() == "" {
		t.Fatal("Version() returned empty string")
	}
}

func TestDebugMuxServesPprofIndex(t *testing.T) {
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	DebugMux().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}
