package obs

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// roundTripRegistry holds every family kind, a label value carrying each
// escaped byte, and a counter past the point where Go's shortest float
// form switches to an exponent.
func roundTripRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_jobs_total", "Jobs.").Add(1_234_567)
	r.CounterFunc("test_store_hits_total", "Hits.", func() float64 { return 1e6 })
	r.Gauge("test_running", "Running.").Set(-2)
	r.GaugeFunc("test_depth", "Depth\\with\nhelp.", func() float64 { return 2.5 })
	v := r.GaugeVec("test_offset_us", "Offset.", "worker")
	v.With("w1").Set(0.125)
	v.With("a\\b \"quoted\"\nline").Set(-3e-9)
	h := r.Histogram("test_latency_ms", "Latency.", []float64{1, 10, 100})
	for _, x := range []float64{0.5, 50, 5000} {
		h.Observe(x)
	}
	r.HistogramFunc("test_pauses_seconds", "Pauses.", func() HistSnapshot {
		return HistSnapshot{Bounds: []float64{1e-6, 0.5}, Counts: []int64{3, 0, 1}, Sum: 0.75, Count: 4}
	})
	hv := r.HistogramVec("test_stage_ms", "Stage.", "stage", []float64{1, 2.5})
	hv.With("place").Observe(2)
	hv.With(`we"ird\stage`).Observe(7)
	return r
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	r := roundTripRegistry()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	if want := r.Gather(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed exposition differs from Gather\n got %+v\nwant %+v\n--- text ---\n%s", got, want, b.String())
	}
	if !strings.Contains(b.String(), "\ntest_jobs_total 1234567\n") {
		t.Fatalf("large counter not rendered in full:\n%s", b.String())
	}
}

func TestParsePrometheusRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"m",
		"m{a=\"b\"}",
		"m 1 2",
		"m one",
		"1m 1",
		"m{a=b} 1",
		"m{a=\"b\" 1",
		"m{a=\"b\"c=\"d\"} 1",
		"m{=\"b\"} 1",
		"m{a=\"unterminated} 1",
	} {
		if s, err := ParsePrometheus(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParsePrometheus(%q) = %+v, want an error", bad, s)
		}
	}
}

// FuzzParsePrometheus feeds the scrape parser arbitrary bytes, as a worker
// could send: it must not panic, and whatever it accepts must render and
// parse back to the same samples.
func FuzzParsePrometheus(f *testing.F) {
	var b strings.Builder
	if err := roundTripRegistry().WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())
	f.Add("m{a=\"x\\\"y\", b = \"p\\\\q\",} NaN\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\n")
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParsePrometheus(strings.NewReader(text))
		if err != nil {
			return
		}
		var out strings.Builder
		for _, s := range samples {
			writeSample(&out, s)
		}
		again, err := ParsePrometheus(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-parse of %q: %v", out.String(), err)
		}
		if len(again) != len(samples) {
			t.Fatalf("re-parse gave %d samples, want %d", len(again), len(samples))
		}
		for i, s := range samples {
			a := again[i]
			same := a.Value == s.Value || (math.IsNaN(a.Value) && math.IsNaN(s.Value))
			if a.Name != s.Name || !reflect.DeepEqual(a.Labels, s.Labels) || !same {
				t.Fatalf("sample %d: %+v re-parsed as %+v", i, s, a)
			}
		}
	})
}
