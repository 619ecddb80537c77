package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"testing"
	"time"
)

const benchmarkJSON = "../BENCHMARK.json"

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the runner must agree: every declared workload has
// a runner and every runner is declared, and every name and unit has the
// shape the declaration format allows.
func TestSpecDeclaresTheRunner(t *testing.T) {
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range spec.Workloads {
		if !namePattern.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but has no runner", w.Name)
		}
	}
	for name := range workloads {
		if !spec.declares(name) {
			t.Errorf("runner %s is not declared", name)
		}
	}

	largest := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
			continue
		}
		largest = max(largest, *m.Bound)
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !namePattern.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitPattern.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	found := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			found = true
			if m.Unit != "s" || m.Better != "lower" || *m.Bound != largest {
				t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v", m)
			}
		}
	}
	if !found {
		t.Error("no setup_s metric")
	}
}

var tinyService = serviceSize{memTier: 16, storeBytes: 64 << 10, warmCold: 24, fleetKeys: 4, setups: 2, traceRounds: 10}

// tinyCircuits has as many classes as the benchmark's circuit list, all
// but one of them the smallest embedded sample.
var tinyCircuits = []string{fig1Circuit, "4gt10-v1_81", fig1Circuit, fig1Circuit}

// tinyWorkloads runs each workload at a size that takes about a second.
var tinyWorkloads = map[string]func(ctx context.Context, cfg config) (*outcome, error){
	"pipeline-route": func(ctx context.Context, cfg config) (*outcome, error) {
		return runPipeline(ctx, cfg, "pipeline-route", tinyCircuits, false)
	},
	"pipeline-place": func(ctx context.Context, cfg config) (*outcome, error) {
		return runPipeline(ctx, cfg, "pipeline-place", tinyCircuits, true)
	},
	"service": func(ctx context.Context, cfg config) (*outcome, error) {
		return runService(ctx, cfg, tinyService)
	},
}

// Every workload, traced, produces exactly the declared metrics, none of
// its end-to-end metrics is zero, no operation fails, and the trace file
// is written.
func TestWorkloadsProduceDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles circuits and serves requests for a few seconds")
	}
	spec, err := loadSpec(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			runner, ok := tinyWorkloads[w.Name]
			if !ok {
				t.Fatalf("no tiny size for workload %s", w.Name)
			}
			cfg := config{Seed: 2, Measure: 300 * time.Millisecond, Trace: true, OutDir: t.TempDir()}
			out, err := runner(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.failures)
			}
			if err := checkMetrics(spec.EndToEnd, out.endToEnd); err != nil {
				t.Error(err)
			}
			if err := checkMetrics(spec.PerLayer, out.perLayer); err != nil {
				t.Error(err)
			}
			for _, m := range spec.EndToEnd {
				if out.endToEnd[m.Name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, out.endToEnd[m.Name])
				}
			}
			if st, err := os.Stat(out.traceFile); err != nil || st.Size() == 0 {
				t.Errorf("trace file %q: %v", out.traceFile, err)
			}
		})
	}
}

// Cold requests that fail after set-up are counted, and the round keeps
// the queue of cold results intact, so a run with failing colds reports
// them instead of crashing.
func TestServiceCountsFailedColds(t *testing.T) {
	if testing.Short() {
		t.Skip("serves requests for about a second")
	}
	ctx := context.Background()
	cfg := config{Seed: 3, OutDir: t.TempDir()}
	e, release, err := startService(ctx, cfg, tinyService)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	e.sample = "no-such-sample"
	out := &outcome{}
	s := newServiceStats()
	rounds := 2 * tinyService.warmCold
	for i := 0; i < rounds; i++ {
		e.round(ctx, i, s, out, nil)
	}
	// Per round: the cold request fails, mem-hit and disk-hit are not
	// sent, and the fleet hit succeeds.
	if out.attempted != 4*rounds || out.failed != 3*rounds {
		t.Fatalf("attempted %d, failed %d; want %d and %d", out.attempted, out.failed, 4*rounds, 3*rounds)
	}
	if len(e.answers) != tinyService.warmCold || len(s.ms[classFleet]) != rounds {
		t.Fatalf("%d cold results queued, %d fleet hits", len(e.answers), len(s.ms[classFleet]))
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "service", "--trace", "2"},
		{"--workload", "service", "--seconds", "0"},
		{"runs", "-seeds", "1-10"},
		{"runs", "-out", "x.json", "-seeds", "3-1"},
		{"compare", "one.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "--spec", benchmarkJSON), &stdout, &stderr); code != 2 {
			t.Errorf("run %v = %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("run %v printed a result: %q", args, stdout.String())
		}
	}
}
