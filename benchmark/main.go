// Command benchmark is the repository's performance benchmark. One run
// executes one workload for a fixed measuring time, checks every output
// it produces, prints each metric by name with its unit, and ends with
// one JSON line:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones BENCHMARK.json
// declares, measured untraced; with --trace 1 they are the per-layer ones,
// and the run adds a traced pass whose span tree it writes to the output
// directory. README.md in this directory documents the workloads and
// every metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash benchmark/run.sh --workload pipeline-route --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh runs -out base.json -seeds 1-10 [-workloads a,b] [-trace 0]
//	bash benchmark/run.sh compare base.json new.json
//
// The runs subcommand runs every workload once per seed, each run in its
// own process, and writes a record of the results with each metric's
// median, quartiles and spread; compare judges two such records metric
// by metric (see records.go).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is what every workload receives: the workload seed, from which
// it derives all of its inputs, the measuring time, and whether to add
// the traced pass.
type config struct {
	Seed    int64
	Measure time.Duration
	Trace   bool
	// OutDir receives trace files and scratch data (the service
	// workload's data directory).
	OutDir string
}

// outcome is one workload run's result before it is checked against the
// declared metric set.
type outcome struct {
	attempted, failed int
	failures          []string // the first few failure messages
	endToEnd          map[string]float64
	perLayer          map[string]float64
	// classes are the per-class latency samples, printed with their
	// count and the highest percentile they support.
	classes   []class
	traceFile string
}

// class is one kind of operation a workload times: a circuit for the
// pipeline workloads, a request class for the service.
type class struct {
	name string
	ms   []float64
}

const maxFailureMessages = 5

// fail counts one failed operation and keeps its message if there is
// room.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < maxFailureMessages {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps each declared workload to its runner. The sizes passed
// here are the benchmark's; the tests pass smaller ones.
var workloads = map[string]func(ctx context.Context, cfg config) (*outcome, error){
	"pipeline-route": func(ctx context.Context, cfg config) (*outcome, error) {
		return runPipeline(ctx, cfg, "pipeline-route", pipelineCircuits, false)
	},
	"pipeline-place": func(ctx context.Context, cfg config) (*outcome, error) {
		return runPipeline(ctx, cfg, "pipeline-place", pipelineCircuits, true)
	},
	"service": func(ctx context.Context, cfg config) (*outcome, error) {
		return runService(ctx, cfg, defaultServiceSize)
	},
}

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) declares(workload string) bool {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// checkMetrics verifies that a run produced exactly the declared metrics,
// each a finite number.
func checkMetrics(declared []metricSpec, got map[string]float64) error {
	want := map[string]bool{}
	var problems []string
	for _, m := range declared {
		want[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("%s is %v", m.Name, v))
		}
	}
	for name := range got {
		if !want[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(problems, ", "))
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "runs":
			return runSet(args[1:], stdout, stderr)
		case "compare":
			return compareSets(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: every input is derived from it")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics plus a traced pass")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	outDir := fs.String("out", ".bench_build", "directory for trace files and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "benchmark: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	runner, ok := workloads[*workload]
	if !ok || !spec.declares(*workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{
		Seed:    *seed,
		Measure: time.Duration(*seconds * float64(time.Second)),
		Trace:   *trace == 1,
		OutDir:  *outDir,
	}
	out, err := runner(ctx, cfg)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}

	declared, metrics := spec.EndToEnd, out.endToEnd
	if cfg.Trace {
		declared, metrics = spec.PerLayer, out.perLayer
	}
	if err := checkMetrics(declared, metrics); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	if err := report(stdout, *workload, cfg, out, declared, metrics); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	for _, msg := range out.failures {
		fmt.Fprintln(stderr, "benchmark: failed:", msg)
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable summary and the closing JSON line.
func report(w io.Writer, workload string, cfg config, out *outcome, declared []metricSpec, metrics map[string]float64) error {
	fmt.Fprintf(w, "workload %s  seed %d  measure %s  trace %t\n", workload, cfg.Seed, cfg.Measure, cfg.Trace)
	fmt.Fprintf(w, "attempted %d  failed %d  error_rate %.4g\n", out.attempted, out.failed, errorRate(out.failed, out.attempted))
	for _, c := range out.classes {
		fmt.Fprintf(w, "class %-14s n=%-6d p50=%.4g ms", c.name, len(c.ms), median(c.ms))
		if p := highestPercentile(len(c.ms)); p > 50 {
			fmt.Fprintf(w, "  p%g=%.4g ms", p, quantile(c.ms, p/100))
		}
		fmt.Fprintln(w)
	}
	if out.traceFile != "" {
		fmt.Fprintf(w, "trace %s\n", out.traceFile)
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range declared {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.Name, metrics[m.Name], m.Unit)
		line.Metrics[m.Name] = metricValue{Value: metrics[m.Name], Unit: m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// timeSetups runs setup n times and returns the median duration in
// seconds; the environment of the last call is kept, the earlier ones
// are released through their cleanup function.
func timeSetups[T any](n int, setup func() (T, func(), error)) (T, func(), float64, error) {
	var (
		env     T
		release = func() {}
		secs    []float64
	)
	for i := 0; i < n; i++ {
		release()
		t0 := time.Now()
		e, rel, err := setup()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			var zero T
			return zero, func() {}, 0, err
		}
		env, release = e, rel
	}
	return env, release, median(secs), nil
}
