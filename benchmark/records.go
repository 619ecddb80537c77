package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// record is what the runs subcommand writes: every run's printed report
// and result line, and per workload and metric the summary of its values.
type record struct {
	RunSeconds int                           `json:"run_seconds"`
	Trace      int                           `json:"trace"`
	Runs       []runRecord                   `json:"runs"`
	Summary    map[string]map[string]summary `json:"summary"`
}

type runRecord struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	WallS    float64    `json:"wall_s"`
	Report   []string   `json:"report"`
	Result   resultLine `json:"result"`
}

// summary is one metric's values over a set of runs of one workload.
type summary struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is the distance between the quartiles as a share of the
	// median.
	Spread float64 `json:"spread"`
}

// runTimeout bounds one child run; the benchmark's own limit is 180 s.
const runTimeout = 180 * time.Second

// runSet implements the runs subcommand: it runs every workload once per
// seed, each in a child process of this binary, seeds in the outer loop
// so that a slow spell of the machine lands on every workload alike, and
// writes the record.
func runSet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark runs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "record file to write (required)")
	seeds := fs.String("seeds", "1-10", "workload seeds, as first-last")
	only := fs.String("workloads", "", "comma-separated workloads (default: all declared)")
	trace := fs.Int("trace", 0, "trace setting passed to every run")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	first, last, err := parseSeeds(*seeds)
	if *out == "" || err != nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark runs: need -out, -seeds first-last and -trace 0 or 1")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark runs:", err)
		return 1
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark runs:", err)
		return 1
	}

	rec := record{RunSeconds: spec.RunSeconds, Trace: *trace, Summary: map[string]map[string]summary{}}
	for seed := first; seed <= last; seed++ {
		for _, w := range names {
			r, err := childRun(self, *specPath, spec.RunSeconds, w, seed, *trace, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark runs: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			fmt.Fprintf(stdout, "%-16s seed %3d  %6.1f s  correct %t  attempted %d  failed %d\n",
				w, seed, r.WallS, r.Result.Correct, r.Result.Attempted, r.Result.Failed)
			rec.Runs = append(rec.Runs, r)
		}
	}
	metrics := spec.EndToEnd
	if *trace == 1 {
		metrics = spec.PerLayer
	}
	for _, w := range names {
		rec.Summary[w] = summarize(rec.Runs, w, metrics)
	}
	raw, err := json.MarshalIndent(rec, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(raw, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark runs:", err)
		return 1
	}
	printSpreads(stdout, names, metrics, rec.Summary)
	return 0
}

func parseSeeds(s string) (first, last int64, err error) {
	lo, hi, found := strings.Cut(s, "-")
	if first, err = strconv.ParseInt(lo, 10, 64); err != nil {
		return 0, 0, err
	}
	last = first
	if found {
		if last, err = strconv.ParseInt(hi, 10, 64); err != nil {
			return 0, 0, err
		}
	}
	if last < first {
		return 0, 0, fmt.Errorf("seeds %q run backwards", s)
	}
	return first, last, nil
}

// childRun runs one workload in a child process and parses the result
// line it ends with.
func childRun(self, specPath string, seconds int, workload string, seed int64, trace int, stderr io.Writer) (runRecord, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--spec", specPath, "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	t0 := time.Now()
	err := cmd.Run()
	r := runRecord{Workload: workload, Seed: seed, WallS: time.Since(t0).Seconds()}
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	r.Report = lines[:len(lines)-1]
	return r, nil
}

func summarize(runs []runRecord, workload string, metrics []metricSpec) map[string]summary {
	out := map[string]summary{}
	for _, m := range metrics {
		var xs []float64
		for _, r := range runs {
			if r.Workload == workload {
				xs = append(xs, r.Result.Metrics[m.Name].Value)
			}
		}
		q1, q3 := quartiles(xs)
		out[m.Name] = summary{Values: xs, Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs)}
	}
	return out
}

// printSpreads prints each metric's median and spread, and for an
// end-to-end metric how the spread compares with its bound: a benchmark
// is steady when every spread but setup_s's is below a third of its
// bound.
func printSpreads(w io.Writer, workloads []string, metrics []metricSpec, sum map[string]map[string]summary) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n", wl)
		for _, m := range metrics {
			s := sum[wl][m.Name]
			note := ""
			if m.Bound != nil && m.Name != "setup_s" {
				switch {
				case s.Spread < *m.Bound/3:
					note = "ok"
				case s.Spread <= *m.Bound:
					note = "within bound"
				default:
					note = "OVER BOUND"
				}
			}
			fmt.Fprintf(w, "  %-28s median %14.6g  spread %6.2f%%  %s\n", m.Name, s.Median, 100*s.Spread, note)
		}
	}
}

// compareSets implements the compare subcommand. For each workload it
// prints one row: per end-to-end metric, the change of the median from
// the base set to the new one and a verdict. `better` means every new run
// reads better than every base run; `worse`, that the median got worse by
// more than the metric's bound; `unresolved`, that either set's own
// spread exceeds the bound; `unchanged` otherwise. It exits 1 when any
// metric is worse.
func compareSets(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] base.json new.json")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 1
	}
	var sets [2]record
	for i, path := range fs.Args() {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %s: %v\n", path, err)
			return 1
		}
	}
	worse := 0
	for _, w := range spec.Workloads {
		base, okB := sets[0].Summary[w.Name]
		next, okN := sets[1].Summary[w.Name]
		if !okB || !okN {
			continue
		}
		var cells []string
		for _, m := range spec.EndToEnd {
			b, okB := base[m.Name]
			n, okN := next[m.Name]
			if !okB || !okN || m.Bound == nil {
				continue
			}
			v := verdict(m, b, n)
			if v == "worse" {
				worse++
			}
			cells = append(cells, fmt.Sprintf("%s %+.1f%% %s", m.Name, 100*ratio(n.Median-b.Median, b.Median), v))
		}
		fmt.Fprintf(stdout, "%-16s %s\n", w.Name, strings.Join(cells, " | "))
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// verdict judges one metric of one workload between two sets of runs.
func verdict(m metricSpec, base, next summary) string {
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	allBetter := len(base.Values) > 0 && len(next.Values) > 0
	for _, n := range next.Values {
		for _, b := range base.Values {
			if sign*n >= sign*b {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better"
	case sign*ratio(next.Median-base.Median, base.Median) > *m.Bound:
		return "worse"
	case max(base.Spread, next.Spread) > *m.Bound:
		return "unresolved"
	}
	return "unchanged"
}
