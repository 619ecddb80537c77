// Command tqec-bench regenerates the paper's evaluation: Table 1
// (benchmark statistics), Table 2 (canonical and Lin-et-al. volumes),
// Table 3 (dual-only [10] vs. ours), and the Fig. 1 volume ladder.
//
// Usage:
//
//	tqec-bench -table all -n 3            # three smallest benchmarks
//	tqec-bench -table 3 -n 8 -effort normal
//	tqec-bench -fig1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"tqec/internal/bench"
	"tqec/internal/compress"
)

func main() {
	var (
		table       = flag.String("table", "all", "which table to regenerate: 1 | 2 | 3 | all | none")
		fig1        = flag.Bool("fig1", true, "also reproduce the Fig. 1 three-CNOT ladder")
		n           = flag.Int("n", len(bench.Table1), "number of benchmarks (smallest first)")
		only        = flag.String("only", "", "run a single benchmark by name")
		seed        = flag.Int64("seed", 1, "random seed")
		effort      = flag.String("effort", "fast", "Table-3 effort: fast | normal | high")
		skipRouting = flag.Bool("skip-routing", false, "Table 3: stop after placement")
		jsonOut     = flag.String("json", "", "also write a machine-readable report to this file")
		effortCurve = flag.String("effort-curve", "", "also run the quality-vs-budget curve on this benchmark")
		tag         = flag.String("tag", "", "also run a timing trajectory and write it to BENCH_<tag>.json (CI artifact)")
		compareTo   = flag.String("compare", "", "re-run the trajectory of this baseline file (BENCH_seed.json) and report per-stage time and volume deltas")
		tolerance   = flag.Float64("tolerance", bench.DefaultCompareTolerance, "relative slack for -compare before a delta counts as a regression")
		strict      = flag.Bool("compare-strict", false, "exit nonzero when -compare finds regressions (default: warn only)")
	)
	flag.Parse()

	// Interrupt cancels the in-flight compile at its next iteration
	// boundary instead of leaving a half-printed sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eff := compress.EffortFast
	switch *effort {
	case "fast":
	case "normal":
		eff = compress.EffortNormal
	case "high":
		eff = compress.EffortHigh
	default:
		fmt.Fprintf(os.Stderr, "tqec-bench: unknown effort %q\n", *effort)
		os.Exit(1)
	}
	specs := bench.Small(*n)
	if *only != "" {
		spec, ok := bench.ByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "tqec-bench: unknown benchmark %q\n", *only)
			os.Exit(1)
		}
		specs = []bench.Spec{spec}
	}

	var (
		figResult *bench.Fig1Result
		t1Rows    []bench.Table1Row
		t2Rows    []bench.Table2Row
		t3Rows    []bench.Table3Row
	)
	if *fig1 {
		r, err := bench.RunFig1(ctx, *seed)
		fail(err)
		figResult = &r
		fmt.Print(bench.FormatFig1(r))
		fmt.Println()
	}
	var ours map[string]int
	if *table == "3" || *table == "all" {
		var err error
		t3Rows, err = bench.RunTable3(ctx, specs, bench.Table3Options{Seed: *seed, Effort: eff, SkipRouting: *skipRouting})
		fail(err)
		ours = map[string]int{}
		for _, r := range t3Rows {
			ours[r.Name] = r.Ours
		}
		defer func() {
			fmt.Print(bench.FormatTable3(t3Rows))
		}()
	}
	if *table == "1" || *table == "all" {
		var err error
		t1Rows, err = bench.RunTable1(specs, *seed)
		fail(err)
		fmt.Print(bench.FormatTable1(t1Rows))
		fmt.Println()
	}
	if *table == "2" || *table == "all" {
		var err error
		t2Rows, err = bench.RunTable2(specs, *seed)
		fail(err)
		fmt.Print(bench.FormatTable2(t2Rows, ours))
		fmt.Println()
	}
	if *effortCurve != "" {
		spec, ok := bench.ByName(*effortCurve)
		if !ok {
			fmt.Fprintf(os.Stderr, "tqec-bench: unknown benchmark %q\n", *effortCurve)
			os.Exit(1)
		}
		pts, err := bench.RunEffortCurve(ctx, spec, *seed, *skipRouting)
		fail(err)
		fmt.Print(bench.FormatEffortCurve(spec.Name, pts))
		fmt.Println()
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		fail(err)
		rep := bench.BuildReport(*seed, figResult, t1Rows, t2Rows, t3Rows)
		fail(rep.WriteJSON(f))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	if *tag != "" {
		traj, err := bench.RunTrajectory(ctx, *tag, specs, *seed, eff, *skipRouting)
		fail(err)
		path := fmt.Sprintf("BENCH_%s.json", *tag)
		f, err := os.Create(path)
		fail(err)
		fail(traj.WriteJSON(f))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	if *compareTo != "" {
		fail(runCompare(ctx, *compareTo, *tolerance, *strict))
	}
}

// runCompare replays the baseline trajectory's exact configuration —
// its seed, effort, routing mode, and benchmark set, NOT this
// invocation's flags — and prints the delta report. With strict unset
// the report is informational (the CI step is warn-only: timings on CI
// runners are noisy).
func runCompare(ctx context.Context, path string, tolerance float64, strict bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	base, err := bench.ReadTrajectory(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	eff, ok := bench.EffortByName(base.Effort)
	if !ok {
		return fmt.Errorf("%s: unknown effort %q", path, base.Effort)
	}
	specs := make([]bench.Spec, 0, len(base.Entries))
	for _, e := range base.Entries {
		spec, ok := bench.ByName(e.Name)
		if !ok {
			return fmt.Errorf("%s: unknown benchmark %q", path, e.Name)
		}
		specs = append(specs, spec)
	}
	cur, err := bench.RunTrajectory(ctx, "current", specs, base.Seed, eff, base.SkipRouting)
	if err != nil {
		return err
	}
	cmp := bench.Compare(base, cur, tolerance)
	fmt.Print(bench.FormatComparison(cmp))
	if strict && cmp.Regressions > 0 {
		return fmt.Errorf("%d regression(s) against %s", cmp.Regressions, path)
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqec-bench:", err)
		os.Exit(1)
	}
}
