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
	)
	flag.Parse()
	switch *table {
	case "1", "2", "3", "all", "none":
	default:
		fmt.Fprintf(os.Stderr, "tqec-bench: unknown -table %q (want 1|2|3|all|none)\n", *table)
		os.Exit(2)
	}

	// Interrupt cancels the in-flight compile at its next iteration
	// boundary instead of leaving a half-printed sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eff, err := compress.ParseEffort(*effort)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqec-bench:", err)
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
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqec-bench:", err)
		os.Exit(1)
	}
}
