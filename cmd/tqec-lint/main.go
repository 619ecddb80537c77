// Command tqec-lint runs the design-rule checker over a circuit compiled
// through the full compression pipeline, or over a saved geometry dump,
// and reports every violation with its rule, severity, stage, and
// location. The exit status is 1 when error-severity violations exist, so
// the tool gates CI pipelines.
//
// Usage:
//
//	tqec-lint -sample threecnot
//	tqec-lint -in circuit.real -mode dual -effort normal
//	tqec-lint -bench 4gt10-v1_81 -json report.json
//	tqec-lint -geom geometry.json         # lint an exported geometry dump (no source flag)
//	tqec-lint -list                        # list the registered rules
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"tqec/internal/compress"
	"tqec/internal/drc"
	"tqec/internal/geom"
	"tqec/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tqec-lint", flag.ContinueOnError)
	var (
		inReal      = fs.String("in", "", "RevLib .real circuit file")
		inText      = fs.String("text", "", "plain-text gate-list circuit file")
		sample      = fs.String("sample", "", "embedded sample name (threecnot, toffoli3, mixed4)")
		benchName   = fs.String("bench", "", "synthetic Table-1 benchmark name")
		geomDump    = fs.String("geom", "", "lint a saved geometry JSON dump instead of compiling")
		mode        = fs.String("mode", "full", "compression mode: full | dual | deform")
		effort      = fs.String("effort", "fast", "optimization effort: fast | normal | high")
		seed        = fs.Int64("seed", 1, "random seed for all stochastic stages")
		skipRouting = fs.Bool("skip-routing", false, "stop after placement (route/geometry rules are skipped)")
		rules       = fs.String("rules", "", "comma-separated rule names to run (default: all)")
		jsonOut     = fs.String("json", "", "write the machine-readable report to this file")
		list        = fs.Bool("list", false, "list the registered rules and exit")
		quiet       = fs.Bool("quiet", false, "print only the summary line")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, r := range drc.Rules() {
			fmt.Printf("%-22s %-13s %-5s %s\n", r.Name, r.Stage, r.Severity, r.Doc)
		}
		return 0
	}

	var report *drc.Report
	opt := drc.Options{}
	if *rules != "" {
		for _, n := range strings.Split(*rules, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, ok := drc.RuleByName(n); !ok {
				fmt.Fprintf(os.Stderr, "tqec-lint: unknown rule %q (see -list)\n", n)
				return 2
			}
			opt.Rules = append(opt.Rules, n)
		}
	}

	switch {
	case *geomDump != "":
		if *inReal != "" || *inText != "" || *sample != "" || *benchName != "" {
			fmt.Fprintln(os.Stderr, "tqec-lint: source: -geom lints a saved dump and takes no -in, -text, -sample or -bench")
			return 2
		}
		f, err := os.Open(*geomDump)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqec-lint:", err)
			return 2
		}
		desc, err := geom.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqec-lint:", err)
			return 2
		}
		report = drc.Run(&drc.Artifacts{Name: *geomDump, Geometry: desc}, opt)
	default:
		src, err := service.LocalSource(*inReal, *inText, *sample, *benchName, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqec-lint:", err)
			return 2
		}
		c, err := src.Load()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqec-lint:", err)
			return 2
		}
		copt, _, err := service.OptionSpec{Mode: *mode, Effort: *effort, SkipRouting: *skipRouting}.Resolve()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqec-lint:", err)
			return 2
		}
		copt.Seed, copt.KeepGeometry = *seed, true
		res, err := compress.CompileContext(context.Background(), c, copt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqec-lint:", err)
			return 2
		}
		report = drc.Run(res.DRCArtifacts, opt)
	}

	if *quiet {
		fmt.Println(report.Summary())
	} else {
		fmt.Print(report.String())
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqec-lint:", err)
			return 2
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "tqec-lint:", err)
			return 2
		}
	}
	if !report.Clean() {
		return 1
	}
	return 0
}
