// Command tqecc compiles a quantum circuit to a compressed TQEC geometric
// description, reports the per-stage statistics and the resulting
// space-time volume, and checks the result.
//
// It takes exactly one source flag (-in, -text, -sample or -bench) and
// builds from its flags the request tqecd takes: it compiles that request
// in process, or submits it to a daemon with -server. Two source flags
// are an error, and -bench generates with -seed (seed 0 generates with 1).
// Two runs compile nothing: -geom checks a saved geometry dump and takes
// no source flag, and -canonical shows the circuit's canonical form.
//
// The exit status is 0 for a clean result; 1 when the result failed the
// schedule audit or an error-severity design rule; 2 when there is no
// result: a usage or source error, a compile error, a timeout, or a
// failed remote job.
//
// Usage:
//
//	tqecc -sample threecnot -mode full
//	tqecc -in circuit.real -mode dual -effort high
//	tqecc -bench 4gt10-v1_81 -skip-routing
//	tqecc -text circuit.tqc -viz -export geometry.obj
//	tqecc -bench 4gt10-v1_81 -rules schedule-order,place-order -json result.json
//	tqecc -geom geometry.json                 # check a saved geometry dump
//	tqecc -sample threecnot -canonical -viz   # the uncompiled canonical form
//	tqecc -rules list                         # the design-rule table
//	tqecc -sample threecnot -server http://localhost:8142   # compile on a daemon/fleet
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"tqec"
	"tqec/internal/compress"
	"tqec/internal/drc"
	"tqec/internal/geom"
	"tqec/internal/journal"
	"tqec/internal/obs"
	"tqec/internal/place"
	"tqec/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tqecc", flag.ContinueOnError)
	var (
		inReal      = fs.String("in", "", "RevLib .real circuit file")
		inText      = fs.String("text", "", "plain-text gate-list circuit file")
		sample      = fs.String("sample", "", "embedded sample name (threecnot, toffoli3, mixed4)")
		benchName   = fs.String("bench", "", "synthetic Table-1 benchmark name")
		geomDump    = fs.String("geom", "", "check this saved geometry JSON dump instead of compiling (takes no source flag)")
		mode        = fs.String("mode", "full", "compression mode: full | dual | deform")
		effort      = fs.String("effort", "fast", "optimization effort: fast | normal | high")
		seed        = fs.Int64("seed", 1, "random seed for all stochastic stages")
		skipRouting = fs.Bool("skip-routing", false, "stop after placement (fast, volume = placed volume)")
		measSide    = fs.Bool("im-measurement-side", false, "also I-shape-merge measurement-side control pairs")
		timeout     = fs.Duration("timeout", 0, "abort the compile after this long (0 = no deadline)")
		runDRC      = fs.Bool("drc", false, "run the design-rule checker over the result")
		rules       = fs.String("rules", "", "run only these comma-separated design rules (implies -drc); \"list\" prints the rule table")
		canonical   = fs.Bool("canonical", false, "show the circuit's uncompiled canonical form instead of compiling it")
		viz         = fs.Bool("viz", false, "dump ASCII layers of the geometry")
		export      = fs.String("export", "", "write the geometry to this file, as OBJ (.obj) or JSON (.json)")
		jsonOut     = fs.String("json", "", "write the result document (tqecd's result payload) to this file")
		traceOut    = fs.String("trace", "", "record a pipeline trace and write it to this file in Chrome trace_event format (chrome://tracing, Perfetto); with -server, the daemon traces the job and the stitched trace is fetched when it finishes")
		explain     = fs.Bool("explain", false, "print the compression journal: the per-stage volume waterfall, anneal/route trajectories, and warnings")
		explainJSON = fs.String("explain-json", "", "write the compression journal as JSON to this file (implies journaling)")
		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof on this address while compiling (e.g. localhost:6060)")
		server      = fs.String("server", "", "submit to a running tqecd (or fleet coordinator) at this base URL instead of compiling in-process")
		noCache     = fs.Bool("no-cache", false, "with -server: skip the daemon's result cache for this job")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *rules == "list" {
		for _, r := range drc.Rules() {
			fmt.Printf("%-22s %-13s %-5s %s\n", r.Name, r.Stage, r.Severity, r.Doc)
		}
		return 0
	}
	var drcOpt drc.Options
	for _, n := range strings.Split(*rules, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if _, ok := drc.RuleByName(n); !ok {
			return noResult(fmt.Errorf("unknown rule %q (see -rules list)", n))
		}
		drcOpt.Rules = append(drcOpt.Rules, n)
	}
	exportAs := map[string]func(*geom.Description, io.Writer) error{
		".obj": (*geom.Description).WriteOBJ, ".json": (*geom.Description).WriteJSON,
	}[strings.ToLower(filepath.Ext(*export))]
	explaining := *explain || *explainJSON != ""
	switch {
	case *geomDump != "" && (*inReal != "" || *inText != "" || *sample != "" || *benchName != "" || *canonical):
		return noResult(errors.New("source: -geom checks a saved dump and takes no -in, -text, -sample, -bench or -canonical"))
	case *server != "" && (*geomDump != "" || *canonical || *rules != "" || *viz || *export != "" || explaining):
		return noResult(errors.New("-geom, -canonical, -rules, -viz, -export and -explain* run locally; they cannot combine with -server"))
	case (*geomDump != "" || *canonical) && (explaining || *traceOut != ""):
		return noResult(errors.New("-explain* and -trace describe a compile; -geom and -canonical run none"))
	case *export != "" && exportAs == nil:
		return noResult(fmt.Errorf("-export %s: want a .obj or .json file", *export))
	}
	checks := *runDRC || *rules != "" || *geomDump != ""
	// check runs the selected rules over art, when the run asks for checks.
	check := func(ctx context.Context, art *drc.Artifacts) *drc.Report {
		if !checks {
			return nil
		}
		sp, _ := obs.StartSpan(ctx, "drc")
		defer sp.End()
		return drc.Run(art, drcOpt)
	}

	// Each run ends with a result document, and with the geometry it
	// holds and the schedule audit when it has them.
	var (
		p     *service.ResultPayload
		desc  *geom.Description
		audit *place.ScheduleAudit
		jr    *journal.Journal
	)
	switch {
	case *geomDump != "":
		f, err := os.Open(*geomDump)
		if err != nil {
			return noResult(err)
		}
		desc, err = geom.ReadJSON(f)
		f.Close()
		if err != nil {
			return noResult(err)
		}
		p = service.NewResultPayload(*geomDump, "", nil,
			check(context.Background(), &drc.Artifacts{Name: *geomDump, Geometry: desc}))
	default:
		src, err := service.LocalSource(*inReal, *inText, *sample, *benchName, *seed)
		if err != nil {
			return noResult(err)
		}
		req := service.SubmitRequest{
			Source: src,
			Options: service.OptionSpec{
				Mode:                  *mode,
				Effort:                *effort,
				Seeds:                 []int64{*seed},
				SkipRouting:           *skipRouting,
				MeasurementSideIShape: *measSide,
				DRC:                   checks,
			},
			TimeoutMS: timeout.Milliseconds(),
			NoCache:   *noCache,
			Trace:     *traceOut != "",
		}
		if *server != "" {
			if p, err = runRemote(*server, req, *traceOut); err != nil {
				return noResult(err)
			}
			printCompile(p, req.Options)
			break
		}
		c, err := req.Source.Load()
		if err != nil {
			return noResult(err)
		}
		if *canonical {
			rep, err := tqec.BuildICM(c)
			if err != nil {
				return noResult(err)
			}
			if desc, err = tqec.CanonicalDescription(rep); err != nil {
				return noResult(err)
			}
			p = service.NewResultPayload(c.Name, "", nil,
				check(context.Background(), &drc.Artifacts{Name: c.Name, ICM: rep, Geometry: desc}))
			fmt.Printf("canonical %s: volume %d\n", c.Name, desc.Volume())
			break
		}
		opt, seeds, err := req.Options.Resolve()
		if err != nil {
			return noResult(err)
		}
		key, err := service.CacheKey(c, opt, seeds)
		if err != nil {
			return noResult(err)
		}
		// The checks run below over the compile's artifacts, so that a
		// rule selection runs only its rules; the geometry is a local
		// artifact that -viz draws, -export writes and the checks read.
		opt.DRC = false
		opt.KeepGeometry = *viz || *export != "" || checks

		if *debugAddr != "" {
			go func() {
				if err := http.ListenAndServe(*debugAddr, obs.DebugMux()); err != nil {
					fmt.Fprintln(os.Stderr, "tqecc: debug listener:", err)
				}
			}()
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		var tracer *obs.Tracer
		if *traceOut != "" {
			tracer = obs.NewTracer("tqecc:" + c.Name)
			ctx = obs.WithTracer(ctx, tracer)
		}
		if explaining {
			ctx = journal.WithRecorder(ctx, journal.NewRecorder(0))
		}
		res, err := compress.CompileBestContext(ctx, c, opt, seeds, req.Options.Parallel)
		if err == nil {
			p = service.NewResultPayload(c.Name, key, res, check(ctx, res.DRCArtifacts))
		}
		tracer.Finish()
		if *traceOut != "" {
			// A partial trace is exactly what explains where the time of a
			// failed or timed-out compile went.
			if werr := writeFile(*traceOut, tracer.WriteChromeTrace); werr != nil {
				return noResult(werr)
			}
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return noResult(fmt.Errorf("compile exceeded -timeout %s", *timeout))
		} else if err != nil {
			return noResult(err)
		}
		printCompile(p, req.Options)
		a := res.AuditSchedule()
		fmt.Printf("%s\n", a)
		desc, audit, jr = res.Geometry, &a, res.Journal
	}

	if p.DRC != nil {
		fmt.Print(p.DRC.String())
	}
	if *explain {
		fmt.Println()
		fmt.Print(journal.FormatExplain(jr))
	}
	if *viz {
		fmt.Println()
		fmt.Print(desc.DumpLayers())
	}
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{*explainJSON, encodeJSON(jr)},
		{*export, func(w io.Writer) error { return exportAs(desc, w) }},
		{*jsonOut, encodeJSON(p)},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return noResult(err)
		}
	}
	// Fail loudly: a violated measurement ordering or an error-severity
	// design-rule violation makes the result unusable, and a pipeline
	// consuming the exit status must see that.
	code := 0
	if audit != nil && !audit.Satisfied() {
		fmt.Fprintf(os.Stderr, "tqecc: schedule audit failed: %s\n", audit)
		code = 1
	}
	if p.DRC != nil && !p.DRC.Clean() {
		fmt.Fprintf(os.Stderr, "tqecc: drc failed: %d error(s)\n", p.DRC.Errors())
		code = 1
	}
	return code
}

// noResult reports err and returns the exit status of a run that has no
// result.
func noResult(err error) int {
	fmt.Fprintln(os.Stderr, "tqecc:", err)
	return 2
}

// printCompile prints a compile's statistics from its result document:
// a local and a remote run of one request print the same lines.
func printCompile(p *service.ResultPayload, o service.OptionSpec) {
	r := p.Report
	fmt.Printf("circuit:   %s\n", p.Name)
	fmt.Printf("mode:      %s (effort %s, seed %d)\n", r.Mode, o.Effort, o.Seeds[0])
	fmt.Printf("canonical: %d\n", r.CanonicalVolume)
	fmt.Printf("modules:   %d  ->  nodes: %d  (I-shape merges: %d)\n", r.Modules, r.Nodes, r.IShapeMerges)
	fmt.Printf("dual nets: %d  ->  components: %d\n", r.DualNets, r.DualComponents)
	fmt.Printf("placed:    %d\n", r.PlacedVolume)
	if !o.SkipRouting {
		fmt.Printf("routed:    wirelength %d, overflow %d, failed %d\n", r.Wirelength, r.RouteOverflow, r.RouteFailed)
	}
	fmt.Printf("volume:    %d  (%.1f%% of canonical, %.2fs)\n",
		r.Volume, 100*float64(r.Volume)/float64(max(r.CanonicalVolume, 1)), r.Seconds)
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// encodeJSON returns a writer of v as indented JSON.
func encodeJSON(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}
