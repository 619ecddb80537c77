// Command tqecc compiles a quantum circuit to a compressed TQEC geometric
// description and reports the per-stage statistics and the resulting
// space-time volume.
//
// It takes exactly one source flag (-in, -text, -sample or -bench) and
// builds from its flags the request tqecd takes: it compiles that request
// in process, or submits it to a daemon with -server. Two source flags
// are an error, and -bench generates with -seed (seed 0 generates with 1).
//
// Usage:
//
//	tqecc -sample threecnot -mode full
//	tqecc -in circuit.real -mode dual -effort high
//	tqecc -bench 4gt10-v1_81 -skip-routing
//	tqecc -text circuit.tqc -viz
//	tqecc -sample threecnot -server http://localhost:8142   # compile on a daemon/fleet
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"

	"tqec/internal/compress"
	"tqec/internal/journal"
	"tqec/internal/obs"
	"tqec/internal/service"
)

func main() {
	var (
		inReal      = flag.String("in", "", "RevLib .real circuit file")
		inText      = flag.String("text", "", "plain-text gate-list circuit file")
		sample      = flag.String("sample", "", "embedded sample name (threecnot, toffoli3, mixed4)")
		benchName   = flag.String("bench", "", "synthetic Table-1 benchmark name")
		mode        = flag.String("mode", "full", "compression mode: full | dual | deform")
		effort      = flag.String("effort", "fast", "optimization effort: fast | normal | high")
		seed        = flag.Int64("seed", 1, "random seed for all stochastic stages")
		skipRouting = flag.Bool("skip-routing", false, "stop after placement (fast, volume = placed volume)")
		viz         = flag.Bool("viz", false, "dump ASCII layers of the compressed geometry")
		measSide    = flag.Bool("im-measurement-side", false, "also I-shape-merge measurement-side control pairs")
		runDRC      = flag.Bool("drc", false, "run the design-rule checker over the finished compile")
		jsonOut     = flag.String("json", "", "write a machine-readable result report to this file")
		timeout     = flag.Duration("timeout", 0, "abort the compile after this long (0 = no deadline)")
		traceOut    = flag.String("trace", "", "record a pipeline trace and write it to this file in Chrome trace_event format (chrome://tracing, Perfetto); with -server, the daemon traces the job and the stitched trace is fetched when it finishes")
		explain     = flag.Bool("explain", false, "print the compression journal: the per-stage volume waterfall, anneal/route trajectories, and warnings")
		explainJSON = flag.String("explain-json", "", "write the compression journal as JSON to this file (implies journaling)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address while compiling (e.g. localhost:6060)")
		server      = flag.String("server", "", "submit to a running tqecd (or fleet coordinator) at this base URL instead of compiling in-process")
		noCache     = flag.Bool("no-cache", false, "with -server: skip the daemon's result cache for this job")
	)
	flag.Parse()

	if *server != "" && (*viz || *explain || *explainJSON != "") {
		fmt.Fprintln(os.Stderr, "tqecc: -viz and -explain* compile locally; they cannot combine with -server")
		os.Exit(1)
	}
	src, err := service.LocalSource(*inReal, *inText, *sample, *benchName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqecc:", err)
		os.Exit(1)
	}
	req := service.SubmitRequest{
		Source: src,
		Options: service.OptionSpec{
			Mode:                  *mode,
			Effort:                *effort,
			Seeds:                 []int64{*seed},
			SkipRouting:           *skipRouting,
			MeasurementSideIShape: *measSide,
			DRC:                   *runDRC,
		},
		TimeoutMS: timeout.Milliseconds(),
		NoCache:   *noCache,
		Trace:     *traceOut != "",
	}
	if *server != "" {
		os.Exit(runRemote(*server, req, *traceOut, *jsonOut))
	}

	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux()); err != nil {
				fmt.Fprintln(os.Stderr, "tqecc: debug listener:", err)
			}
		}()
	}

	c, err := req.Source.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqecc:", err)
		os.Exit(1)
	}
	opt, _, err := req.Options.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqecc:", err)
		os.Exit(1)
	}
	opt.Seed = *seed
	// The geometry is a local artifact: -viz draws it and -drc checks it.
	opt.KeepGeometry = *viz || *runDRC

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
	if *explain || *explainJSON != "" {
		ctx = journal.WithRecorder(ctx, journal.NewRecorder(0))
	}
	res, err := compress.CompileContext(ctx, c, opt)
	tracer.Finish()
	if *traceOut != "" {
		if werr := writeTrace(*traceOut, tracer); werr != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "tqecc: compile exceeded -timeout %s\n", *timeout)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "tqecc:", err)
		os.Exit(1)
	}
	fmt.Printf("circuit:   %s\n", c)
	fmt.Printf("mode:      %s (effort %s, seed %d)\n", res.Mode, *effort, *seed)
	fmt.Printf("canonical: %d\n", res.CanonicalVolume)
	fmt.Printf("modules:   %d  ->  nodes: %d  (I-shape merges: %d)\n",
		res.NumModules, res.NumNodes, res.IShapeMerges)
	fmt.Printf("dual nets: %d  ->  components: %d\n", len(res.Graph.Nets), res.DualComponents)
	fmt.Printf("placed:    %d (%d×%d×%d before routing)\n",
		res.PlacedVolume, res.Placement.NX, res.Placement.NY, res.Placement.NZ)
	if res.Routing != nil {
		fmt.Printf("routed:    wirelength %d, overflow %d, failed %d\n",
			res.Wirelength, res.RouteOverflow, res.RouteFailed)
	}
	fmt.Printf("volume:    %d  (%.1f%% of canonical, %.2fs)\n",
		res.Volume, 100*float64(res.Volume)/float64(res.CanonicalVolume), res.Runtime.Seconds())
	audit := res.AuditSchedule()
	fmt.Printf("%s\n", audit)
	if res.DRC != nil {
		fmt.Print(res.DRC.String())
	}
	if *explain {
		fmt.Println()
		fmt.Print(journal.FormatExplain(res.Journal))
	}
	if *explainJSON != "" {
		f, err := os.Create(*explainJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Journal); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *explainJSON)
	}
	if *viz && res.Geometry != nil {
		fmt.Println()
		fmt.Print(res.Geometry.DumpLayers())
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	// Fail loudly: a violated measurement ordering or an error-severity
	// design-rule violation makes the compiled result unusable, and a
	// pipeline consuming the exit status must see that.
	if !audit.Satisfied() {
		fmt.Fprintf(os.Stderr, "tqecc: schedule audit failed: %s\n", audit)
		os.Exit(1)
	}
	if res.DRC != nil && !res.DRC.Clean() {
		fmt.Fprintf(os.Stderr, "tqecc: drc failed: %d error(s)\n", res.DRC.Errors())
		os.Exit(1)
	}
}

// writeTrace dumps the recorded span tree in Chrome trace_event format.
// The trace is written even when the compile failed or timed out — a
// partial trace is exactly what explains where the time went.
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
