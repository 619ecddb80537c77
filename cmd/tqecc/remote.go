package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"tqec/internal/obs"
	"tqec/internal/service"
)

// remoteFlags is everything the -server path needs from the CLI.
type remoteFlags struct {
	server      string
	inReal      string
	inText      string
	sample      string
	benchName   string
	mode        string
	effort      string
	seed        int64
	skipRouting bool
	measSide    bool
	runDRC      bool
	timeout     time.Duration
	jsonOut     string
	noCache     bool
	// traceOut asks the daemon to trace the job and, once it is
	// terminal, fetches the trace (stitched fleet-wide when -server is a
	// coordinator) and writes it here in Chrome trace_event format.
	traceOut string
}

// runRemote submits the compile to a running tqecd (or fleet
// coordinator) at -server instead of compiling in-process, waits for the
// job, and prints the result report. Local-artifact flags (-viz,
// -explain*) don't apply: the daemon keeps those on its side of the
// wire. -trace does: the daemon traces the job, and the trace — stitched
// across coordinator and worker when -server is a fleet coordinator — is
// fetched and written locally once the job is terminal.
func runRemote(f remoteFlags) int {
	req := service.SubmitRequest{
		Options: service.OptionSpec{
			Mode:                  f.mode,
			Effort:                f.effort,
			Seeds:                 []int64{f.seed},
			SkipRouting:           f.skipRouting,
			MeasurementSideIShape: f.measSide,
			DRC:                   f.runDRC,
		},
		NoCache: f.noCache,
		Trace:   f.traceOut != "",
	}
	if f.timeout > 0 {
		req.TimeoutMS = f.timeout.Milliseconds()
	}
	switch {
	case f.inReal != "":
		body, err := os.ReadFile(f.inReal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			return 1
		}
		req.Source.Real = string(body)
	case f.inText != "":
		body, err := os.ReadFile(f.inText)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			return 1
		}
		req.Source.Text = string(body)
	case f.sample != "":
		req.Source.Sample = f.sample
	case f.benchName != "":
		req.Source.Bench = f.benchName
		req.Source.GenSeed = f.seed
	default:
		fmt.Fprintln(os.Stderr, "tqecc: need one of -in, -text, -sample, -bench")
		return 1
	}

	ctx := context.Background()
	if f.timeout > 0 {
		// Give the daemon its own deadline plus slack for queueing and
		// the round trips; the server-side timeout is authoritative.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout+30*time.Second)
		defer cancel()
	}
	cl := service.NewClient(f.server)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqecc:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "submitted %s to %s (cache key %.12s)\n", st.ID, f.server, st.CacheKey)
	if !st.State.Terminal() {
		if st, err = cl.Wait(ctx, st.ID, 0); err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			return 1
		}
	}
	if f.traceOut != "" {
		// Fetch even for failed jobs — a partial trace is exactly what
		// explains where the time went.
		if terr := fetchRemoteTrace(ctx, cl, st.ID, f.traceOut); terr != nil {
			fmt.Fprintln(os.Stderr, "tqecc: trace:", terr)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s\n", f.traceOut)
		}
	}
	if st.State != service.StateDone {
		fmt.Fprintf(os.Stderr, "tqecc: job %s %s: %s\n", st.ID, st.State, st.Error)
		return 1
	}
	payload, err := cl.Result(ctx, st.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqecc:", err)
		return 1
	}

	rep := payload.Report
	fmt.Printf("job:       %s (server %s, cached %v)\n", st.ID, f.server, st.Cached)
	fmt.Printf("mode:      %s (effort %s, seed %d)\n", rep.Mode, f.effort, f.seed)
	fmt.Printf("canonical: %d\n", rep.CanonicalVolume)
	fmt.Printf("modules:   %d  ->  nodes: %d  (I-shape merges: %d)\n",
		rep.Modules, rep.Nodes, rep.IShapeMerges)
	fmt.Printf("placed:    %d\n", rep.PlacedVolume)
	if !f.skipRouting {
		fmt.Printf("routed:    wirelength %d, overflow %d, failed %d\n",
			rep.Wirelength, rep.RouteOverflow, rep.RouteFailed)
	}
	fmt.Printf("volume:    %d  (%.1f%% of canonical, %.2fs)\n",
		rep.Volume, 100*float64(rep.Volume)/float64(max(rep.CanonicalVolume, 1)), rep.Seconds)
	if payload.DRC != nil {
		fmt.Print(payload.DRC.String())
	}

	if f.jsonOut != "" {
		out, err := os.Create(f.jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			return 1
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(payload); err != nil {
			out.Close()
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			return 1
		}
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", f.jsonOut)
	}
	if payload.DRC != nil && !payload.DRC.Clean() {
		fmt.Fprintf(os.Stderr, "tqecc: drc failed: %d error(s)\n", payload.DRC.Errors())
		return 1
	}
	return 0
}

// fetchRemoteTrace pulls the terminal job's span tree from the daemon
// and writes it in Chrome trace_event format, one process lane per
// process in a stitched fleet trace.
func fetchRemoteTrace(ctx context.Context, cl *service.Client, id, path string) error {
	tree, err := cl.Trace(ctx, id)
	if err != nil {
		return err
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTraceTree(out, tree); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
