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

// runRemote submits req to a running tqecd (or fleet coordinator) at
// server instead of compiling in-process, waits for the job, and prints
// the result report. Local-artifact flags (-viz, -explain*) don't apply:
// the daemon keeps those on its side of the wire. -trace does: the daemon
// traces the job, and the trace — stitched across coordinator and worker
// when server is a fleet coordinator — is fetched and written to traceOut
// once the job is terminal.
func runRemote(server string, req service.SubmitRequest, traceOut, jsonOut string) int {
	ctx := context.Background()
	if req.TimeoutMS > 0 {
		// Give the daemon its own deadline plus slack for queueing and
		// the round trips; the server-side timeout is authoritative.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond+30*time.Second)
		defer cancel()
	}
	cl := service.NewClient(server)
	st, err := cl.Submit(ctx, req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqecc:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "submitted %s to %s (cache key %.12s)\n", st.ID, server, st.CacheKey)
	if !st.State.Terminal() {
		if st, err = cl.Wait(ctx, st.ID, 0); err != nil {
			fmt.Fprintln(os.Stderr, "tqecc:", err)
			return 1
		}
	}
	if traceOut != "" {
		// Fetch even for failed jobs — a partial trace is exactly what
		// explains where the time went.
		if terr := fetchRemoteTrace(ctx, cl, st.ID, traceOut); terr != nil {
			fmt.Fprintln(os.Stderr, "tqecc: trace:", terr)
		} else {
			fmt.Fprintf(os.Stderr, "wrote %s\n", traceOut)
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
	fmt.Printf("job:       %s (server %s, cached %v)\n", st.ID, server, st.Cached)
	fmt.Printf("mode:      %s (effort %s, seed %d)\n", rep.Mode, req.Options.Effort, req.Options.Seeds[0])
	fmt.Printf("canonical: %d\n", rep.CanonicalVolume)
	fmt.Printf("modules:   %d  ->  nodes: %d  (I-shape merges: %d)\n",
		rep.Modules, rep.Nodes, rep.IShapeMerges)
	fmt.Printf("placed:    %d\n", rep.PlacedVolume)
	if !req.Options.SkipRouting {
		fmt.Printf("routed:    wirelength %d, overflow %d, failed %d\n",
			rep.Wirelength, rep.RouteOverflow, rep.RouteFailed)
	}
	fmt.Printf("volume:    %d  (%.1f%% of canonical, %.2fs)\n",
		rep.Volume, 100*float64(rep.Volume)/float64(max(rep.CanonicalVolume, 1)), rep.Seconds)
	if payload.DRC != nil {
		fmt.Print(payload.DRC.String())
	}

	if jsonOut != "" {
		out, err := os.Create(jsonOut)
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
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
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
