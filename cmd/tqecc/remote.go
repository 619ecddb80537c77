package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"tqec/internal/obs"
	"tqec/internal/service"
)

// runRemote submits req to a running tqecd (or fleet coordinator) at
// server instead of compiling in-process, waits for the job, and returns
// its result document. With traceOut, the daemon traces the job, and the
// trace — stitched across coordinator and worker when server is a fleet
// coordinator — is fetched and written there once the job is terminal.
func runRemote(server string, req service.SubmitRequest, traceOut string) (*service.ResultPayload, error) {
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
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "submitted %s to %s (cache key %.12s)\n", st.ID, server, st.CacheKey)
	if !st.State.Terminal() {
		if st, err = cl.Wait(ctx, st.ID, 0); err != nil {
			return nil, err
		}
	}
	if traceOut != "" {
		// Fetch even for failed jobs — a partial trace is exactly what
		// explains where the time went.
		if tree, err := cl.Trace(ctx, st.ID); err != nil {
			fmt.Fprintln(os.Stderr, "tqecc: trace:", err)
		} else if err := writeFile(traceOut, func(w io.Writer) error { return obs.WriteChromeTraceTree(w, tree) }); err != nil {
			fmt.Fprintln(os.Stderr, "tqecc: trace:", err)
		}
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	fmt.Fprintf(os.Stderr, "job %s done (cached %v)\n", st.ID, st.Cached)
	return cl.Result(ctx, st.ID)
}
