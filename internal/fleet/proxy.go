package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"tqec/internal/obs"
	"tqec/internal/service"
)

// handleEvents streams a job's journal as Server-Sent Events. Once the
// job is dispatched the stream is a byte-for-byte proxy of the owning
// worker's /events endpoint (the compile-pipeline flight recorder);
// before that — or when the job finished without ever reaching a worker
// — the service streams the coordinator's dispatch journal instead. A
// stream proxied from a worker that then dies simply ends; the client
// reconnects and the re-dispatched job's new owner replays its journal
// from the start.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	d, _, ok := c.JobDispatch(r.PathValue("id"))
	if !ok || d.RemoteID == "" {
		c.Server.ServeHTTP(w, r)
		return
	}
	target := strings.TrimRight(d.URL, "/") + "/v1/jobs/" + d.RemoteID + "/events"
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target, nil)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorResponse{Error: "events proxy: " + err.Error()})
		return
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		writeJSON(w, http.StatusBadGateway, errorResponse{Error: "events proxy: " + err.Error()})
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(resp.StatusCode)

	fl, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleTrace serves the stitched fleet-wide trace of a traced job once
// it is terminal: the coordinator's own span tree (routing, dispatch,
// retries, failovers) with the owning worker's pipeline span tree
// fetched on demand and grafted under the final dispatch span. Worker
// timestamps are aligned with the heartbeat-derived clock-offset
// estimate, clamped so the graft never precedes its dispatch parent.
// When the worker is unreachable the coordinator-only view is served
// with a worker_trace_error attribute rather than an error status.
// ?format=chrome selects the Chrome trace_event form, with coordinator
// and worker spans in separate process lanes.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tree := c.JobTrace(id)
	if tree == nil {
		// Unknown, untraced or still running: the service says which.
		c.Server.ServeHTTP(w, r)
		return
	}
	if d, _, _ := c.JobDispatch(id); d.RemoteID != "" {
		tctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
		guest, err := c.workerClient(d.URL).Trace(tctx, d.RemoteID)
		cancel()
		if err == nil {
			guest.Process = d.Worker
			if !obs.Graft(tree, "dispatch", guest, c.reg.clockOffset(d.Worker)) {
				err = errors.New("stitch failed: no dispatch span or missing epoch anchors")
			}
		}
		if err != nil {
			setTreeAttr(tree, "worker_trace_error", err.Error())
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("format") == "chrome" {
		_ = obs.WriteChromeTraceTree(w, tree)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tree)
}

// setTreeAttr annotates an exported span tree in place.
func setTreeAttr(tree *obs.SpanJSON, key string, value any) {
	if tree.Attrs == nil {
		tree.Attrs = map[string]any{}
	}
	tree.Attrs[key] = value
}

// handleProfile proxies the owning worker's slow-job CPU profile. The
// coordinator does not copy profiles at completion time (they are large
// and rarely wanted); a worker that died since the job finished answers
// 502 here, which is an honest account of where the bytes live.
func (c *Coordinator) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, st, ok := c.JobDispatch(id)
	if !ok || !st.Terminal() || d.RemoteID == "" {
		// Unknown, not final, or never dispatched: the service answers.
		c.Server.ServeHTTP(w, r)
		return
	}
	pctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	raw, err := c.workerClient(d.URL).Profile(pctx, d.RemoteID)
	if err != nil {
		var se *service.StatusError
		if errors.As(err, &se) {
			// Forward the worker's own verdict (404 no profile, 409 not
			// final) untouched.
			writeJSON(w, se.Code, errorResponse{Error: se.Message})
			return
		}
		writeJSON(w, http.StatusBadGateway, errorResponse{Error: "fetch profile: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`.pprof"`)
	_, _ = w.Write(raw)
}
