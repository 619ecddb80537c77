package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"time"

	"tqec/internal/service"
)

// errorResponse mirrors the service's error body so clients (and the
// shared service.Client) see one wire shape fleet-wide.
type errorResponse struct {
	Error string `json:"error"`
}

// RegisterRequest is the POST /fleet/v1/register body a worker agent
// sends on startup (and again whenever its heartbeat gets a 404,
// meaning the coordinator restarted and lost the registry).
type RegisterRequest struct {
	// ID is the worker's stable identity — the rendezvous-hash input, so
	// keeping it across restarts preserves the worker's share of the key
	// space (and its cache's usefulness).
	ID string `json:"id"`
	// URL is the worker's advertised base URL, reachable from the
	// coordinator.
	URL string `json:"url"`
}

// RegisterResponse tells the worker how to behave as a fleet member.
type RegisterResponse struct {
	// HeartbeatIntervalMS is the cadence the coordinator expects beats at.
	HeartbeatIntervalMS float64 `json:"heartbeat_interval_ms"`
}

// HeartbeatRequest is the POST /fleet/v1/heartbeat body: identity plus
// the worker's own load report.
type HeartbeatRequest struct {
	ID      string `json:"id"`
	Running int    `json:"running"`
	Queued  int    `json:"queued"`
	// SentUnixUS is the worker's clock at send time (Unix microseconds).
	// The coordinator subtracts it from its own receive time to estimate
	// the worker's clock offset, which aligns worker span timestamps when
	// stitching cross-process traces. Zero (an old agent) disables the
	// estimate for this worker.
	SentUnixUS int64 `json:"sent_unix_us,omitempty"`
}

// WorkersResponse is the GET /fleet/v1/workers body.
type WorkersResponse struct {
	Workers []WorkerInfo `json:"workers"`
}

// FleetHealth is the coordinator's GET /healthz body: the service's
// health document plus a fleet summary.
type FleetHealth struct {
	service.HealthStatus
	Role           string `json:"role"`
	WorkersAlive   int    `json:"workers_alive"`
	WorkersSuspect int    `json:"workers_suspect"`
	WorkersTotal   int    `json:"workers_total"`
}

// routes mounts the fleet endpoints in front of the coordinator's
// service.Server, which serves every other path.
func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", c.Server)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", c.handleProfile)
	mux.HandleFunc("POST /fleet/v1/register", c.handleRegister)
	mux.HandleFunc("POST /fleet/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /fleet/v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	if req.ID == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "register: id is required"})
		return
	}
	if u, err := url.Parse(req.URL); err != nil || u.Scheme == "" || u.Host == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("register: url %q must be absolute (http://host:port)", req.URL)})
		return
	}
	c.reg.register(req.ID, req.URL)
	writeJSON(w, http.StatusOK, RegisterResponse{
		HeartbeatIntervalMS: ms(c.cfg.HeartbeatInterval),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return
	}
	if !c.reg.heartbeat(req.ID, req.Running, req.Queued, req.SentUnixUS) {
		// Unknown worker: the coordinator restarted (or never saw this
		// worker). The 404 is the re-register signal the agent acts on.
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown worker %q, re-register", req.ID)})
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	workers := c.reg.snapshot()
	sort.Slice(workers, func(a, b int) bool { return workers[a].ID < workers[b].ID })
	writeJSON(w, http.StatusOK, WorkersResponse{Workers: workers})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	workers := c.reg.snapshot()
	h := FleetHealth{
		HealthStatus: c.Health(),
		Role:         "coordinator",
		WorkersTotal: len(workers),
	}
	for _, wk := range workers {
		switch wk.State {
		case WorkerAlive:
			h.WorkersAlive++
		case WorkerSuspect:
			h.WorkersSuspect++
		}
	}
	code := http.StatusOK
	if h.Status == "draining" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// ms converts a duration to float milliseconds (the wire unit).
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
