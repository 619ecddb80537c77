package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"tqec/internal/obs"
	"tqec/internal/service"
)

// AgentConfig tunes a worker's fleet membership.
type AgentConfig struct {
	// CoordinatorURL is the coordinator's base URL.
	CoordinatorURL string
	// WorkerID is this worker's stable identity; keep it across restarts
	// so the worker retains its rendezvous share of the key space (and
	// the cache affinity that comes with it).
	WorkerID string
	// AdvertiseURL is the base URL the coordinator dispatches to — it
	// must be reachable from the coordinator, not merely a bind address.
	AdvertiseURL string
	// Stats reports the worker's current load for heartbeats (nil
	// reports zeros).
	Stats func() (running, queued int)
	// Logger receives membership log lines (default: text on stderr).
	Logger *slog.Logger
}

// Agent maintains one worker's registration with the coordinator: it
// registers at startup, heartbeats at the interval the coordinator's
// register response names, re-registers when a heartbeat is answered 404
// (the coordinator restarted and lost its registry), and retries a
// failed registration with the fleet's backoff. Start with StartAgent,
// stop with Stop.
type Agent struct {
	cfg    AgentConfig
	http   *http.Client
	cancel context.CancelFunc
	done   chan struct{}
}

// StartAgent validates the config and starts the membership loop. ctx
// bounds the agent's lifetime alongside Stop.
func StartAgent(ctx context.Context, cfg AgentConfig) (*Agent, error) {
	if cfg.CoordinatorURL == "" || cfg.WorkerID == "" || cfg.AdvertiseURL == "" {
		return nil, errors.New("fleet agent: coordinator URL, worker ID, and advertise URL are all required")
	}
	if cfg.Logger == nil {
		l, err := obs.NewLogger(obs.LogConfig{Writer: os.Stderr})
		if err != nil { // unreachable with the zero config
			return nil, err
		}
		cfg.Logger = l
	}
	actx, cancel := context.WithCancel(ctx)
	a := &Agent{cfg: cfg, http: &http.Client{}, cancel: cancel, done: make(chan struct{})}
	go a.run(actx)
	return a, nil
}

// Stop ends the membership loop and waits for it to exit. The
// coordinator notices the silence via its heartbeat thresholds.
func (a *Agent) Stop() {
	a.cancel()
	<-a.done
}

// run is the membership loop: register (with backoff on failure), then
// heartbeat until told to re-register or stopped.
func (a *Agent) run(ctx context.Context) {
	defer close(a.done)
	interval := defaultHeartbeat
	registered := false
	attempt := 0
	for ctx.Err() == nil {
		if !registered {
			got, err := a.register(ctx)
			if err != nil {
				a.cfg.Logger.WarnContext(ctx, "fleet register failed", "coordinator", a.cfg.CoordinatorURL,
					"attempt", attempt, "err", err.Error())
				attempt++
				if backoff(ctx, attempt-1) != nil {
					return
				}
				continue
			}
			registered = true
			attempt = 0
			if got > 0 {
				interval = got
			}
			a.cfg.Logger.InfoContext(ctx, "fleet registered", "coordinator", a.cfg.CoordinatorURL,
				"worker", a.cfg.WorkerID, "heartbeat_interval", interval)
		}
		if sleepCtx(ctx, interval) != nil {
			return
		}
		switch err := a.heartbeat(ctx); {
		case err == nil:
		case service.IsStatusCode(err, http.StatusNotFound):
			// The coordinator restarted and lost the registry.
			a.cfg.Logger.WarnContext(ctx, "fleet heartbeat rejected, re-registering", "worker", a.cfg.WorkerID)
			registered = false
		default:
			// Transient coordinator trouble: keep beating — the worker
			// keeps serving its current jobs either way, and the
			// coordinator's thresholds decide what the silence means.
			a.cfg.Logger.WarnContext(ctx, "fleet heartbeat failed", "err", err.Error())
		}
	}
}

// register posts the registration, returning the coordinator-assigned
// heartbeat interval.
func (a *Agent) register(ctx context.Context) (time.Duration, error) {
	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var resp RegisterResponse
	err := a.post(rctx, "/fleet/v1/register", RegisterRequest{
		ID:  a.cfg.WorkerID,
		URL: a.cfg.AdvertiseURL,
	}, &resp)
	if err != nil {
		return 0, err
	}
	return time.Duration(resp.HeartbeatIntervalMS * float64(time.Millisecond)), nil
}

// heartbeat posts one load report. A 404 means the coordinator does not
// know this worker.
func (a *Agent) heartbeat(ctx context.Context) error {
	running, queued := 0, 0
	if a.cfg.Stats != nil {
		running, queued = a.cfg.Stats()
	}
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	return a.post(hctx, "/fleet/v1/heartbeat", HeartbeatRequest{
		ID:      a.cfg.WorkerID,
		Running: running,
		Queued:  queued,
	}, nil)
}

// post issues one JSON POST to the coordinator. A non-2xx answer is a
// *service.StatusError.
func (a *Agent) post(ctx context.Context, path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(a.cfg.CoordinatorURL, "/")+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &service.StatusError{Code: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// sleepCtx waits d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
