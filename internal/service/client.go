package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tqec/internal/obs"
)

// Client is the HTTP client for a tqecd job service — the one shared
// implementation of the /v1/jobs wire protocol, used by the fleet
// dispatcher to drive workers and by tqecc -server to submit to a
// running daemon instead of compiling in-process. Every method takes a
// context; cancellation aborts the HTTP request in flight.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8142".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient).
	HTTPClient *http.Client
}

// NewClient returns a client for the daemon at baseURL (trailing slash
// tolerated).
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// StatusError is a non-2xx daemon response. Callers distinguish it from
// transport errors: a StatusError means the daemon answered (the job may
// be unknown, terminal, or the request malformed), while any other error
// means the daemon may not have seen the request at all — which is what
// the fleet dispatcher's retry policy keys on.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("daemon: http %d: %s", e.Code, e.Message)
}

// IsStatusCode reports whether err is, or wraps, a StatusError with the
// given code.
func IsStatusCode(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// newRequest builds one protocol request with the correlation headers
// every outbound call carries: a tqecd/<version> User-Agent, an
// X-Request-ID (propagated from the context when the caller is itself
// serving a correlated request, freshly drawn otherwise) so one job's
// log lines grep together across tqecc, coordinator, and worker.
func (c *Client) newRequest(ctx context.Context, method, path string, rd io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.BaseURL, "/")+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("User-Agent", "tqecd/"+obs.Version())
	rid := obs.RequestIDFrom(ctx)
	if rid == "" {
		rid = obs.NewRequestID()
	}
	req.Header.Set(obs.RequestIDHeader, rid)
	return req, nil
}

// do issues one request and decodes the JSON response into out (skipped
// when out is nil). It reads at most maxBodyBytes of the response body;
// a non-2xx response becomes a *StatusError carrying the daemon's error
// message.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := c.newRequest(ctx, method, path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er errorResponse
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &StatusError{Code: resp.StatusCode, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// Submit posts one job. On a cache hit the returned status is already
// terminal (state done, cached).
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a finished job's payload (the daemon answers 409, i.e.
// a StatusError, until the job is done).
func (c *Client) Result(ctx context.Context, id string) (*ResultPayload, error) {
	var p ResultPayload
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// Trace fetches the span tree of a traced, finished job (404/409
// become StatusErrors, matching the endpoint's contract).
func (c *Client) Trace(ctx context.Context, id string) (*obs.SpanJSON, error) {
	var sp obs.SpanJSON
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists jobs newest-first, optionally filtered by state, truncated
// to limit (0 = server default).
func (c *Client) Jobs(ctx context.Context, state State, limit int) (JobList, error) {
	path := "/v1/jobs"
	q := make([]string, 0, 2)
	if state != "" {
		q = append(q, "state="+string(state))
	}
	if limit > 0 {
		q = append(q, "limit="+strconv.Itoa(limit))
	}
	if len(q) > 0 {
		path += "?" + strings.Join(q, "&")
	}
	var l JobList
	err := c.do(ctx, http.MethodGet, path, nil, &l)
	return l, err
}

// Healthz fetches the daemon's liveness document.
func (c *Client) Healthz(ctx context.Context) (HealthStatus, error) {
	var h HealthStatus
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics fetches the daemon's JSON metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (MetricsSnapshot, error) {
	var m MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// Wait polls the job's status every poll interval (<= 0 selects 100ms)
// until it reaches a terminal state or ctx expires, returning the last
// observed status.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}
