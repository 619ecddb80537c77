package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"tqec/internal/compress"
	"tqec/internal/fleet"
	"tqec/internal/obs"
	"tqec/internal/service"
	"tqec/internal/store"
)

// serviceSize is the shape of the service workload.
type serviceSize struct {
	// memTier bounds the standalone daemon's in-memory result cache.
	memTier int
	// storeBytes bounds its on-disk result store. The store rewrites its
	// whole access-time index on every write, so an unbounded store would
	// make each cold request slower than the last and a run's numbers
	// depend on how many requests it managed; bounded, the store reaches
	// its steady size within the first second of the measuring time.
	storeBytes int64
	// warmCold is how many cold results set-up writes. Disk-hit requests
	// read the oldest result not yet read back, which trails the newest
	// by warmCold keys; warmCold > memTier keeps it out of memory.
	warmCold int
	// fleetKeys results are cached on the fleet worker during set-up.
	fleetKeys int
	// setups is how many times a run builds the environment; setup_s is
	// the median.
	setups int
	// traceRounds is the length of the traced pass, in rounds.
	traceRounds int
}

var defaultServiceSize = serviceSize{memTier: 64, storeBytes: 256 << 10, warmCold: 96, fleetKeys: 16, setups: 5, traceRounds: 200}

// fig1Circuit is the paper's running example (Fig. 1), the circuit every
// request compiles or looks up. Its compile takes about 0.05 ms, so the
// daemon's own layers dominate a cold request.
const fig1Circuit = "threecnot"

// Request classes, in the order each round issues them and of their
// latency_N_ms, volume_N and placed_volume_N metrics.
const (
	classCold  = "cold"
	classMem   = "mem-hit"
	classDisk  = "disk-hit"
	classFleet = "fleet-hit"
)

var serviceClasses = []string{classCold, classMem, classDisk, classFleet}

// maxStreams bounds how often one request re-follows a job's event
// stream before giving up. A standalone job needs one stream; a fleet
// job whose worker finished before its coordinator can need a few.
const maxStreams = 1000

// answer is a cold compile's verified result, the reference every later
// hit on the same key is checked against.
type answer struct {
	req    service.SubmitRequest
	key    string
	report compress.Report
}

// serviceEnv is the system under test: a standalone daemon with a
// durable store, and a fleet coordinator with one worker, all in this
// process and served by one loopback HTTP server under the path
// prefixes /s, /c and /w. The load is one closed-loop client over one
// keep-alive connection.
type serviceEnv struct {
	url     string
	client  *http.Client
	counter *countingTransport

	standalone, coord, worker *service.Client

	seed int64
	// sample is the embedded circuit cold requests compile; tests replace
	// it to make cold requests fail.
	sample string
	// memWindow is how many of the newest cold results mem-hit requests
	// cycle through. Each round admits two results to the memory tier
	// (the cold write and the disk read), so a quarter of the tier's
	// entries stays well inside it.
	memWindow int
	colds     int      // cold requests sent, which numbers their seeds
	answers   []answer // cold results not read back from disk yet, oldest first
	fleetKeys []answer // results cached on the fleet worker
}

// countingTransport counts the requests the client sends. Only the
// client's own goroutine uses it.
type countingTransport struct {
	rt http.RoundTripper
	n  int
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n++
	return t.rt.RoundTrip(r)
}

// startService builds the environment and warms its caches. The
// returned function stops everything it started and removes its data.
func startService(ctx context.Context, cfg config, size serviceSize) (*serviceEnv, func(), error) {
	var closers []func()
	release := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (*serviceEnv, func(), error) {
		release()
		return nil, func() {}, err
	}

	dir, err := os.MkdirTemp(cfg.OutDir, "service-")
	if err != nil {
		return fail(fmt.Errorf("service data dir: %w", err))
	}
	closers = append(closers, func() { os.RemoveAll(dir) })
	st, err := store.Open(dir, store.Options{MaxBytes: size.storeBytes})
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() { st.Close() })

	logger := obs.NopLogger()
	svc := service.New(ctx, service.Config{CacheEntries: size.memTier, Store: st, Logger: logger})
	closers = append(closers, svc.Close)
	worker := service.New(ctx, service.Config{Logger: logger})
	closers = append(closers, worker.Close)
	coord := fleet.NewCoordinator(ctx, fleet.Config{Logger: logger})
	closers = append(closers, coord.Close)

	mux := http.NewServeMux()
	mux.Handle("/s/", http.StripPrefix("/s", svc))
	mux.Handle("/w/", http.StripPrefix("/w", worker))
	mux.Handle("/c/", http.StripPrefix("/c", coord))
	ts := httptest.NewServer(mux)
	closers = append(closers, ts.Close)

	counter := &countingTransport{rt: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	hc := &http.Client{Transport: counter}
	closers = append(closers, hc.CloseIdleConnections)
	e := &serviceEnv{
		url:        ts.URL,
		client:     hc,
		counter:    counter,
		standalone: &service.Client{BaseURL: ts.URL + "/s", HTTPClient: hc},
		coord:      &service.Client{BaseURL: ts.URL + "/c", HTTPClient: hc},
		worker:     &service.Client{BaseURL: ts.URL + "/w", HTTPClient: hc},
		seed:       cfg.Seed,
		sample:     fig1Circuit,
		memWindow:  size.memTier / 4,
	}

	agent, err := fleet.StartAgent(ctx, fleet.AgentConfig{
		CoordinatorURL: ts.URL + "/c",
		WorkerID:       "w1",
		AdvertiseURL:   ts.URL + "/w",
		Stats:          func() (int, int) { s := worker.Stats(); return s.Running, s.Queued },
		Logger:         logger,
	})
	if err != nil {
		return fail(err)
	}
	closers = append(closers, agent.Stop)
	if err := e.waitWorkerAlive(ctx); err != nil {
		return fail(err)
	}

	for i := 0; i < size.warmCold; i++ {
		if _, err := e.cold(ctx, nil); err != nil {
			return fail(fmt.Errorf("warm cold result %d: %w", i, err))
		}
	}
	for i := 0; i < size.fleetKeys; i++ {
		a, err := e.warmWorker(ctx, i)
		if err != nil {
			return fail(fmt.Errorf("warm fleet worker %d: %w", i, err))
		}
		e.fleetKeys = append(e.fleetKeys, a)
	}
	return e, release, nil
}

// waitWorkerAlive waits until the coordinator has registered the worker;
// the agent registers as soon as it starts.
func (e *serviceEnv) waitWorkerAlive(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var wr fleet.WorkersResponse
		if err := e.getJSON(ctx, "/c/fleet/v1/workers", &wr); err != nil {
			return err
		}
		for _, w := range wr.Workers {
			if w.State == fleet.WorkerAlive {
				return nil
			}
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return err
		}
	}
	return errors.New("fleet worker never registered")
}

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

func (e *serviceEnv) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: http %d: %s", path, resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// sampleRequest is a request for an embedded circuit. Each seed list is a
// different cache key; the result is the same circuit's.
func sampleRequest(sample string, seed int64) service.SubmitRequest {
	return service.SubmitRequest{
		Source:  service.Source{Sample: sample},
		Options: service.OptionSpec{Mode: "full", Seeds: []int64{seed}},
	}
}

// Seeds of the generated requests: the workload seed selects a block, so
// another workload seed gives other cache keys.
func (e *serviceEnv) coldSeed(i int) int64  { return e.seed*1_000_000_000 + int64(i) }
func (e *serviceEnv) fleetSeed(i int) int64 { return e.seed*1_000_000_000 + 500_000_000 + int64(i) }

// timing is one request's measured path, in milliseconds.
type timing struct {
	total, submit, queued, run float64
	requests, events           int
}

// request submits req and, unless the answer is already final, follows
// the job's event stream until it closes and reads the final status.
// The time runs from the submit to that final status; the client never
// sleeps or polls.
func (e *serviceEnv) request(ctx context.Context, cl *service.Client, req service.SubmitRequest, sp *obs.Span) (service.JobStatus, timing, error) {
	n0 := e.counter.n
	t0 := time.Now()
	ssp := sp.StartChild("submit")
	st, err := cl.Submit(ctx, req)
	ssp.End()
	tm := timing{submit: ms(time.Since(t0))}
	if err != nil {
		return st, tm, fmt.Errorf("submit: %w", err)
	}
	for streams := 0; !st.State.Terminal(); streams++ {
		if streams == maxStreams {
			return st, tm, fmt.Errorf("job %s still %s after %d event streams", st.ID, st.State, streams)
		}
		wsp := sp.StartChild("events")
		n, err := e.follow(ctx, cl.BaseURL, st.ID)
		wsp.End()
		tm.events += n
		if err != nil {
			return st, tm, err
		}
		rsp := sp.StartChild("status")
		st, err = cl.Status(ctx, st.ID)
		rsp.End()
		if err != nil {
			return st, tm, fmt.Errorf("status: %w", err)
		}
	}
	tm.total = ms(time.Since(t0))
	tm.requests = e.counter.n - n0
	tm.queued, tm.run = st.QueuedMS, st.RunMS
	return st, tm, nil
}

// follow reads a job's Server-Sent-Events stream to its end (the server
// closes it once the job is terminal) and counts the events.
func (e *serviceEnv) follow(ctx context.Context, base, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event:") {
			events++
		}
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return events, fmt.Errorf("events: http %d", resp.StatusCode)
	}
	return events, nil
}

// cold compiles a new key on the standalone daemon and checks the
// answer: done, not from a cache, the paper's placed volume 6 for its
// Fig. 1 circuit, and the payload carrying the job's own cache key. The
// result is fetched after the timed interval.
func (e *serviceEnv) cold(ctx context.Context, sp *obs.Span) (timing, error) {
	req := sampleRequest(e.sample, e.coldSeed(e.colds))
	e.colds++
	st, tm, err := e.request(ctx, e.standalone, req, sp)
	if err != nil {
		return tm, err
	}
	if st.State != service.StateDone || st.Cached {
		return tm, fmt.Errorf("cold job %s ended %s (cached %t, error %q)", st.ID, st.State, st.Cached, st.Error)
	}
	p, err := e.standalone.Result(ctx, st.ID)
	if err != nil {
		return tm, fmt.Errorf("result: %w", err)
	}
	if p.CacheKey != st.CacheKey || p.Report.PlacedVolume != 6 {
		return tm, fmt.Errorf("cold job %s: key %.12s placed %d, want key %.12s and the paper's 6", st.ID, p.CacheKey, p.Report.PlacedVolume, st.CacheKey)
	}
	e.answers = append(e.answers, answer{req: req, key: st.CacheKey, report: p.Report})
	return tm, nil
}

// warmWorker caches a result on the fleet worker directly, so that the
// same request through the coordinator is a fleet hit.
func (e *serviceEnv) warmWorker(ctx context.Context, i int) (answer, error) {
	req := sampleRequest(fig1Circuit, e.fleetSeed(i))
	st, _, err := e.request(ctx, e.worker, req, nil)
	if err != nil {
		return answer{}, err
	}
	if st.State != service.StateDone {
		return answer{}, fmt.Errorf("worker job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	p, err := e.worker.Result(ctx, st.ID)
	if err != nil {
		return answer{}, fmt.Errorf("result: %w", err)
	}
	return answer{req: req, key: st.CacheKey, report: p.Report}, nil
}

// hit resubmits a known key and checks that it is answered done from a
// cache with the payload of the original answer.
func (e *serviceEnv) hit(ctx context.Context, cl *service.Client, a answer, sp *obs.Span) (timing, error) {
	st, tm, err := e.request(ctx, cl, a.req, sp)
	if err != nil {
		return tm, err
	}
	if st.State != service.StateDone || !st.Cached {
		return tm, fmt.Errorf("job %s ended %s (cached %t), want a cache hit", st.ID, st.State, st.Cached)
	}
	p, err := cl.Result(ctx, st.ID)
	if err != nil {
		return tm, fmt.Errorf("result: %w", err)
	}
	if p.CacheKey != a.key || p.Report.PlacedVolume != a.report.PlacedVolume {
		return tm, fmt.Errorf("hit %s: key %.12s placed %d, cold answer had key %.12s placed %d", st.ID, p.CacheKey, p.Report.PlacedVolume, a.key, a.report.PlacedVolume)
	}
	return tm, nil
}

// serviceStats collects one pass's samples.
type serviceStats struct {
	ms                          map[string][]float64 // per class, submit to final status
	answers                     map[string]*counters // per class, the answers' reports
	submit, queued, run, finish []float64            // cold requests
	coldVolumes                 map[int]bool         // distinct final volumes of cold answers
	ops, requests, events       int
	diskSent                    int // disk-hit requests the daemon received
}

func newServiceStats() *serviceStats {
	s := &serviceStats{ms: map[string][]float64{}, answers: map[string]*counters{}, coldVolumes: map[int]bool{}}
	for _, cls := range serviceClasses {
		s.answers[cls] = &counters{}
	}
	return s
}

func (s *serviceStats) add(cls string, tm timing, a answer) {
	s.ms[cls] = append(s.ms[cls], tm.total)
	s.answers[cls].addReport(a.report)
	s.ops++
	s.requests += tm.requests
	s.events += tm.events
}

// round issues one request of each class. A round whose cold request
// failed sends no mem-hit or disk-hit request and counts both as failed:
// the cold result they would read is missing, and the queue of results
// waiting to be read back from disk must keep its length.
func (e *serviceEnv) round(ctx context.Context, i int, s *serviceStats, out *outcome, root *obs.Span) {
	op := func(cls string, do func(sp *obs.Span) (timing, answer, error)) bool {
		out.attempted++
		sp := root.StartChild("request")
		sp.SetAttr("class", cls)
		tm, a, err := do(sp)
		sp.End()
		if err != nil {
			out.fail("%s: %v", cls, err)
			return false
		}
		s.add(cls, tm, a)
		return true
	}
	coldOK := op(classCold, func(sp *obs.Span) (timing, answer, error) {
		tm, err := e.cold(ctx, sp)
		if err != nil {
			return tm, answer{}, err
		}
		a := e.answers[len(e.answers)-1]
		s.submit = append(s.submit, tm.submit)
		s.queued = append(s.queued, tm.queued)
		s.run = append(s.run, tm.run)
		s.finish = append(s.finish, tm.total-tm.submit-tm.queued-tm.run)
		s.coldVolumes[a.report.Volume] = true
		return tm, a, nil
	})
	if coldOK {
		op(classMem, func(sp *obs.Span) (timing, answer, error) {
			a := e.answers[len(e.answers)-2-i%e.memWindow]
			tm, err := e.hit(ctx, e.standalone, a, sp)
			return tm, a, err
		})
		op(classDisk, func(sp *obs.Span) (timing, answer, error) {
			a := e.answers[0]
			e.answers = e.answers[1:]
			s.diskSent++
			tm, err := e.hit(ctx, e.standalone, a, sp)
			return tm, a, err
		})
	} else {
		for _, cls := range []string{classMem, classDisk} {
			out.attempted++
			out.fail("%s: not sent, the round's cold request failed", cls)
		}
	}
	op(classFleet, func(sp *obs.Span) (timing, answer, error) {
		a := e.fleetKeys[i%len(e.fleetKeys)]
		tm, err := e.hit(ctx, e.coord, a, sp)
		return tm, a, err
	})
}

// daemonCounters are the standalone daemon's counters read over its
// public API.
type daemonCounters struct {
	metrics service.MetricsSnapshot
	store   store.Stats
}

func (e *serviceEnv) readCounters(ctx context.Context) (daemonCounters, error) {
	var c daemonCounters
	m, err := e.standalone.Metrics(ctx)
	if err != nil {
		return c, fmt.Errorf("metrics: %w", err)
	}
	c.metrics = m
	if err := e.getJSON(ctx, "/s/v1/store", &c.store); err != nil {
		return c, err
	}
	if c.store.Results == nil {
		return c, errors.New("store stats carry no result store")
	}
	return c, nil
}

func runService(ctx context.Context, cfg config, size serviceSize) (*outcome, error) {
	out := &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
	e, release, setupS, err := timeSetups(size.setups, func() (*serviceEnv, func(), error) {
		return startService(ctx, cfg, size)
	})
	if err != nil {
		return nil, err
	}
	defer release()

	before, err := e.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	s := newServiceStats()
	cal := &calibrator{}
	mem := startMemSampler()
	defer mem.finish()
	allocBefore := readAlloc()
	start := time.Now()
	round := 0
	for ; round == 0 || time.Since(start) < cfg.Measure; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cal.tick()
		e.round(ctx, round, s, out, nil)
	}
	alloc := readAlloc().sub(allocBefore)
	memMiB := mem.finish()
	after, err := e.readCounters(ctx)
	if err != nil {
		return nil, err
	}
	// Every disk-hit request, and no other, must have been read from the
	// result store: a mem-hit served from disk or a disk-hit served from
	// memory means the workload no longer measures what it claims.
	if reads := after.store.Results.Hits - before.store.Results.Hits; reads != int64(s.diskSent) {
		out.attempted++
		out.fail("result store served %d reads for %d disk-hit requests", reads, s.diskSent)
	}
	en := out.endToEnd
	for k, cls := range serviceClasses {
		if len(s.ms[cls]) == 0 {
			return nil, fmt.Errorf("no %s request succeeded: %v", cls, out.failures)
		}
		out.classes = append(out.classes, class{name: cls, ms: s.ms[cls]})
		a := s.answers[cls]
		classMetrics(en, k, cal.scale(median(s.ms[cls])), float64(a.volume)/float64(a.n), float64(a.placed)/float64(a.n))
	}
	en["setup_s"] = cal.scale(setupS)
	en["memory_mb"] = memMiB

	serviceLayers(out.perLayer, s, before, after, alloc)
	out.perLayer["calib.ref_ms"] = median(cal.ms)
	zero(out.perLayer, "place.items", "route.nets", "drc.ms", "drc.violations")
	if cfg.Trace {
		if err := traceService(ctx, cfg, e, s, round, size.traceRounds, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serviceLayerNames is the list of per-layer metrics only the service
// workload measures. The first four are the request classes' 90th
// percentiles, in the order of serviceClasses.
var serviceLayerNames = []string{
	"service.cold_ms.p90", "cache.mem_hit_ms.p90", "store.disk_hit_ms.p90", "fleet.hit_ms.p90",
	"service.submit_ms", "service.queue_ms", "service.run_ms", "service.finish_ms",
	"http.requests_per_op", "store.read_ms", "store.bytes_per_entry",
	"wal.records_per_op", "cache.evictions_per_op", "fleet.hop_ms",
}

func serviceLayers(pl map[string]float64, s *serviceStats, before, after daemonCounters, alloc allocCounters) {
	for k, cls := range serviceClasses {
		pl[serviceLayerNames[k]] = quantile(s.ms[cls], 0.9)
	}
	pl["service.submit_ms"] = median(s.submit)
	pl["service.queue_ms"] = median(s.queued)
	pl["service.run_ms"] = median(s.run)
	pl["service.finish_ms"] = median(s.finish)
	pl["http.requests_per_op"] = ratio(float64(s.requests), float64(s.ops))
	pl["store.read_ms"] = median(s.ms[classDisk]) - median(s.ms[classMem])
	pl["fleet.hop_ms"] = median(s.ms[classFleet]) - median(s.ms[classMem])
	res := after.store.Results
	pl["store.bytes_per_entry"] = ratio(float64(res.Bytes), float64(res.Entries))
	standaloneOps := float64(len(s.ms[classCold]) + len(s.ms[classMem]) + len(s.ms[classDisk]))
	pl["wal.records_per_op"] = ratio(float64(after.store.WAL.Records-before.store.WAL.Records), standaloneOps)
	pl["cache.evictions_per_op"] = ratio(float64(after.metrics.Cache.Evictions-before.metrics.Cache.Evictions), standaloneOps)

	// The cold requests run the whole pipeline inside the daemon; its
	// per-stage histograms and work counters give the same layers the
	// pipeline workloads time in process, per compile.
	bm, am := before.metrics, after.metrics
	compiles := float64(am.Jobs.Done - bm.Jobs.Done)
	stage := func(name string) float64 {
		a, b := am.Stages[name], bm.Stages[name]
		return ratio(a.SumMS-b.SumMS, float64(a.Count-b.Count))
	}
	pl["pdgraph.ms"] = stage("pdgraph")
	pl["simplify.ms"] = stage("simplify")
	pl["bridge.primal_ms"] = stage("primal-bridge")
	pl["bridge.dual_ms"] = stage("dual-bridge")
	pl["place.ms"] = stage("place")
	pl["route.ms"] = stage("route")
	moves := float64(am.Pipeline.AnnealMoves - bm.Pipeline.AnnealMoves)
	pl["place.moves"] = ratio(moves, compiles)
	pl["place.accept_ratio"] = ratio(float64(am.Pipeline.AnnealAccepted-bm.Pipeline.AnnealAccepted), moves)
	pl["place.us_per_move"] = ratio(1000*pl["place.ms"]*compiles, moves)
	rounds := ratio(float64(am.Pipeline.RouteRounds-bm.Pipeline.RouteRounds), compiles)
	pl["route.rounds"] = rounds
	pl["route.round_ms"] = ratio(pl["route.ms"], rounds)
	cold := *s.answers[classCold]
	reportLayers(pl, func(f func(counters) int) float64 { return ratio(float64(f(cold)), float64(cold.n)) })
	pl["route.overflow_rate"] = ratio(float64(cold.overflowed), float64(cold.n))
	// Every cold request compiles the same circuit to the same single
	// placement item, so distinct final volumes are the router's doing.
	pl["route.distinct_volumes"] = float64(len(s.coldVolumes))
	alloc.perOp(pl, s.ops)
}

// traceService makes a traced pass of a fixed number of rounds: every
// request is a bench-side span with its submit, event-stream and status
// calls as children. The daemons themselves run untraced, since a traced
// submission bypasses the cache the hits measure.
func traceService(ctx context.Context, cfg config, e *serviceEnv, untraced *serviceStats, firstRound, rounds int, out *outcome) error {
	tr := obs.NewTracer("service")
	s := newServiceStats()
	for i := 0; i < rounds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.round(ctx, firstRound+i, s, out, tr.Root())
	}
	tr.Finish()
	path, err := writeTrace(cfg, "service", tr)
	if err != nil {
		return err
	}
	out.traceFile = path
	var slowdown []float64
	for _, cls := range serviceClasses {
		slowdown = append(slowdown, ratio(median(s.ms[cls]), median(untraced.ms[cls])))
	}
	pl := out.perLayer
	pl["trace.overhead"] = geomean(slowdown) - 1
	pl["trace.spans_per_op"] = ratio(float64(spanSums(tr.Root()).spans), float64(s.ops))
	pl["trace.events_per_op"] = ratio(float64(s.events), float64(s.ops))
	zero(pl, "place.anneal_ms", "place.post_ms", "route.negotiate_ms", "route.setup_ms", "compile.self_ms")
	return nil
}
