// Command tqecd is the TQEC compilation daemon: a long-lived HTTP/JSON
// service that compiles circuits on a bounded worker pool, caches results
// by content address, and supports per-job deadlines and cancellation.
//
// Usage:
//
//	tqecd -addr :8142 -workers 4 -queue 64 -cache 256
//
// Submit and fetch a compile:
//
//	curl -s -X POST localhost:8142/v1/jobs \
//	    -d '{"source":{"sample":"threecnot"},"options":{"mode":"full"}}'
//	curl -s localhost:8142/v1/jobs/j000001/result
//
// Observability:
//
//	curl -s -H 'Accept: text/plain' localhost:8142/metrics   # Prometheus exposition
//	curl -N localhost:8142/v1/jobs/j000001/events            # live SSE journal stream
//	curl -s localhost:8142/v1/jobs/j000001/journal           # finished-job journal
//	tqecd -debug-addr localhost:6060                         # net/http/pprof
//	tqecd -log-level debug -log-format json                  # structured logs
//
// Why a job was slow is answered by its trace (submit with "trace":
// true, then GET /v1/jobs/{id}/trace) and its journal.
//
// Durability (-data-dir) makes the daemon crash-safe: finished results
// persist in a content-addressed on-disk store and every job's lifecycle
// is write-ahead logged, so a restart re-queues interrupted jobs and
// serves repeat submissions from disk:
//
//	tqecd -data-dir /var/lib/tqecd -store-max-bytes 2147483648
//	curl -s localhost:8142/v1/store                          # store + WAL stats
//
// Fleet mode scales tqecd horizontally while keeping the wire API:
//
//	tqecd -role coordinator -addr :8142                          # front door
//	tqecd -role worker -addr :8143 -coordinator http://host:8142 # compile node
//
// A coordinator is the same job service — one job lifecycle, j… job IDs,
// the same /v1 API, WAL replay and metrics — whose jobs are dispatched to
// registered workers instead of compiled, routed by cache-key rendezvous
// hash (affinity) and failed over when a worker dies. -heartbeat is the
// fleet's one clock: a worker that misses 3 beats gets no new jobs, one
// that misses 9 is dead and its jobs fail over, and a job that finds no
// alive worker (as a restarted coordinator's replayed jobs do until their
// workers re-register on their next beat) waits up to 9 beats for one.
// Workers learn the cadence when they register. There -workers 0
// (the default) dispatches every admitted job at once, leaving load
// bounds to the workers; a positive -workers caps concurrent dispatches
// and -queue then bounds the jobs waiting for one. A job's deadline runs
// on its worker, over the compile alone. Results are cached on the
// workers, so -cache does not apply. The default role, standalone, is the
// unchanged single-process daemon.
//
// SIGINT/SIGTERM triggers a graceful drain: in-flight compiles finish
// (up to -drain-grace), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tqec/internal/fleet"
	"tqec/internal/obs"
	"tqec/internal/service"
	"tqec/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8142", "listen address")
		workers    = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS, negative = no cap; coordinator: concurrent dispatches, 0 = no cap)")
		queue      = flag.Int("queue", 64, "max queued jobs before submissions are rejected")
		cacheSize  = flag.Int("cache", 256, "result-cache entries (-1 disables caching)")
		dataDir    = flag.String("data-dir", "", "durable storage directory: crash-safe result store + write-ahead job log with restart recovery (empty = in-memory only)")
		storeMax   = flag.Int64("store-max-bytes", 0, "on-disk result-store byte bound before LRU GC (0 = default 1 GiB)")
		defTimeout = flag.Duration("default-timeout", 5*time.Minute, "per-job deadline when the request sets none")
		maxTimeout = flag.Duration("max-timeout", 30*time.Minute, "upper bound on requested per-job deadlines")
		retain     = flag.Int("retain", 512, "finished jobs kept queryable before the oldest are forgotten (-1 keeps all)")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long a shutdown waits for in-flight compiles")
		logLevel   = flag.String("log-level", "info", "log level: debug | info | warn | error")
		logFormat  = flag.String("log-format", "text", "log format: text | json")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this extra address (e.g. localhost:6060); off when empty")

		role        = flag.String("role", "standalone", "fleet role: standalone | coordinator | worker")
		coordinator = flag.String("coordinator", "", "coordinator base URL (worker role)")
		advertise   = flag.String("advertise", "", "base URL the coordinator should dispatch to (worker role; default http://<addr> with localhost for a wildcard host)")
		workerID    = flag.String("worker-id", "", "stable worker identity for rendezvous routing (worker role; default hostname:port)")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "the fleet's one clock (coordinator role): workers beat at this cadence, turn suspect after 3 missed beats and dead after 9, dispatched jobs are polled 10 times a beat, and a job with no alive worker waits up to 9 beats for one")
	)
	flag.Parse()

	logger, err := obs.NewLogger(obs.LogConfig{Level: *logLevel, Format: *logFormat, Writer: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqecd:", err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux()); err != nil {
				logger.Error("debug listener", "err", err)
			}
		}()
	}

	// The durable store outlives the server: it is opened before New (so
	// WAL replay can re-queue interrupted jobs) and closed after the
	// drain completes (so terminal records land).
	openStore := func(noResults bool) *store.Store {
		if *dataDir == "" {
			return nil
		}
		st, err := store.Open(*dataDir, store.Options{MaxBytes: *storeMax, NoResults: noResults})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqecd: -data-dir:", err)
			os.Exit(2)
		}
		logger.Info("durable store open", "dir", *dataDir, "wal_replayed", st.WAL.Stats().Replayed)
		return st
	}

	svcConfig := service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cacheSize,
		DefaultTimeout:  *defTimeout,
		MaxTimeout:      *maxTimeout,
		MaxFinishedJobs: *retain,
		Logger:          logger,
	}

	switch *role {
	case "standalone", "worker":
		st := openStore(false)
		svcConfig.Store = st
		svc := service.New(context.Background(), svcConfig)
		var agent *fleet.Agent
		if *role == "worker" {
			if *coordinator == "" {
				fmt.Fprintln(os.Stderr, "tqecd: -role worker requires -coordinator")
				os.Exit(2)
			}
			agent, err = fleet.StartAgent(context.Background(), fleet.AgentConfig{
				CoordinatorURL: *coordinator,
				WorkerID:       defaultWorkerID(*workerID, *addr),
				AdvertiseURL:   defaultAdvertise(*advertise, *addr),
				Stats:          func() (int, int) { s := svc.Stats(); return s.Running, s.Queued },
				Logger:         logger,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "tqecd:", err)
				os.Exit(2)
			}
		}
		serve(*addr, svc.Handler(), logger, *drainGrace, func(ctx context.Context) error {
			if agent != nil {
				agent.Stop()
			}
			err := svc.Shutdown(ctx)
			closeStore(st, logger)
			return err
		})
	case "coordinator":
		// A coordinator's store carries only the WAL: result payloads are
		// cached (and persisted) worker-side.
		st := openStore(true)
		svcConfig.Store = st
		coord := fleet.NewCoordinator(context.Background(), fleet.Config{
			Config:            svcConfig,
			HeartbeatInterval: *heartbeat,
		})
		serve(*addr, coord.Handler(), logger, *drainGrace, func(ctx context.Context) error {
			err := coord.Shutdown(ctx)
			closeStore(st, logger)
			return err
		})
	default:
		fmt.Fprintf(os.Stderr, "tqecd: unknown role %q (standalone | coordinator | worker)\n", *role)
		os.Exit(2)
	}
}

// closeStore closes the durable store after the drain.
func closeStore(st *store.Store, logger *slog.Logger) {
	if st == nil {
		return
	}
	if err := st.Close(); err != nil {
		logger.Error("store close", "err", err)
	}
}

// serve runs the HTTP listener until SIGINT/SIGTERM, then drains: the
// listener closes first, then shutdown runs with the drain grace.
func serve(addr string, h http.Handler, logger *slog.Logger, grace time.Duration, shutdown func(context.Context) error) {
	httpSrv := &http.Server{Addr: addr, Handler: h}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", addr, "version", obs.Version())
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "grace", grace)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		// Stop accepting connections first, then drain the job queue.
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("http shutdown", "err", err)
		}
		if err := shutdown(ctx); err != nil {
			logger.Error("drain incomplete", "err", err)
			os.Exit(1)
		}
		logger.Info("drained cleanly")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	}
}

// defaultAdvertise derives the dispatch URL from the listen address when
// -advertise is not set: a wildcard or empty host becomes localhost,
// which is right for single-machine fleets and must be overridden for
// anything else.
func defaultAdvertise(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	host, port := splitHostPort(addr)
	if host == "" || host == "0.0.0.0" || host == "::" || host == "[::]" {
		host = "localhost"
	}
	return "http://" + host + ":" + port
}

// defaultWorkerID derives a stable identity from the hostname and
// listen port when -worker-id is not set.
func defaultWorkerID(id, addr string) string {
	if id != "" {
		return id
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	_, port := splitHostPort(addr)
	return host + ":" + port
}

// splitHostPort splits a listen address on the final colon (good enough
// for host:port and :port forms, including bracketed IPv6 hosts).
func splitHostPort(addr string) (host, port string) {
	i := strings.LastIndex(addr, ":")
	if i < 0 {
		return addr, ""
	}
	return addr[:i], addr[i+1:]
}
