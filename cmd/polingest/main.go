// Command polingest is the standalone live ingestion daemon: it accepts
// timestamped NMEA feeds over TCP, maintains a continuously updated
// mobility inventory (cleaning, trip extraction, grid statistics — the
// full paper pipeline in online form), and serves the query API plus
// ingestion counters over HTTP. A write-ahead journal makes the state
// survive restarts; periodic checkpoint generations (a POLSEG1 segment
// plus an engine-state file) bound the replay, feed replicas, and keep the
// newest segment at the -checkpoint path itself for read-only consumers
// (polserve -inv/-seg, polquery).
//
// Usage:
//
//	polingest -listen :10110 -http :8080 -journal live.wal -checkpoint live.polinv
//
// Feed a recorded archive through it for a smoke test:
//
//	nc localhost 10110 < archive.nmea
//
// Endpoints (see internal/api for the query surface):
//
//	GET /v1/ingest/stats    live per-feed and engine counters (JSON),
//	                        including uptime and snapshot age
//	GET /v1/ops/anomalies   watchdog baselines and anomaly history
//	GET /v1/traces          recent distributed traces (tail-sampled);
//	                        /v1/traces/{id} returns one trace as a span
//	                        tree
//	GET /metrics            Prometheus-style telemetry
//	GET /healthz            liveness probe
//	GET /readyz             readiness: 503 until the first data snapshot;
//	                        a daemon running degraded (journal disk gone,
//	                        serving the last good snapshot read-only)
//	                        answers 200 "ready (degraded: ...)"
//	GET /debug/pprof/       profiling handlers (behind -pprof)
//	GET /v1/info, /v1/cell, /v1/eta, ...
//	GET /v1/repl/...        read-only replication surface (checkpoint
//	                        manifest, one Range-capable route for the
//	                        generation files, WAL long-poll, snapshot)
//	                        consumed by polserve -replica; see
//	                        internal/ingest's ReplHandler
//
// Under overload, -max-inflight bounds concurrent HTTP requests; excess
// requests are shed immediately with 429 + Retry-After rather than
// queued (counted in pol_http_shed_total). Fault injection points for
// robustness drills are armed via the POL_FAILPOINTS environment
// variable (see internal/fault).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/patternsoflife/pol/internal/api"
	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/ports"
)

func main() {
	var (
		listen    = flag.String("listen", ":10110", "NMEA feed listen address")
		httpAddr  = flag.String("http", ":8080", "HTTP listen address (query API + stats)")
		res       = flag.Int("res", 6, "hexgrid resolution")
		tick      = flag.Duration("tick", 2*time.Second, "inventory merge interval")
		journal   = flag.String("journal", "polingest.wal", "write-ahead journal path (empty disables durability)")
		ckpt      = flag.String("checkpoint", "", "periodic inventory checkpoint path (empty disables)")
		ckptEvery = flag.Int("checkpoint-every", 16, "merges between checkpoints")
		walSeg    = flag.Int64("wal-segment-bytes", 0, "journal segment rotation threshold (0 = default 64 MiB)")
		queue     = flag.Int("queue", 4096, "submission queue depth (backpressure bound)")
		inflight  = flag.Int("max-inflight", 0, "max concurrent HTTP requests before shedding with 429 (0 disables)")
		idle      = flag.Duration("idle-timeout", 5*time.Minute, "drop feeds silent for this long")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		accessLog = flag.Bool("access-log", false, "log one structured line per HTTP request")
		wdTick    = flag.Duration("watchdog-tick", 10*time.Second, "anomaly watchdog sampling interval")
		flightDir = flag.String("flight-dir", "", "flight-recorder dump directory (default: the journal directory)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "polingest")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if active := fault.Default().Active(); len(active) > 0 {
		logger.Warn("failpoints armed", "points", active)
	}

	reg := obs.NewRegistry()
	fdir := *flightDir
	if fdir == "" {
		switch {
		case *journal != "":
			fdir = filepath.Dir(*journal)
		case *ckpt != "":
			fdir = filepath.Dir(*ckpt)
		}
	}
	tr := trace.New(trace.Options{Service: "polingest", FlightDir: fdir})
	t0 := time.Now()
	eng, err := ingest.NewEngine(ingest.Options{
		Resolution:      *res,
		MergeEvery:      *tick,
		JournalPath:     *journal,
		CheckpointPath:  *ckpt,
		CheckpointEvery: *ckptEvery,
		WALSegmentBytes: *walSeg,
		QueueSize:       *queue,
		Description:     "polingest live inventory",
		Metrics:         reg,
		Tracer:          tr,
		Logf: func(format string, args ...any) {
			logger.With("sub", "engine").Warn(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		logger.Error("engine start", "err", err)
		os.Exit(1)
	}
	if n := eng.Snapshot().Len(); n > 0 {
		logger.Info("journal replayed", "groups", n, "dur", time.Since(t0).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("feed listen", "err", err)
		os.Exit(1)
	}
	feeds := ingest.NewServer(eng, ln, ingest.ServerOptions{
		IdleTimeout: *idle,
		Logf: func(format string, args ...any) {
			logger.With("sub", "feeds").Info(fmt.Sprintf(format, args...))
		},
	})
	logger.Info("accepting NMEA feeds", "addr", ln.Addr().String())

	wd := obs.NewWatchdog(reg, obs.WatchdogOptions{
		Interval: *wdTick,
		Logger:   logger.With("sub", "watchdog"),
		OnAnomaly: func(a obs.Anomaly) {
			if path, err := tr.RecordFlight("watchdog-" + a.Series); err == nil && path != "" {
				logger.Warn("flight recorder dump", "reason", a.Series, "path", path)
			}
		},
	})
	eng.AttachWatchdog(wd)
	wd.Start()

	mux := http.NewServeMux()
	tr.Mount(mux)
	mux.Handle("/", api.NewLiveServer(eng, ports.Default()).WithMetrics(reg).WithTracing(tr).Handler())
	mux.Handle("GET /v1/ingest/stats", eng.StatsHandler())
	mux.Handle("GET /v1/ops/anomalies", wd.Handler())
	mux.Handle("GET /v1/repl/", eng.ReplHandler())
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /healthz", obs.HealthzHandler())
	mux.Handle("GET /readyz", obs.ReadyzDetailHandler(eng.ReadyDetail))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	var handler http.Handler = mux
	if *accessLog {
		handler = obs.AccessLog(logger.With("sub", "http"), handler)
	}
	handler = obs.Shed(reg, *inflight, handler)
	httpSrv := &http.Server{
		Addr:              *httpAddr,
		Handler:           handler,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("http listening", "addr", *httpAddr)

	select {
	case err := <-errc:
		logger.Error("http serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "err", err)
	}
	wd.Stop()
	if err := feeds.Close(); err != nil {
		logger.Error("feed listener close", "err", err)
	}
	if err := eng.Close(); err != nil {
		logger.Error("engine close", "err", err)
	}
	logger.Info("bye")
}
