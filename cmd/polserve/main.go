// Command polserve exposes an inventory over HTTP as a small JSON API —
// the "online querying" deployment the paper describes for stakeholders.
// See internal/api for the endpoint documentation.
//
// Batch mode serves a prebuilt inventory file — a POLSEG1 segment, as
// written by polbuild or a checkpoint. -inv and -seg take the same file
// and differ only in residency: -inv inflates every block into the heap,
// where it stays as its column block (every query decodes one summary, and
// memory is the segment's raw size, about 350 B a group at res 6), -seg
// opens it in O(index) and answers queries straight off the mapped
// file without materializing the groups. Live mode (-live) is the
// ingestion daemon, the primary of a deployment: it accepts timestamped
// NMEA feeds over TCP on -listen, maintains a continuously updated
// inventory (cleaning, trip extraction, grid statistics — the full paper
// pipeline in online form) and serves it, so queries reflect traffic seen
// moments ago. With -journal a write-ahead journal makes the state
// survive restarts (without it the daemon is not durable); with
// -checkpoint, periodic checkpoint generations (a POLSEG1 segment plus an
// engine-state file) bound the replay, feed replicas, and keep the newest
// segment at the -checkpoint path itself for read-only consumers
// (polserve -inv/-seg, polquery). Replica mode (-replica <primary-url>)
// serves a read-only copy of a primary's live inventory: it bootstraps
// from the primary's newest checkpoint generation over /v1/repl and tails
// the primary's WAL, so N stateless replicas scale out the query tier
// while one primary owns ingestion and durability. A replica lagging more
// than -max-lag answers /readyz with 200 "ready (degraded: replication
// lag ...)". Adding -segdir to replica mode switches to the disk-backed
// replica: it mirrors the primary's checkpoint segments into the
// directory (fetching only changed shard blocks over Range requests) and
// serves them memory-mapped — cold start is O(index) instead of
// O(inventory) and the resident set stays small. Either way the process
// shuts down cleanly on SIGINT/SIGTERM, draining in-flight requests.
//
// A heap replica is promotable: POST /v1/admin/promote (or `polquery
// -promote <url>`) drains the WAL tail, bumps the replication term, opens
// a fresh journal/checkpoint at the -journal/-checkpoint paths, starts
// accepting NMEA feeds on -listen, and serves the full /v1/repl surface
// so sibling replicas re-bootstrap onto it. Give each replica a distinct
// -term-file so the highest term it has seen survives restarts.
//
// Endpoints beside the query surface (see internal/api for that):
//
//	GET /metrics            Prometheus-style telemetry (per-endpoint
//	                        latency histograms, ingest counters,
//	                        pipeline stage durations, watchdog gauges)
//	GET /healthz            liveness (200 while the process serves)
//	GET /readyz             readiness (live mode: 503 until the first
//	                        data snapshot is published; a daemon running
//	                        degraded — journal disk gone, serving the
//	                        last good snapshot read-only — answers 200
//	                        "ready (degraded: ...)")
//	GET /v1/status          the node's one status document (JSON; live
//	                        mode and both replica kinds): lifecycle
//	                        state, term/node, generation, groups, uptime
//	                        and snapshot age, then an engine section
//	                        (counters, WAL frontier, feeds) and on
//	                        replicas a follower section (endpoint, term
//	                        mark, applied/primary seq, lag, sync counters)
//	GET /v1/ops/anomalies   watchdog baselines and anomaly history
//	                        (live mode)
//	GET /v1/repl/...        read-only replication surface (checkpoint
//	                        manifest, one Range-capable route for the
//	                        generation files, WAL long-poll, snapshot)
//	                        consumed by polserve -replica; see
//	                        internal/ingest's ReplHandler (live mode and
//	                        heap replicas)
//	GET /v1/traces          recent distributed traces (tail-sampled);
//	                        /v1/traces/{id} returns one trace as a span
//	                        tree
//	GET /debug/pprof/       profiling handlers (behind -pprof)
//
// Under overload, -max-inflight bounds concurrent HTTP requests; excess
// requests are shed immediately with 429 + Retry-After rather than
// queued (counted in pol_http_shed_total). Fault injection points for
// robustness drills are armed via the POL_FAILPOINTS environment
// variable (see internal/fault).
//
// Usage:
//
//	polserve -inv fleet.polinv -addr :8080
//	polserve -seg fleet.polinv -addr :8080
//	polserve -live -listen :10110 -addr :8080 -journal live.wal -checkpoint live.polinv
//	polserve -replica http://primary:8080 -addr :8081 -max-lag 10s
//	polserve -replica http://primary:8080 -segdir /var/lib/pol/segs -addr :8081
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/patternsoflife/pol/internal/api"
	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/replica"
	"github.com/patternsoflife/pol/internal/segment"
)

func main() {
	var (
		invPath = flag.String("inv", "inventory.polinv", "inventory segment to load into the heap and serve (batch mode)")
		segPath = flag.String("seg", "", "inventory segment to serve mapped from disk instead of -inv (batch mode, O(index) open)")
		addr    = flag.String("addr", ":8080", "HTTP listen address")

		live      = flag.Bool("live", false, "serve from a live ingestion engine instead of a file")
		listen    = flag.String("listen", ":10110", "NMEA feed listen address (live mode)")
		res       = flag.Int("res", 6, "hexgrid resolution (live mode)")
		tick      = flag.Duration("tick", 2*time.Second, "inventory merge interval (live mode)")
		journal   = flag.String("journal", "", "write-ahead journal path (live mode; empty: not durable)")
		ckpt      = flag.String("checkpoint", "", "periodic inventory checkpoint path (live mode)")
		ckptEvery = flag.Int("checkpoint-every", 16, "merges between checkpoints (live mode)")
		walSeg    = flag.Int64("wal-segment-bytes", 0, "journal segment rotation threshold (live mode, 0 = default 64 MiB)")

		replicaOf  = flag.String("replica", "", "comma-separated primary base URLs to replicate from (replica mode, e.g. http://primary:8080); with several, the highest-term endpoint wins")
		segDir     = flag.String("segdir", "", "disk-backed replica: mirror the primary's segments into this directory and serve them mapped (replica mode)")
		maxLag     = flag.Duration("max-lag", 15*time.Second, "replication lag before /readyz reports degraded (replica mode)")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "endpoint probe cadence when -replica lists several endpoints")
		drainTmo   = flag.Duration("drain-timeout", 3*time.Second, "WAL drain bound during promotion; past it the promotion proceeds from last-applied (replica mode)")
		termFile   = flag.String("term-file", "", "replication term high-water file (replica mode; default <checkpoint>.term when -checkpoint is set)")

		inflight  = flag.Int("max-inflight", 0, "max concurrent HTTP requests before shedding with 429 (0 disables)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		accessLog = flag.Bool("access-log", false, "log one structured line per HTTP request")
		flightDir = flag.String("flight-dir", "", "flight-recorder dump directory (default: the journal/checkpoint directory; disabled when neither is set)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "polserve")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if active := fault.Default().Active(); len(active) > 0 {
		logger.Warn("failpoints armed", "points", active)
	}

	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	gaz := ports.Default()
	ready := func() (bool, string) { return true, "" }
	cleanup := func() {}
	closeLogged := func(what string, c io.Closer) {
		if err := c.Close(); err != nil {
			logger.Error(what+" close", "err", err)
		}
	}

	if *live && *replicaOf != "" {
		fatal(logger, "flags", errors.New("-live and -replica are mutually exclusive"))
	}
	if *segDir != "" && *replicaOf == "" {
		fatal(logger, "flags", errors.New("-segdir needs -replica (it is the disk-backed replica mode)"))
	}

	// Every mode gets a tracer and the /v1/traces query surface; the
	// flight recorder needs a data directory to dump into.
	fdir := *flightDir
	if fdir == "" {
		switch {
		case *journal != "":
			fdir = filepath.Dir(*journal)
		case *ckpt != "":
			fdir = filepath.Dir(*ckpt)
		}
	}
	service := "polserve"
	switch {
	case *replicaOf != "":
		service = "polserve-replica"
	case *live:
		service = "polserve-live"
	}
	tr := trace.New(trace.Options{Service: service, FlightDir: fdir})
	tr.Mount(mux)
	queries := func(src api.Source) http.Handler {
		return api.NewLiveServer(src, gaz).WithMetrics(reg).WithTracing(tr).Handler()
	}

	replicaErr := make(chan error, 1)
	if *replicaOf != "" && *segDir != "" {
		d, err := replica.NewDisk(replica.DiskOptions{
			Primary:    *replicaOf,
			Resolution: *res,
			Dir:        *segDir,
			PollEvery:  *tick,
			Metrics:    reg,
			Tracer:     tr,
			Faults:     fault.Default(),
			Logf:       logf(logger.With("sub", "diskreplica")),
		})
		if err != nil {
			fatal(logger, "disk replica start", err)
		}
		go func() { replicaErr <- d.Run(ctx) }()
		logger.Info("disk replica mode", "primary", *replicaOf, "dir", *segDir)

		mountNode(mux, queries(d), d.StatusSnapshot, nil)
		ready = d.ReadyDetail
		cleanup = func() { closeLogged("disk replica", d) }
	} else if *replicaOf != "" {
		tf := *termFile
		if tf == "" && *ckpt != "" {
			tf = *ckpt + ".term"
		}
		rep, err := replica.New(replica.Options{
			Primary:      *replicaOf,
			Resolution:   *res,
			MergeEvery:   *tick,
			MaxLag:       *maxLag,
			TermPath:     tf,
			ProbeEvery:   *probeEvery,
			DrainTimeout: *drainTmo,
			Metrics:      reg,
			Tracer:       tr,
			Faults:       fault.Default(),
			Logf:         logf(logger.With("sub", "replica")),
		})
		if err != nil {
			fatal(logger, "replica start", err)
		}
		go func() { replicaErr <- rep.Run(ctx) }()
		logger.Info("replica mode", "primary", *replicaOf, "maxLag", *maxLag, "termFile", tf)

		// Promotion turns this process into a primary: open the NMEA feed
		// listener exactly once, so feeders pointed at our -listen address
		// reconnect here after the failover.
		var promotedFeeds atomic.Pointer[ingest.Server]
		var promoteOnce sync.Once
		onPromoted := func() {
			promoteOnce.Do(func() {
				fs, err := openFeeds(rep.Engine(), *listen, logger)
				if err != nil {
					logger.Error("promoted feed listen", "err", err)
					return
				}
				promotedFeeds.Store(fs)
			})
		}

		// The full primary surface, live from the start: before promotion
		// the repl handlers answer for an engine with no generations (the
		// snapshot route already serves the replica's inventory); after
		// promotion siblings re-bootstrap from here.
		mountNode(mux, queries(rep), rep.StatusSnapshot, rep.Engine())
		mux.Handle("POST /v1/admin/promote", rep.PromoteHandler(replica.PromoteOptions{
			JournalPath:     *journal,
			CheckpointPath:  *ckpt,
			CheckpointEvery: *ckptEvery,
			WALSegmentBytes: *walSeg,
			DrainTimeout:    *drainTmo,
		}, onPromoted))
		ready = rep.ReadyDetail
		cleanup = func() {
			if fs := promotedFeeds.Load(); fs != nil {
				closeLogged("feed listener", fs)
			}
			closeLogged("replica", rep)
		}
	} else if *live {
		eng, err := ingest.NewEngine(ingest.Options{
			Resolution:      *res,
			MergeEvery:      *tick,
			JournalPath:     *journal,
			CheckpointPath:  *ckpt,
			CheckpointEvery: *ckptEvery,
			WALSegmentBytes: *walSeg,
			Description:     "polserve live ingestion",
			Metrics:         reg,
			Tracer:          tr,
			Logf:            logf(logger.With("sub", "engine")),
		})
		if err != nil {
			fatal(logger, "engine start", err)
		}
		logger.Info("live mode", "replayedGroups", eng.Snapshot().Len())
		feeds, err := openFeeds(eng, *listen, logger)
		if err != nil {
			fatal(logger, "feed listen", err)
		}

		wd := obs.NewWatchdog(reg, obs.WatchdogOptions{
			Logger: logger.With("sub", "watchdog"),
			OnAnomaly: func(a obs.Anomaly) {
				if path, err := tr.RecordFlight("watchdog-" + a.Series); err == nil && path != "" {
					logger.Warn("flight recorder dump", "reason", a.Series, "path", path)
				}
			},
		})
		eng.AttachWatchdog(wd)
		wd.Start()

		mountNode(mux, queries(eng), eng.StatsSnapshot, eng)
		mux.Handle("GET /v1/ops/anomalies", wd.Handler())
		ready = eng.ReadyDetail
		cleanup = func() {
			wd.Stop()
			closeLogged("feed listener", feeds)
			closeLogged("engine", eng)
		}
	} else if *segPath != "" {
		rd, err := segment.Open(*segPath, segment.Options{Metrics: segment.NewMetrics(reg)})
		if err != nil {
			fatal(logger, "segment open", err)
		}
		logger.Info("serving segment", "path", *segPath, "groups", rd.Len(), "mapped", rd.Mapped())
		mux.Handle("/", api.NewServer(rd, gaz).WithMetrics(reg).WithTracing(tr).Handler())
		cleanup = func() { closeLogged("segment", rd) }
	} else {
		inv, err := segment.Load(*invPath)
		if err != nil {
			fatal(logger, "inventory load", err)
		}
		logger.Info("serving inventory", "path", *invPath, "groups", inv.Len())
		mux.Handle("/", api.NewServer(inv, gaz).WithMetrics(reg).WithTracing(tr).Handler())
	}

	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /healthz", obs.HealthzHandler())
	mux.Handle("GET /readyz", obs.ReadyzDetailHandler(ready))
	if *pprofOn {
		mountPprof(mux)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	var handler http.Handler = mux
	if *accessLog {
		handler = obs.AccessLog(logger.With("sub", "http"), handler)
	}
	handler = obs.Shed(reg, *inflight, handler)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("http listening", "addr", *addr)

	for done := false; !done; {
		select {
		case err := <-errc:
			fatal(logger, "http serve", err)
		case err := <-replicaErr:
			if errors.Is(err, replica.ErrPromoted) {
				// The replication loop is over because we are the primary
				// now; keep serving.
				logger.Info("replica promoted; serving as primary")
				continue
			}
			if ctx.Err() == nil {
				fatal(logger, "replica run", err)
			}
			done = true
		case <-ctx.Done():
			done = true
		}
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown", "err", err)
	}
	cleanup()
	logger.Info("bye")
}

// mountNode mounts what every stateful mode serves: the query API, the
// node's one status document, and — where there is an engine, on the live
// primary and on a heap replica so that a promotion needs no new routes —
// the replication surface.
func mountNode(mux *http.ServeMux, queries http.Handler, status func() ingest.Status, eng *ingest.Engine) {
	mux.Handle("/", queries)
	mux.Handle("GET /v1/status", ingest.ServeStatus(status))
	if eng != nil {
		mux.Handle("GET /v1/repl/", eng.ReplHandler())
	}
}

// openFeeds starts accepting NMEA feeds for eng on addr; a feed silent for
// ingest.ServerOptions' default five minutes is dropped.
func openFeeds(eng *ingest.Engine, addr string, logger *slog.Logger) (*ingest.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	logger.Info("accepting NMEA feeds", "addr", ln.Addr().String())
	return ingest.NewServer(eng, ln, ingest.ServerOptions{Logf: logf(logger.With("sub", "feeds"))}), nil
}

// fatal logs the error and exits non-zero — the slog replacement for
// log.Fatal.
func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

// logf adapts a slog logger to the printf-style hook the feed server
// takes.
func logf(logger *slog.Logger) func(string, ...any) {
	return func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}
}

// mountPprof registers the profiling handlers on an explicit mux (the
// pprof package only self-registers on http.DefaultServeMux).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
