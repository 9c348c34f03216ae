// Package replica implements the read-replica side of the scale-out
// serving tier: a stateless process that bootstraps its inventory from a
// primary's generational checkpoints and tails the primary's write-ahead
// log over the /v1/repl HTTP surface (see internal/ingest's ReplHandler).
//
// The replica applies fetched WAL records through a journal-free
// ingestion engine — the exact OnlineCleaner/TripTracker merge path the
// primary runs — so a caught-up replica's snapshot is inventory.Equal to
// the primary's. Correctness relies on three checks, all client-side:
//
//   - whole-file CRC32C and size verification of every checkpoint
//     download (the generation's POLSEG1 segment and its state file)
//     against the manifest before anything is installed (truncated or
//     bit-flipped downloads are rejected, never applied);
//   - per-record CRC32C on the WAL stream (the same framing as on disk);
//   - strict sequence contiguity: a record that is not exactly
//     appliedSeq+1 is never applied — duplicates are skipped, gaps force
//     a clean re-bootstrap from the newest checkpoint generation.
//
// Failure handling: connection errors reconnect with jittered
// exponential backoff; a 404 mid-bootstrap (generation rotated away
// between manifest fetch and download) re-fetches the manifest; a 410 on
// the WAL (suffix pruned past the replica's frontier) re-bootstraps.
// Replication lag is exported as the pol_replica_lag_seconds and
// pol_replica_lag_seq gauges and folded into ReadyDetail once it exceeds
// Options.MaxLag.
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/segment"
)

// Failpoints armed via POL_FAILPOINTS to drill the fetch path.
const (
	FPFetchManifest   = "replica.fetch.manifest"
	FPFetchCheckpoint = "replica.fetch.checkpoint"
	FPFetchWAL        = "replica.fetch.wal"
	// FPPromoteDrain fires on every WAL drain round during promotion; an
	// injected error exercises the proceed-from-last-applied path.
	FPPromoteDrain = "replica.promote.drain"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Replica.
type Options struct {
	// Primary is the primary's base HTTP URL (e.g. http://host:8080), or a
	// comma-separated list of candidate endpoints. With more than one, the
	// replica probes all of them and tails whichever advertises the highest
	// replication term, switching automatically after a failover.
	Primary string
	// Resolution must match the primary's hexgrid resolution; a manifest
	// reporting a different one is a configuration error and terminal.
	Resolution int
	// MergeEvery is the applier engine's micro-batch tick (default 200ms
	// — replicas favor freshness over merge batching).
	MergeEvery time.Duration
	// MaxLag marks the replica degraded in ReadyDetail once the
	// replication lag exceeds it (default 15s; <= 0 disables).
	MaxLag time.Duration
	// BatchMax bounds the entries requested per WAL poll (default 4096).
	BatchMax int
	// PollWait is the server-side long-poll hold while caught up
	// (default 5s).
	PollWait time.Duration
	// RetryBase and RetryMax bound the jittered exponential reconnect
	// backoff (defaults 250ms and 10s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// TermPath, when set, persists the highest replication term the
	// replica has observed, so a restart keeps rejecting a stale primary
	// it already knows to be demoted (sticky high-water mark).
	TermPath string
	// ProbeEvery is the cadence of background endpoint probes when more
	// than one endpoint is configured (default 2s). Probes carry the
	// term high-water mark, so they also fence stale primaries.
	ProbeEvery time.Duration
	// DrainTimeout bounds the WAL drain during promotion; past it the
	// promotion proceeds from last-applied and logs the lost-seq window
	// (default 3s).
	DrainTimeout time.Duration
	// NodeID identifies the applier engine in term tie-breaks (default:
	// random nonzero).
	NodeID uint64
	// CacheDir, when set, keeps verified checkpoint downloads on disk and
	// skips re-downloading any file whose local CRC32C and size already
	// match the manifest — a restart against an unchanged primary
	// bootstraps without moving the inventory over the network again.
	CacheDir string
	// Client is the HTTP client (default: one without a global timeout;
	// every request carries a context deadline derived from PollWait).
	Client *http.Client
	// Metrics, when non-nil, registers the pol_replica_* gauges and
	// counters (and the applier engine's pol_ingest_* series).
	Metrics *obs.Registry
	// Faults is the failpoint registry for fetch-path drills (default:
	// the process-wide registry armed from POL_FAILPOINTS).
	Faults *fault.Registry
	// Tracer, when non-nil, roots a trace per bootstrap and WAL poll and
	// injects W3C traceparent on every fetch, so the primary's replication
	// handlers record server spans in the same trace. Re-bootstraps dump
	// the flight recorder. The applier engine shares the tracer.
	Tracer *trace.Tracer
	// Description is stored in the applier engine's build info.
	Description string
	// Logf, when non-nil, receives reconnect/re-bootstrap warnings.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	o.Primary = strings.TrimRight(o.Primary, "/")
	if o.Resolution <= 0 {
		o.Resolution = 6
	}
	if o.MergeEvery <= 0 {
		o.MergeEvery = 200 * time.Millisecond
	}
	if o.MaxLag == 0 {
		o.MaxLag = 15 * time.Second
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 4096
	}
	if o.PollWait <= 0 {
		o.PollWait = 5 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 250 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 10 * time.Second
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = 2 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 3 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Faults == nil {
		o.Faults = fault.Default()
	}
	if o.Description == "" {
		o.Description = "replica of " + o.Primary
	}
	return o
}

// Control-flow sentinels inside Run.
var (
	errRebootstrap = errors.New("replica: re-bootstrap required")
	errGenRotated  = errors.New("replica: generation rotated away mid-bootstrap")
	errTerminal    = errors.New("replica: terminal configuration error")
	errStaleTerm   = errors.New("replica: endpoint serves a stale term")
)

// ErrPromoted is returned by Run after a successful promotion: the
// replica is now a primary and the replication loop has nothing left to
// tail. The embedded engine keeps serving.
var ErrPromoted = errors.New("replica: promoted to primary")

// throttledError carries a load-shedding primary's Retry-After hint. The
// run loop sleeps exactly the hinted duration instead of counting the
// response as a connection failure and doubling the backoff.
type throttledError struct{ after time.Duration }

func (t throttledError) Error() string {
	return fmt.Sprintf("replica: throttled by primary (retry after %s)", t.after)
}

// Replica tails one primary. Construct with New, drive with Run, serve
// queries from it as an api.Source. All exported methods are safe for
// concurrent use.
type Replica struct {
	opt       Options
	eng       *ingest.Engine
	endpoints []string     // candidate primary base URLs
	cur       atomic.Int64 // index into endpoints currently tailed

	applied      atomic.Uint64 // last WAL seq applied to the engine
	primarySeq   atomic.Uint64 // primary's frontier as of the last poll
	generation   atomic.Uint64 // checkpoint generation bootstrapped from
	bootstrapped atomic.Bool
	lastCaughtUp atomic.Int64 // unix nanos of the last applied==primary poll

	// Term high-water mark: the highest (term, node) pair observed from
	// any endpoint, persisted to TermPath so it survives restarts. Any
	// endpoint advertising a lower pair is a stale primary and is never
	// tailed. hwMu serializes raise-and-persist.
	hwMu     sync.Mutex
	hwTerm   atomic.Uint64
	hwNode   atomic.Uint64
	tailTerm atomic.Uint64 // term the current bootstrap/tail session is pinned to
	promoted atomic.Bool

	promoteReq chan promoteAsk // buffered(1); drained by Run's loop
	wake       chan struct{}   // interrupts backoff sleeps

	bootstraps     atomic.Int64
	rebootstraps   atomic.Int64
	reconnects     atomic.Int64
	crcRejects     atomic.Int64
	cacheHits      atomic.Int64
	throttled      atomic.Int64
	fencingRejects atomic.Int64 // stale-term responses rejected client-side
}

type promoteAsk struct {
	opt   PromoteOptions
	reply chan promoteReply
}

type promoteReply struct {
	res PromoteResult
	err error
}

// New builds the replica and its journal-free applier engine.
func New(opt Options) (*Replica, error) {
	opt = opt.withDefaults()
	if opt.Primary == "" {
		return nil, fmt.Errorf("replica: primary URL required")
	}
	var endpoints []string
	for _, ep := range strings.Split(opt.Primary, ",") {
		ep = strings.TrimRight(strings.TrimSpace(ep), "/")
		if ep == "" {
			continue
		}
		if _, err := url.Parse(ep); err != nil {
			return nil, fmt.Errorf("replica: bad primary URL %q: %w", ep, err)
		}
		endpoints = append(endpoints, ep)
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("replica: primary URL required")
	}
	eng, err := ingest.NewEngine(ingest.Options{
		Resolution:    opt.Resolution,
		MergeEvery:    opt.MergeEvery,
		Description:   opt.Description,
		Metrics:       opt.Metrics,
		Tracer:        opt.Tracer,
		Faults:        opt.Faults,
		NodeID:        opt.NodeID,
		Logf:          opt.Logf,
		ReplicaDriven: true,
	})
	if err != nil {
		return nil, err
	}
	r := &Replica{
		opt:        opt,
		eng:        eng,
		endpoints:  endpoints,
		promoteReq: make(chan promoteAsk, 1),
		wake:       make(chan struct{}, 1),
	}
	r.lastCaughtUp.Store(time.Now().UnixNano())
	if err := r.loadHW(); err != nil {
		eng.Close()
		return nil, err
	}
	if reg := opt.Metrics; reg != nil {
		reg.GaugeFunc("pol_replica_lag_seconds", nil, func() float64 { return r.Lag().Seconds() })
		reg.GaugeFunc("pol_replica_lag_seq", nil, func() float64 { return float64(r.LagSeq()) })
		reg.GaugeFunc("pol_replica_applied_seq", nil, func() float64 { return float64(r.applied.Load()) })
		reg.GaugeFunc("pol_replica_primary_seq", nil, func() float64 { return float64(r.primarySeq.Load()) })
		reg.GaugeFunc("pol_replica_bootstrapped", nil, func() float64 {
			if r.bootstrapped.Load() {
				return 1
			}
			return 0
		})
		reg.CounterFunc("pol_replica_bootstraps_total", nil, func() float64 { return float64(r.bootstraps.Load()) })
		reg.CounterFunc("pol_replica_rebootstraps_total", nil, func() float64 { return float64(r.rebootstraps.Load()) })
		reg.CounterFunc("pol_replica_reconnects_total", nil, func() float64 { return float64(r.reconnects.Load()) })
		reg.CounterFunc("pol_replica_crc_rejects_total", nil, func() float64 { return float64(r.crcRejects.Load()) })
		reg.CounterFunc("pol_replica_cache_hits_total", nil, func() float64 { return float64(r.cacheHits.Load()) })
		reg.CounterFunc("pol_replica_throttled_total", nil, func() float64 { return float64(r.throttled.Load()) })
		reg.CounterFunc("pol_replica_fencing_rejects_total", nil, func() float64 { return float64(r.fencingRejects.Load()) })
		reg.GaugeFunc("pol_replica_term", nil, func() float64 { return float64(r.hwTerm.Load()) })
		reg.GaugeFunc("pol_replica_promoted", nil, func() float64 {
			if r.promoted.Load() {
				return 1
			}
			return 0
		})
	}
	return r, nil
}

// endpoint returns the base URL currently tailed.
func (r *Replica) endpoint() string { return r.endpoints[r.cur.Load()] }

// readTermFile loads a persisted term high-water mark. A missing file is
// (0, 0): no term observed yet.
func readTermFile(path string) (term, node uint64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("replica: term file: %w", err)
	}
	if _, err := fmt.Sscanf(string(data), "POLTERM1\nterm %d node %x", &term, &node); err != nil {
		return 0, 0, fmt.Errorf("replica: term file %s: malformed: %w", path, err)
	}
	return term, node, nil
}

func writeTermFile(path string, term, node uint64) error {
	return inventory.AtomicWrite(path, func(w io.Writer) error {
		_, werr := fmt.Fprintf(w, "POLTERM1\nterm %d node %016x\n", term, node)
		return werr
	})
}

// loadHW restores the persisted term high-water mark, if any.
func (r *Replica) loadHW() error {
	if r.opt.TermPath == "" {
		return nil
	}
	term, node, err := readTermFile(r.opt.TermPath)
	if err != nil {
		return err
	}
	r.hwTerm.Store(term)
	r.hwNode.Store(node)
	return nil
}

// raiseHW lifts the term high-water mark to (term, node) if it beats the
// current one, persisting the new mark before it takes effect for
// callers. Safe for concurrent use.
func (r *Replica) raiseHW(term, node uint64) error {
	if term == 0 {
		return nil
	}
	r.hwMu.Lock()
	defer r.hwMu.Unlock()
	if !ingest.TermBeats(term, node, r.hwTerm.Load(), r.hwNode.Load()) {
		return nil
	}
	if r.opt.TermPath != "" {
		if err := writeTermFile(r.opt.TermPath, term, node); err != nil {
			return fmt.Errorf("replica: persist term high-water: %w", err)
		}
	}
	r.hwTerm.Store(term)
	r.hwNode.Store(node)
	return nil
}

// noteResponseTerm folds one response's term claim into the high-water
// mark. A response below the mark comes from a stale (demoted) primary:
// it is rejected with errStaleTerm, never applied.
func (r *Replica) noteResponseTerm(h http.Header) error {
	rt, rn := ingest.TermFromHeader(h)
	if rt == 0 {
		return nil // pre-term primary; nothing to compare
	}
	if ingest.TermBeats(r.hwTerm.Load(), r.hwNode.Load(), rt, rn) {
		r.fencingRejects.Add(1)
		return fmt.Errorf("%w: response term %d below high-water %d", errStaleTerm, rt, r.hwTerm.Load())
	}
	return r.raiseHW(rt, rn)
}

func (r *Replica) logf(format string, args ...any) {
	if r.opt.Logf != nil {
		r.opt.Logf(format, args...)
	}
}

// Run drives the replication loop until ctx is cancelled, a terminal
// configuration error (resolution mismatch) is hit, or the replica is
// promoted (ErrPromoted). Connection errors reconnect with jittered
// exponential backoff; pruned WAL suffixes, sequence gaps, and term
// changes re-bootstrap from the newest checkpoint generation; endpoints
// serving a term below the high-water mark are abandoned for the best
// probed sibling.
func (r *Replica) Run(ctx context.Context) error {
	if r.opt.ProbeEvery > 0 && len(r.endpoints) > 1 {
		go r.probeLoop(ctx)
	}
	delay := r.opt.RetryBase
	needBootstrap := true
	for ctx.Err() == nil {
		select {
		case ask := <-r.promoteReq:
			res, err := r.doPromote(ctx, ask.opt)
			ask.reply <- promoteReply{res: res, err: err}
			if err == nil {
				return ErrPromoted
			}
			if r.eng.Fenced() {
				// Lost a promotion race: the engine is fenced and there is
				// nothing useful to tail. The operator restarts this node
				// with a fresh role.
				return fmt.Errorf("%w: %v", errTerminal, err)
			}
			r.logf("replica: promotion failed: %v; resuming tail", err)
			continue
		default:
		}
		if needBootstrap {
			if err := r.bootstrap(ctx); err != nil {
				if errors.Is(err, errTerminal) || ctx.Err() != nil {
					return err
				}
				r.logf("replica bootstrap: %v", err)
				if errors.Is(err, errGenRotated) {
					continue // manifest already stale; refetch immediately
				}
				if errors.Is(err, errStaleTerm) {
					r.probeEndpoints(ctx)
					continue
				}
				var te throttledError
				if errors.As(err, &te) {
					r.throttled.Add(1)
					r.sleepFixed(ctx, te.after)
					continue
				}
				if !r.sleep(ctx, &delay) {
					break
				}
				r.probeEndpoints(ctx)
				continue
			}
			needBootstrap = false
			delay = r.opt.RetryBase
		}
		err := r.tail(ctx)
		if ctx.Err() != nil {
			break
		}
		if errors.Is(err, errPromotePending) {
			continue // loop top drains the request
		}
		var te throttledError
		if errors.As(err, &te) {
			// A load-shedding primary is not a dead primary: honor the
			// hint, keep the frontier, don't touch the backoff.
			r.throttled.Add(1)
			r.sleepFixed(ctx, te.after)
			continue
		}
		if errors.Is(err, errStaleTerm) {
			r.logf("replica: %v; switching endpoint", err)
			r.probeEndpoints(ctx)
			needBootstrap = true
			continue
		}
		if errors.Is(err, errRebootstrap) {
			r.rebootstraps.Add(1)
			r.logf("replica: %v", err)
			if path, ferr := r.opt.Tracer.RecordFlight("rebootstrap"); ferr == nil && path != "" {
				r.logf("flight recorder: re-bootstrap dump at %s", path)
			}
			needBootstrap = true
			continue
		}
		r.reconnects.Add(1)
		r.logf("replica tail: %v; reconnecting", err)
		if !r.sleep(ctx, &delay) {
			break
		}
		r.probeEndpoints(ctx)
	}
	return ctx.Err()
}

// probeLoop re-probes all endpoints on a fixed cadence. Beyond endpoint
// selection, every probe carries the term high-water mark, so a demoted
// primary that comes back is fenced by the first probe that reaches it.
func (r *Replica) probeLoop(ctx context.Context) {
	t := time.NewTicker(r.opt.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.probeEndpoints(ctx)
		}
	}
}

// probeEndpoints fetches every endpoint's manifest and points cur at the
// one advertising the highest (term, node) pair. Fenced and unreachable
// endpoints are skipped; with no reachable endpoint cur is left alone.
func (r *Replica) probeEndpoints(ctx context.Context) {
	if len(r.endpoints) < 2 {
		return
	}
	best, bestTerm, bestNode := -1, uint64(0), uint64(0)
	for i, ep := range r.endpoints {
		_, status, hdr, err := r.get(ctx, ep+"/v1/repl/manifest", 5*time.Second)
		if err != nil || status != http.StatusOK {
			continue
		}
		rt, rn := ingest.TermFromHeader(hdr)
		if best < 0 || ingest.TermBeats(rt, rn, bestTerm, bestNode) {
			best, bestTerm, bestNode = i, rt, rn
		}
	}
	if best < 0 {
		return
	}
	if err := r.raiseHW(bestTerm, bestNode); err != nil {
		r.logf("replica: %v", err)
	}
	if int64(best) != r.cur.Load() {
		r.logf("replica: switching endpoint %s -> %s (term %d)",
			r.endpoint(), r.endpoints[best], bestTerm)
		r.cur.Store(int64(best))
	}
}

// sleepFixed waits exactly d (a server-provided hint), or less if the
// context ends or a promotion request arrives.
func (r *Replica) sleepFixed(ctx context.Context, d time.Duration) {
	select {
	case <-time.After(d):
	case <-r.wake:
	case <-ctx.Done():
	}
}

// sleep waits one jittered backoff step (±50%), doubling delay up to
// RetryMax. False means the context ended first.
func (r *Replica) sleep(ctx context.Context, delay *time.Duration) bool {
	d := *delay/2 + time.Duration(rand.Int63n(int64(*delay)))
	*delay *= 2
	if *delay > r.opt.RetryMax {
		*delay = r.opt.RetryMax
	}
	select {
	case <-time.After(d):
		return true
	case <-r.wake:
		return true // promotion request pending; loop top handles it
	case <-ctx.Done():
		return false
	}
}

// bootstrap fetches the manifest and installs the newest generation that
// downloads and verifies cleanly, falling back to the older one on a
// checksum mismatch. A 404 mid-download means the primary rotated
// generations under us: errGenRotated asks Run for an immediate retry
// with a fresh manifest.
func (r *Replica) bootstrap(ctx context.Context) (err error) {
	// One trace per bootstrap attempt: the fetch children below inject its
	// traceparent, so the primary's repl_manifest/repl_checkpoint server
	// spans land in the same trace.
	span := r.opt.Tracer.StartRoot("replica.bootstrap")
	ctx = trace.ContextWith(ctx, span)
	defer func() {
		span.SetError(err)
		span.Finish()
	}()
	man, err := r.fetchManifest(ctx)
	if err != nil {
		return err
	}
	if man.Resolution != r.opt.Resolution {
		return fmt.Errorf("%w: primary resolution %d != replica resolution %d",
			errTerminal, man.Resolution, r.opt.Resolution)
	}
	if len(man.Generations) == 0 {
		return fmt.Errorf("primary has no checkpoint generation yet")
	}
	for _, g := range man.Generations {
		if g.Seg == "" {
			r.logf("replica bootstrap gen %d: no segment (pre-segment generation); trying older generation", g.Gen)
			continue
		}
		segData, err := r.fetchCheckpointFile(ctx, g.Gen, g.Seg, g.SegCRC, g.SegSize)
		if err != nil {
			if errors.Is(err, errGenRotated) {
				return err
			}
			r.logf("replica bootstrap gen %d: %v; trying older generation", g.Gen, err)
			continue
		}
		stateData, err := r.fetchCheckpointFile(ctx, g.Gen, g.State, g.StateCRC, g.StateSize)
		if err != nil {
			if errors.Is(err, errGenRotated) {
				return err
			}
			r.logf("replica bootstrap gen %d: %v; trying older generation", g.Gen, err)
			continue
		}
		// Verified bytes → heap: the whole-file CRC passed above; each
		// block's own CRC is checked again as it is inflated.
		inv, err := segment.LoadBytes(segData, g.Seg)
		if err != nil {
			r.logf("replica bootstrap gen %d: segment decode: %v", g.Gen, err)
			continue
		}
		if err := r.eng.InstallReplicaState(inv, stateData, g.Seq); err != nil {
			return err
		}
		r.applied.Store(g.Seq)
		r.primarySeq.Store(max(man.WALSeq, g.Seq))
		r.generation.Store(g.Gen)
		r.tailTerm.Store(man.Term)
		r.bootstrapped.Store(true)
		r.bootstraps.Add(1)
		r.logf("replica bootstrapped from %s generation %d (seq %d, term %d, primary at %d)",
			r.endpoint(), g.Gen, g.Seq, man.Term, man.WALSeq)
		return nil
	}
	return fmt.Errorf("no checkpoint generation downloaded and verified cleanly")
}

// errPromotePending bounces tail back to Run's loop top, where the
// promotion request is drained.
var errPromotePending = errors.New("replica: promotion requested")

// tail polls the WAL suffix past the applied frontier, applying verified
// records in strict sequence order. Returns errRebootstrap when the
// suffix is gone (pruned or gapped) or the primary's term changed; any
// other error is a connection problem Run retries against the same
// frontier.
func (r *Replica) tail(ctx context.Context) error {
	for ctx.Err() == nil {
		if len(r.promoteReq) > 0 {
			return errPromotePending
		}
		lastSeq, err := r.pollOnce(ctx, r.opt.PollWait)
		if err != nil {
			return err
		}
		r.primarySeq.Store(max(lastSeq, r.applied.Load()))
		if r.applied.Load() >= lastSeq {
			r.lastCaughtUp.Store(time.Now().UnixNano())
		}
	}
	return ctx.Err()
}

// pollOnce runs one WAL fetch-and-apply round and returns the primary's
// frontier as of the response. Shared by the steady-state tail and the
// promotion drain (which polls with wait=0).
func (r *Replica) pollOnce(ctx context.Context, wait time.Duration) (uint64, error) {
	entries, lastSeq, err := r.fetchWAL(ctx, r.applied.Load(), wait)
	if err != nil {
		return 0, err
	}
	applied := r.applied.Load()
	for _, e := range entries {
		if e.Seq <= applied {
			continue // duplicate delivery; never applied twice
		}
		if e.Seq != applied+1 {
			return 0, fmt.Errorf("%w: WAL gap (got seq %d, want %d)", errRebootstrap, e.Seq, applied+1)
		}
		if err := r.eng.SubmitReplicated(e); err != nil {
			return 0, err
		}
		applied = e.Seq
	}
	if len(entries) > 0 {
		// Barrier: everything submitted above is applied and visible
		// before the frontier advances, so applied never claims a
		// record a concurrent reader cannot see.
		if err := r.eng.PublishNow(); err != nil {
			return 0, err
		}
		r.applied.Store(applied)
	}
	return lastSeq, nil
}

func (r *Replica) fetchManifest(ctx context.Context) (ingest.ReplManifest, error) {
	var man ingest.ReplManifest
	if err := r.opt.Faults.Hit(FPFetchManifest); err != nil {
		return man, err
	}
	body, _, hdr, err := r.get(ctx, r.endpoint()+"/v1/repl/manifest", 30*time.Second)
	if err != nil {
		return man, err
	}
	if err := r.noteResponseTerm(hdr); err != nil {
		return man, err
	}
	if err := json.Unmarshal(body, &man); err != nil {
		return man, fmt.Errorf("replica: manifest decode: %w", err)
	}
	return man, nil
}

// fetchCheckpointFile downloads one generation file and verifies the
// whole-file CRC32C and size against the manifest before returning it —
// a truncated or corrupted download is rejected here, before any byte
// reaches the engine.
func (r *Replica) fetchCheckpointFile(ctx context.Context, gen uint64, name string, wantCRC uint32, wantSize int64) ([]byte, error) {
	// A cached copy whose checksum and size already match the manifest is
	// as good as a verified download: skip the network entirely.
	var cachePath string
	if r.opt.CacheDir != "" {
		cachePath = filepath.Join(r.opt.CacheDir, name)
		if data, err := os.ReadFile(cachePath); err == nil &&
			int64(len(data)) == wantSize && crc32.Checksum(data, castagnoli) == wantCRC {
			r.cacheHits.Add(1)
			return data, nil
		}
	}
	if err := r.opt.Faults.Hit(FPFetchCheckpoint); err != nil {
		return nil, err
	}
	u := fmt.Sprintf("%s/v1/repl/checkpoint/%d/%s", r.endpoint(), gen, url.PathEscape(name))
	body, status, hdr, err := r.get(ctx, u, 2*time.Minute)
	if status == http.StatusNotFound {
		return nil, errGenRotated
	}
	if err != nil {
		return nil, err
	}
	if err := r.noteResponseTerm(hdr); err != nil {
		return nil, err
	}
	if int64(len(body)) != wantSize {
		r.crcRejects.Add(1)
		return nil, fmt.Errorf("replica: %s: truncated download (%d bytes, want %d)", name, len(body), wantSize)
	}
	if sum := crc32.Checksum(body, castagnoli); sum != wantCRC {
		r.crcRejects.Add(1)
		return nil, fmt.Errorf("replica: %s: checksum mismatch (crc %08x, want %08x)", name, sum, wantCRC)
	}
	if cachePath != "" {
		// Best-effort: a failed cache write costs the next bootstrap one
		// download, nothing more.
		if err := os.MkdirAll(r.opt.CacheDir, 0o755); err == nil {
			_ = inventory.AtomicWrite(cachePath, func(w io.Writer) error {
				_, werr := w.Write(body)
				return werr
			})
		}
	}
	return body, nil
}

func (r *Replica) fetchWAL(ctx context.Context, fromSeq uint64, wait time.Duration) ([]ingest.JournalEntry, uint64, error) {
	if err := r.opt.Faults.Hit(FPFetchWAL); err != nil {
		return nil, 0, err
	}
	// One trace per poll cycle: the primary's repl_wal server span joins
	// via the injected traceparent — the cross-process pair the replica
	// e2e asserts.
	span := r.opt.Tracer.StartRoot("replica.wal_poll")
	span.SetAttr("from_seq", fmt.Sprint(fromSeq))
	ctx = trace.ContextWith(ctx, span)
	defer span.Finish()
	u := fmt.Sprintf("%s/v1/repl/wal?from_seq=%d&max=%d&wait=%s",
		r.endpoint(), fromSeq, r.opt.BatchMax, wait)
	body, status, hdr, err := r.get(ctx, u, wait+15*time.Second)
	if status == http.StatusGone {
		err = fmt.Errorf("%w: WAL suffix past seq %d pruned", errRebootstrap, fromSeq)
		span.SetError(err)
		return nil, 0, err
	}
	if err != nil {
		span.SetError(err)
		return nil, 0, err
	}
	if err := r.noteResponseTerm(hdr); err != nil {
		span.SetError(err)
		return nil, 0, err
	}
	// A term change between polls — even to a higher one — means a new
	// primary with its own journal: the local frontier may be ahead of
	// or divergent from its history, so re-bootstrap rather than splice.
	if rt, _ := ingest.TermFromHeader(hdr); rt != r.tailTerm.Load() {
		err = fmt.Errorf("%w: primary term changed %d -> %d", errRebootstrap, r.tailTerm.Load(), rt)
		span.SetError(err)
		return nil, 0, err
	}
	entries, lastSeq, err := ingest.ReadReplChunk(strings.NewReader(string(body)))
	if err != nil {
		r.crcRejects.Add(1)
		span.SetError(err)
		return nil, 0, err
	}
	span.SetAttr("entries", fmt.Sprint(len(entries)))
	return entries, lastSeq, nil
}

// get performs one GET with a per-request deadline, returning the body,
// status, and response headers. Non-2xx statuses return an error
// alongside the status so callers can branch on 404/410. Every request
// carries the term high-water mark, so any stale primary we talk to
// learns it has been demoted; a 429 comes back as throttledError with
// the server's Retry-After hint.
func (r *Replica) get(ctx context.Context, u string, timeout time.Duration) ([]byte, int, http.Header, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	ingest.SetTermHeader(req.Header, r.hwTerm.Load(), r.hwNode.Load())
	// Child of the ambient bootstrap/poll span (fresh root when there is
	// none); the injected traceparent carries its context to the primary.
	s := r.opt.Tracer.StartChild(trace.FromContext(ctx), "replica.fetch")
	s.SetAttr("url", u)
	trace.Inject(req, s)
	defer s.Finish()
	resp, err := r.opt.Client.Do(req)
	if err != nil {
		s.SetError(err)
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	s.SetAttr("status", fmt.Sprint(resp.StatusCode))
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		s.SetError(err)
		return nil, resp.StatusCode, resp.Header, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if v, perr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); perr == nil && v > 0 {
			after = time.Duration(v) * time.Second
		}
		err = throttledError{after: after}
		s.SetError(err)
		return nil, resp.StatusCode, resp.Header, err
	}
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("replica: GET %s: %s: %s",
			u, resp.Status, strings.TrimSpace(string(body)))
		s.SetError(err)
		return nil, resp.StatusCode, resp.Header, err
	}
	return body, resp.StatusCode, resp.Header, nil
}

// PromoteOptions carries the durability targets a promoted replica
// adopts: where the fresh journal and the term-stamped checkpoint
// generation go. Paths must be writable; they name artifacts the new
// primary owns exclusively (never the old primary's files).
type PromoteOptions struct {
	JournalPath     string
	CheckpointPath  string
	CheckpointEvery int
	WALSegmentBytes int64
	// DrainTimeout overrides Options.DrainTimeout for this promotion.
	DrainTimeout time.Duration
}

// PromoteResult reports what the promotion produced.
type PromoteResult struct {
	Term uint64 `json:"term"`
	Node string `json:"node"`
	Seq  uint64 `json:"seq"` // frontier at promotion; the new journal starts at Seq+1
	// LostFrom/LostTo bound the lost-seq window when the drain could not
	// reach the old primary's tip (both zero when the drain completed).
	LostFrom uint64 `json:"lost_from,omitempty"`
	LostTo   uint64 `json:"lost_to,omitempty"`
}

// Promote turns this replica into a primary: drain the WAL tail as far
// as the old primary allows, bump the term past the high-water mark,
// open a fresh journal and a term-stamped checkpoint generation, and
// stop tailing. On success Run returns ErrPromoted and the embedded
// engine accepts writes; on failure the replica keeps tailing and the
// promotion can be retried.
func (r *Replica) Promote(ctx context.Context, po PromoteOptions) (PromoteResult, error) {
	ask := promoteAsk{opt: po, reply: make(chan promoteReply, 1)}
	select {
	case r.promoteReq <- ask:
	case <-ctx.Done():
		return PromoteResult{}, ctx.Err()
	}
	select {
	case r.wake <- struct{}{}:
	default:
	}
	select {
	case rep := <-ask.reply:
		return rep.res, rep.err
	case <-ctx.Done():
		return PromoteResult{}, ctx.Err()
	}
}

// doPromote runs in Run's goroutine, so no WAL fetch races it.
func (r *Replica) doPromote(ctx context.Context, po PromoteOptions) (PromoteResult, error) {
	if !r.bootstrapped.Load() {
		return PromoteResult{}, fmt.Errorf("replica: cannot promote before first bootstrap")
	}
	if po.JournalPath == "" && po.CheckpointPath == "" {
		return PromoteResult{}, fmt.Errorf("replica: promotion needs a journal or checkpoint path")
	}
	timeout := po.DrainTimeout
	if timeout <= 0 {
		timeout = r.opt.DrainTimeout
	}
	// Drain: chase the old primary's tip with non-blocking polls. Any
	// failure — old primary dead, drain failpoint, timeout — means
	// promoting from last-applied and declaring the rest lost.
	var res PromoteResult
	deadline := time.Now().Add(timeout)
	dctx, cancel := context.WithDeadline(ctx, deadline)
	for {
		if err := r.opt.Faults.Hit(FPPromoteDrain); err != nil {
			r.recordLost(&res, r.primarySeq.Load(), fmt.Sprintf("drain failed: %v", err))
			break
		}
		lastSeq, err := r.pollOnce(dctx, 0)
		if err != nil {
			r.recordLost(&res, r.primarySeq.Load(), fmt.Sprintf("drain failed: %v", err))
			break
		}
		r.primarySeq.Store(max(lastSeq, r.applied.Load()))
		if r.applied.Load() >= lastSeq {
			break // caught up with the old primary's tip
		}
		if time.Now().After(deadline) {
			r.recordLost(&res, lastSeq, "drain timeout")
			break
		}
	}
	cancel()
	newTerm := r.hwTerm.Load() + 1
	if err := r.eng.Promote(ingest.PromoteOptions{
		JournalPath:     po.JournalPath,
		CheckpointPath:  po.CheckpointPath,
		CheckpointEvery: po.CheckpointEvery,
		WALSegmentBytes: po.WALSegmentBytes,
		Term:            newTerm,
	}); err != nil {
		return PromoteResult{}, err
	}
	// Persist the high-water mark only after the engine committed the new
	// term: a failed promotion must not leave this replica rejecting the
	// primary it still depends on.
	if err := r.raiseHW(newTerm, r.eng.Node()); err != nil {
		r.logf("replica: %v", err)
	}
	r.promoted.Store(true)
	res.Term = newTerm
	res.Node = fmt.Sprintf("%016x", r.eng.Node())
	res.Seq = r.applied.Load()
	r.logf("replica: promoted to primary at term %d (seq %d)", newTerm, res.Seq)
	// Split-brain check: if a sibling won a racing promotion with a
	// beating (term, node) pair, fence ourselves now instead of waiting
	// for its first replication request to do it.
	for _, ep := range r.endpoints {
		_, _, hdr, err := r.get(ctx, ep+"/v1/repl/manifest", 2*time.Second)
		if err != nil && hdr == nil {
			continue
		}
		if rt, rn := ingest.TermFromHeader(hdr); r.eng.ObserveRemoteTerm(rt, rn) {
			if herr := r.raiseHW(rt, rn); herr != nil {
				r.logf("replica: %v", herr)
			}
			return res, fmt.Errorf("replica: lost promotion race to %s (term %d, node %016x); fenced", ep, rt, rn)
		}
	}
	return res, nil
}

// recordLost notes the lost-seq window once (the first drain failure is
// the authoritative one).
func (r *Replica) recordLost(res *PromoteResult, target uint64, why string) {
	applied := r.applied.Load()
	if target <= applied || res.LostTo != 0 {
		return
	}
	res.LostFrom, res.LostTo = applied+1, target
	r.logf("replica: promotion proceeds from seq %d; lost-seq window [%d, %d] (%s) — re-feed that range upstream",
		applied, res.LostFrom, res.LostTo, why)
}

// PromoteConfig is the daemon-side wiring for PromoteHandler: the
// durability targets promotion adopts, fixed at startup by flags.
type PromoteConfig struct {
	JournalPath     string
	CheckpointPath  string
	CheckpointEvery int
	WALSegmentBytes int64
	DrainTimeout    time.Duration
}

// PromoteHandler serves POST /v1/admin/promote: runs the promotion with
// the configured targets and reports the PromoteResult as JSON. A
// successful promotion also invokes onPromoted (may be nil) — daemons
// use it to open their NMEA feed listener.
func (r *Replica) PromoteHandler(cfg PromoteConfig, onPromoted func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		res, err := r.Promote(req.Context(), PromoteOptions{
			JournalPath:     cfg.JournalPath,
			CheckpointPath:  cfg.CheckpointPath,
			CheckpointEvery: cfg.CheckpointEvery,
			WALSegmentBytes: cfg.WALSegmentBytes,
			DrainTimeout:    cfg.DrainTimeout,
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if onPromoted != nil {
			onPromoted()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(res)
	})
}

// Engine exposes the applier engine so a promoted replica's daemon can
// mount the full primary surface (/v1/repl, ingest stats, NMEA feeds).
func (r *Replica) Engine() *ingest.Engine { return r.eng }

// Promoted reports whether this replica has become a primary.
func (r *Replica) Promoted() bool { return r.promoted.Load() }

// WALStatus implements api.WALStatus so /v1/info on a promoted replica
// shows its journal frontier.
func (r *Replica) WALStatus() (ckptGen, ckptSeq, walSeq uint64) { return r.eng.WALStatus() }

// Inventory implements api.Source: queries resolve against the applier
// engine's current snapshot.
func (r *Replica) Inventory() inventory.View { return r.eng.Snapshot() }

// Snapshot returns the applier engine's current snapshot as the concrete
// heap type, for tests and tools that compare inventories bit-exactly.
func (r *Replica) Snapshot() *inventory.Inventory { return r.eng.Snapshot() }

// Uptime implements api.LiveStatus.
func (r *Replica) Uptime() time.Duration { return r.eng.Uptime() }

// SnapshotAge implements api.LiveStatus.
func (r *Replica) SnapshotAge() time.Duration { return r.eng.SnapshotAge() }

// AppliedSeq returns the replication frontier: the last WAL sequence
// applied to the local engine.
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

// PrimarySeq returns the primary's WAL frontier as of the last
// successful poll.
func (r *Replica) PrimarySeq() uint64 { return r.primarySeq.Load() }

// LagSeq returns how many WAL records the replica trails the primary by.
func (r *Replica) LagSeq() uint64 {
	p, a := r.primarySeq.Load(), r.applied.Load()
	if p <= a {
		return 0
	}
	return p - a
}

// Lag returns the time since the replica last observed itself caught up
// with the primary — near zero while tailing an idle or keeping pace
// with a busy primary, growing monotonically while disconnected or
// behind.
func (r *Replica) Lag() time.Duration {
	if r.promoted.Load() {
		return 0 // a primary has nothing to lag behind
	}
	d := time.Since(time.Unix(0, r.lastCaughtUp.Load()))
	if d < 0 {
		return 0
	}
	return d
}

// ReplicaStatus implements api.ReplicaStatus for the /v1/info block.
func (r *Replica) ReplicaStatus() (appliedSeq, primarySeq uint64, lag time.Duration) {
	return r.applied.Load(), r.primarySeq.Load(), r.Lag()
}

// ReadyDetail implements the obs.ReadyzDetailHandler contract: not ready
// until the first bootstrap installs a snapshot; ready-but-degraded with
// the lag in the detail once replication falls more than MaxLag behind.
func (r *Replica) ReadyDetail() (bool, string) {
	if r.promoted.Load() {
		return r.eng.ReadyDetail() // a primary now; lag is meaningless
	}
	if !r.bootstrapped.Load() {
		return false, "replica: not bootstrapped yet"
	}
	if lag := r.Lag(); r.opt.MaxLag > 0 && lag > r.opt.MaxLag {
		return true, fmt.Sprintf("degraded: replication lag %s (%d seqs behind)",
			lag.Round(time.Millisecond), r.LagSeq())
	}
	return true, ""
}

// Status is the JSON document served by StatusHandler.
type Status struct {
	Primary        string  `json:"primary"`
	Endpoints      int     `json:"endpoints"`
	Bootstrapped   bool    `json:"bootstrapped"`
	Promoted       bool    `json:"promoted"`
	Term           uint64  `json:"term"`
	Node           string  `json:"node"`
	Generation     uint64  `json:"generation"`
	AppliedSeq     uint64  `json:"applied_seq"`
	PrimarySeq     uint64  `json:"primary_seq"`
	LagSeq         uint64  `json:"lag_seq"`
	LagSeconds     float64 `json:"lag_seconds"`
	Bootstraps     int64   `json:"bootstraps"`
	Rebootstraps   int64   `json:"rebootstraps"`
	Reconnects     int64   `json:"reconnects"`
	CRCRejects     int64   `json:"crc_rejects"`
	CacheHits      int64   `json:"cache_hits"`
	Throttled      int64   `json:"throttled"`
	FencingRejects int64   `json:"fencing_rejects"`
	Groups         int64   `json:"groups"`
}

// StatusSnapshot collects the current replication counters.
func (r *Replica) StatusSnapshot() Status {
	s := Status{
		Primary:        r.endpoint(),
		Endpoints:      len(r.endpoints),
		Bootstrapped:   r.bootstrapped.Load(),
		Promoted:       r.promoted.Load(),
		Term:           r.hwTerm.Load(),
		Node:           fmt.Sprintf("%016x", r.hwNode.Load()),
		Generation:     r.generation.Load(),
		AppliedSeq:     r.applied.Load(),
		PrimarySeq:     r.primarySeq.Load(),
		LagSeq:         r.LagSeq(),
		LagSeconds:     r.Lag().Seconds(),
		Bootstraps:     r.bootstraps.Load(),
		Rebootstraps:   r.rebootstraps.Load(),
		Reconnects:     r.reconnects.Load(),
		CRCRejects:     r.crcRejects.Load(),
		CacheHits:      r.cacheHits.Load(),
		Throttled:      r.throttled.Load(),
		FencingRejects: r.fencingRejects.Load(),
	}
	if snap := r.eng.Snapshot(); snap != nil {
		s.Groups = int64(snap.Len())
	}
	return s
}

// StatusHandler serves the replication counters as JSON
// (/v1/replica/status on a replica daemon).
func (r *Replica) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.StatusSnapshot())
	})
}

// Close shuts down the applier engine. Cancel Run's context first.
func (r *Replica) Close() error { return r.eng.Close() }
