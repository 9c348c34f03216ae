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
// Two kinds of replica share one follower core (follower.go): which
// endpoint is the primary, the sticky term mark, every HTTP request, the
// throttle and backoff policy and the shared half of the status
// document's follower section exist once there. Replica (this file) adds
// WAL-tail apply, bootstrap and promotion; DiskReplica (disk.go) adds
// segment delta-assembly and serves the mapped file.
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
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/url"
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

// walBatchMax bounds the entries requested per WAL poll.
const walBatchMax = 4096

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
	// Logf, when non-nil, receives reconnect/re-bootstrap warnings.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	o.Resolution = cmp.Or(max(o.Resolution, 0), 6)
	o.MergeEvery = cmp.Or(max(o.MergeEvery, 0), 200*time.Millisecond)
	o.MaxLag = cmp.Or(o.MaxLag, 15*time.Second) // negative disables
	o.PollWait = cmp.Or(max(o.PollWait, 0), 5*time.Second)
	o.ProbeEvery = cmp.Or(max(o.ProbeEvery, 0), 2*time.Second)
	o.DrainTimeout = cmp.Or(max(o.DrainTimeout, 0), 3*time.Second)
	return o
}

// errGenRotated: a 404 mid-download means the primary rotated the
// generation away under us; the next bootstrap starts from a fresh
// manifest.
var errGenRotated = errors.New("replica: generation rotated away mid-bootstrap")

// ErrPromoted is returned by Run after a successful promotion: the
// replica is now a primary and the replication loop has nothing left to
// tail. The embedded engine keeps serving.
var ErrPromoted = errors.New("replica: promoted to primary")

// Replica tails one primary. Construct with New, drive with Run, serve
// queries from it as an api.Source. All exported methods are safe for
// concurrent use.
type Replica struct {
	*follower
	opt Options
	eng *ingest.Engine

	applied      atomic.Uint64 // last WAL seq applied to the engine
	primarySeq   atomic.Uint64 // primary's frontier as of the last poll
	bootstrapped atomic.Bool
	lastCaughtUp atomic.Int64 // unix nanos of the last applied==primary poll

	tailTerm atomic.Uint64 // term the current bootstrap/tail session is pinned to

	promoteReq chan promoteAsk // buffered(1); drained by Run's loop

	bootstraps   atomic.Int64
	rebootstraps atomic.Int64
	reconnects   atomic.Int64
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
	f, err := newFollower(followerConfig{
		primary:    opt.Primary,
		resolution: opt.Resolution,
		termPath:   opt.TermPath,
		tracer:     opt.Tracer,
		faults:     opt.Faults,
		retryBase:  opt.RetryBase,
		retryMax:   opt.RetryMax,
		logf:       opt.Logf,
	})
	if err != nil {
		return nil, err
	}
	eng, err := ingest.NewEngine(ingest.Options{
		Resolution:    opt.Resolution,
		MergeEvery:    opt.MergeEvery,
		Description:   "replica of " + opt.Primary,
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
	r := &Replica{follower: f, opt: opt, eng: eng, promoteReq: make(chan promoteAsk, 1)}
	r.lastCaughtUp.Store(time.Now().UnixNano())
	if reg := opt.Metrics; reg != nil {
		f.registerMetrics(reg, "pol_replica")
		reg.GaugeFunc("pol_replica_lag_seconds", nil, func() float64 { return r.Lag().Seconds() })
		reg.GaugeFunc("pol_replica_lag_seq", nil, func() float64 { return float64(r.LagSeq()) })
		reg.GaugeFunc("pol_replica_applied_seq", nil, func() float64 { return float64(r.applied.Load()) })
		reg.GaugeFunc("pol_replica_primary_seq", nil, func() float64 { return float64(r.primarySeq.Load()) })
		boolGauge := func(name string, b func() bool) {
			reg.GaugeFunc(name, nil, func() float64 {
				if b() {
					return 1
				}
				return 0
			})
		}
		boolGauge("pol_replica_bootstrapped", r.bootstrapped.Load)
		boolGauge("pol_replica_promoted", r.Promoted)
		reg.CounterFunc("pol_replica_bootstraps_total", nil, func() float64 { return float64(r.bootstraps.Load()) })
		reg.CounterFunc("pol_replica_rebootstraps_total", nil, func() float64 { return float64(r.rebootstraps.Load()) })
		reg.CounterFunc("pol_replica_reconnects_total", nil, func() float64 { return float64(r.reconnects.Load()) })
	}
	return r, nil
}

// Run drives the replication loop until ctx is cancelled, a terminal
// configuration error (resolution mismatch) is hit, or the replica is
// promoted (ErrPromoted). Each cycle selects an endpoint and bootstraps
// from it if the local frontier is unusable, then tails its WAL; what a
// failed cycle means and how long to wait is the follower core's policy.
func (r *Replica) Run(ctx context.Context) error {
	if len(r.endpoints) > 1 {
		go r.probeLoop(ctx)
	}
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
		var err error
		if needBootstrap {
			err = r.bootstrap(ctx)
			needBootstrap = err != nil
		}
		if err == nil {
			err = r.tail(ctx)
		}
		if err == nil || ctx.Err() != nil {
			continue // loop top drains the promotion request or ends
		}
		switch v, after := r.failed(err); v {
		case terminal:
			return err
		case throttled:
			// A load-shedding primary is not a dead primary: honor the
			// hint, keep the frontier, don't touch the backoff.
			r.pause(ctx, after)
		case rebootstrap:
			r.rebootstraps.Add(1)
			r.logf("replica: %v", err)
			if path, ferr := r.opt.Tracer.RecordFlight("rebootstrap"); ferr == nil && path != "" {
				r.logf("flight recorder: re-bootstrap dump at %s", path)
			}
			needBootstrap = true
		case stale:
			r.logf("replica: %v", err)
			// A tail session that went stale selects again at once; a
			// selection that found nothing at or above the mark backs off
			// like any other failure.
			if needBootstrap {
				r.backoff(ctx)
			}
			needBootstrap = true
		default:
			if needBootstrap {
				r.logf("replica bootstrap: %v", err)
			} else {
				r.reconnects.Add(1)
				r.logf("replica tail: %v; reconnecting", err)
			}
			r.backoff(ctx)
		}
	}
	return ctx.Err()
}

// probeLoop re-runs endpoint selection on a fixed cadence while a tail
// session is up, so a higher-term endpoint is noticed even though the
// current one still answers. Every probe carries the term mark, so a
// demoted primary that comes back is fenced by the first probe that
// reaches it.
func (r *Replica) probeLoop(ctx context.Context) {
	t := time.NewTicker(r.opt.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, _ = r.selectEndpoint(ctx) // a failed probe round changes nothing
		}
	}
}

// bootstrap selects the endpoint to follow and installs its newest
// generation that downloads and verifies cleanly, falling back to the
// older one on a checksum mismatch.
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
	man, err := r.selectEndpoint(ctx)
	if err != nil {
		return err
	}
	var bad error // why the last generation tried was refused; the manifest lists at least one
	for _, g := range man.Generations {
		inv, stateData, err := r.fetchGeneration(ctx, g)
		if errors.Is(err, errCorrupt) {
			r.logf("replica bootstrap gen %d: %v; trying older generation", g.Gen, err)
			bad = err
			continue
		}
		if err != nil {
			return err // rotated, throttled, stale or unreachable: an older generation fares no better
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
	return fmt.Errorf("no checkpoint generation downloaded and verified cleanly: %w", bad)
}

// tail polls the WAL suffix past the applied frontier, applying verified
// records in strict sequence order. Returns errRebootstrap when the
// suffix is gone (pruned or gapped) or the primary's term changed; any
// other error is a connection problem Run retries against the same
// frontier; nil hands a pending promotion request (or the context's end)
// back to Run's loop top.
func (r *Replica) tail(ctx context.Context) error {
	for ctx.Err() == nil {
		if len(r.promoteReq) > 0 {
			return nil
		}
		lastSeq, err := r.pollOnce(ctx, r.opt.PollWait)
		if err != nil {
			return err
		}
		r.succeeded()
		r.primarySeq.Store(max(lastSeq, r.applied.Load()))
		if r.applied.Load() >= lastSeq {
			r.lastCaughtUp.Store(time.Now().UnixNano())
		}
	}
	return nil
}

// pollOnce runs one WAL fetch-and-apply round — the chunk goes to the
// applier engine as one envelope — and returns the primary's frontier as of
// the response. Shared by the steady-state tail and the
// promotion drain (which polls with wait=0).
func (r *Replica) pollOnce(ctx context.Context, wait time.Duration) (uint64, error) {
	applied := r.applied.Load()
	entries, lastSeq, err := r.fetchWAL(ctx, applied, wait)
	if err != nil {
		return 0, err
	}
	for len(entries) > 0 && entries[0].Seq <= applied {
		entries = entries[1:] // duplicate delivery; never applied twice
	}
	// The chunk must be the unbroken run that continues the frontier before
	// any of it reaches the engine.
	for i, e := range entries {
		if want := applied + 1 + uint64(i); e.Seq != want {
			return 0, fmt.Errorf("%w: WAL gap (got seq %d, want %d)", errRebootstrap, e.Seq, want)
		}
	}
	if len(entries) > 0 {
		if err := r.eng.ApplyReplicated(entries); err != nil {
			return 0, err
		}
		// Barrier: everything submitted above is applied and visible
		// before the frontier advances, so applied never claims a
		// record a concurrent reader cannot see.
		if err := r.eng.PublishNow(); err != nil {
			return 0, err
		}
		r.applied.Store(entries[len(entries)-1].Seq)
	}
	return lastSeq, nil
}

// errCorrupt marks a download that arrived but failed verification.
var errCorrupt = errors.New("replica: download failed verification")

// fetchGeneration downloads and verifies g's segment and state file and
// decodes the segment into the heap.
func (r *Replica) fetchGeneration(ctx context.Context, g ingest.ReplGenInfo) (*inventory.Inventory, []byte, error) {
	segData, err := r.fetchCheckpointFile(ctx, g.Gen, g.Seg, g.SegCRC, g.SegSize)
	if err != nil {
		return nil, nil, err
	}
	stateData, err := r.fetchCheckpointFile(ctx, g.Gen, g.State, g.StateCRC, g.StateSize)
	if err != nil {
		return nil, nil, err
	}
	// Verified bytes → heap: the whole-file CRC passed above; each block's
	// own CRC is checked again as it is inflated.
	inv, err := segment.LoadBytes(segData, g.Seg)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: segment decode: %w", errCorrupt, err)
	}
	return inv, stateData, nil
}

// fetchCheckpointFile downloads one generation file and verifies the
// whole-file CRC32C and size against the manifest before returning it —
// a truncated or corrupted download is rejected here, before any byte
// reaches the engine.
func (r *Replica) fetchCheckpointFile(ctx context.Context, gen uint64, name string, wantCRC uint32, wantSize int64) ([]byte, error) {
	if err := r.cfg.faults.Hit(FPFetchCheckpoint); err != nil {
		return nil, err
	}
	body, status, _, err := r.get(ctx, checkpointURL(r.endpoint(), gen, name), checkpointTimeout, "")
	if status == http.StatusNotFound {
		return nil, errGenRotated
	}
	if err != nil {
		return nil, err
	}
	if int64(len(body)) != wantSize {
		r.crcRejects.Add(1)
		return nil, fmt.Errorf("%w: %s: truncated (%d bytes, want %d)", errCorrupt, name, len(body), wantSize)
	}
	if sum := crc32.Checksum(body, castagnoli); sum != wantCRC {
		r.crcRejects.Add(1)
		return nil, fmt.Errorf("%w: %s: checksum mismatch (crc %08x, want %08x)", errCorrupt, name, sum, wantCRC)
	}
	return body, nil
}

// checkpointTimeout bounds one generation-file (or Range) download.
const checkpointTimeout = 2 * time.Minute

// checkpointURL is the one route both replica kinds download generation
// files from.
func checkpointURL(endpoint string, gen uint64, name string) string {
	return fmt.Sprintf("%s/v1/repl/checkpoint/%d/%s", endpoint, gen, url.PathEscape(name))
}

func (r *Replica) fetchWAL(ctx context.Context, fromSeq uint64, wait time.Duration) (entries []ingest.JournalEntry, lastSeq uint64, err error) {
	if err := r.cfg.faults.Hit(FPFetchWAL); err != nil {
		return nil, 0, err
	}
	// One trace per poll cycle: the primary's repl_wal server span joins
	// via the injected traceparent — the cross-process pair the replica
	// e2e asserts.
	span := r.opt.Tracer.StartRoot("replica.wal_poll")
	span.SetAttr("from_seq", fmt.Sprint(fromSeq))
	ctx = trace.ContextWith(ctx, span)
	defer func() {
		span.SetError(err)
		span.Finish()
	}()
	u := fmt.Sprintf("%s/v1/repl/wal?from_seq=%d&max=%d&wait=%s",
		r.endpoint(), fromSeq, walBatchMax, wait)
	body, status, hdr, err := r.get(ctx, u, wait+15*time.Second, "")
	if status == http.StatusGone {
		return nil, 0, fmt.Errorf("%w: WAL suffix past seq %d pruned", errRebootstrap, fromSeq)
	}
	if err != nil {
		return nil, 0, err
	}
	// A term change between polls — even to a higher one — means a new
	// primary with its own journal: the local frontier may be ahead of
	// or divergent from its history, so re-bootstrap rather than splice.
	if rt, _ := ingest.TermFromHeader(hdr); rt != r.tailTerm.Load() {
		return nil, 0, fmt.Errorf("%w: primary term changed %d -> %d", errRebootstrap, r.tailTerm.Load(), rt)
	}
	entries, lastSeq, err = ingest.ReadReplChunk(bytes.NewReader(body))
	if err != nil {
		r.crcRejects.Add(1)
		return nil, 0, err
	}
	span.SetAttr("entries", fmt.Sprint(len(entries)))
	return entries, lastSeq, nil
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
	timeout := cmp.Or(max(po.DrainTimeout, 0), r.opt.DrainTimeout)
	// Drain: chase the old primary's tip with non-blocking polls. Any
	// failure — old primary dead, drain failpoint, timeout — means
	// promoting from last-applied and declaring the rest lost.
	var res PromoteResult
	deadline := time.Now().Add(timeout)
	dctx, cancel := context.WithDeadline(ctx, deadline)
	for {
		if err := r.cfg.faults.Hit(FPPromoteDrain); err != nil {
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
	res.Term = newTerm
	res.Node = fmt.Sprintf("%016x", r.eng.Node())
	res.Seq = r.applied.Load()
	r.logf("replica: promoted to primary at term %d (seq %d)", newTerm, res.Seq)
	// Split-brain check: if a sibling won a racing promotion with a
	// beating (term, node) pair, fence ourselves now instead of waiting
	// for its first replication request to do it.
	for _, ep := range r.endpoints {
		// A winner answers 200 and the fetch has raised the mark to its
		// claim; a loser fences itself on this request and answers 503.
		if _, rt, rn, err := r.manifest(ctx, ep); err == nil && r.eng.ObserveRemoteTerm(rt, rn) {
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

// PromoteHandler serves POST /v1/admin/promote: runs the promotion with
// po — the durability targets the daemon fixed at startup — and reports
// the PromoteResult as JSON. A successful promotion also invokes
// onPromoted (may be nil) — daemons use it to open their NMEA feed
// listener.
func (r *Replica) PromoteHandler(po PromoteOptions, onPromoted func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		res, err := r.Promote(req.Context(), po)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		if onPromoted != nil {
			onPromoted()
		}
		serveJSON(w, res)
	})
}

// Engine exposes the applier engine so a promoted replica's daemon can
// mount the full primary surface (/v1/repl, NMEA feeds).
func (r *Replica) Engine() *ingest.Engine { return r.eng }

// Promoted reports whether this replica has become a primary: its engine
// was built an applier, so only a promotion gives it the primary role.
func (r *Replica) Promoted() bool { return r.eng.Role() == ingest.RolePrimary }

// Inventory implements api.Source: queries resolve against the applier
// engine's current snapshot.
func (r *Replica) Inventory() inventory.View { return r.eng.Snapshot() }

// Snapshot returns the applier engine's current snapshot as the concrete
// heap type, for tests and tools that compare inventories bit-exactly.
func (r *Replica) Snapshot() *inventory.Inventory { return r.eng.Snapshot() }

// AppliedSeq returns the replication frontier: the last WAL sequence
// applied to the local engine.
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

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
	if r.Promoted() {
		return 0 // a primary has nothing to lag behind
	}
	d := time.Since(time.Unix(0, r.lastCaughtUp.Load()))
	if d < 0 {
		return 0
	}
	return d
}

// ReadyDetail implements the obs.ReadyzDetailHandler contract: not ready
// until the first bootstrap installs a snapshot; ready-but-degraded with
// the lag in the detail once replication falls more than MaxLag behind.
func (r *Replica) ReadyDetail() (bool, string) {
	if r.Promoted() {
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

// StatusSnapshot collects the replica's status document: its applier
// engine's head and engine section, and the follower section with the WAL
// tail. The head's generation is the one installed until the engine,
// promoted, writes its own.
func (r *Replica) StatusSnapshot() ingest.Status {
	s := r.eng.StatsSnapshot()
	f := r.section()
	f.Bootstrapped = r.bootstrapped.Load()
	f.AppliedSeq = r.applied.Load()
	f.PrimarySeq = r.primarySeq.Load()
	f.LagSeq = r.LagSeq()
	f.LagSeconds = r.Lag().Seconds()
	f.Bootstraps = r.bootstraps.Load()
	f.Rebootstraps = r.rebootstraps.Load()
	f.Reconnects = r.reconnects.Load()
	s.FollowerSection = f
	if s.Generation == 0 {
		s.Generation = r.generation.Load()
	}
	return s
}

// Close shuts down the applier engine. Cancel Run's context first.
func (r *Replica) Close() error { return r.eng.Close() }
