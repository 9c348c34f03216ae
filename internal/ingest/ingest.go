// Package ingest is the live ingestion subsystem: a long-running engine
// that accepts timestamped NMEA over TCP from any number of concurrent
// feed connections, decodes it through internal/ais and internal/feed,
// applies the paper's §3.3.1–§3.3.2 cleaning and trip extraction in
// online form (the same state machines the batch pipeline runs — see
// internal/pipeline's OnlineCleaner and TripTracker), and accumulates
// completed trips into micro-batch *period inventories* that are merged
// into a running master on a configurable tick.
//
// Serving never blocks on ingestion: the engine owns a private sharded
// master inventory and publishes immutable copy-on-write snapshots through
// an atomic.Pointer on every merge, so readers (internal/api in -live
// mode, the stats endpoint, stream monitors) always see a complete,
// consistent inventory. Publishing re-copies only the summaries the
// micro-batch changed (inventory.Snapshot), so publish latency tracks the
// delta size, not the accumulated inventory size.
//
// Durability is a length-prefixed write-ahead journal of accepted records
// (positions that survived range validation and deduplication, plus
// vessel static entries) with periodic checkpoint generations: the
// published snapshot as a POLSEG1 segment (segment.WriteFileSum) plus the
// engine state replay cannot re-derive (see checkpoint.go). Replaying the
// journal suffix past a generation through the deterministic
// cleaning/trip state machines reconstructs the exact engine state —
// including trips that were open when the process died — so
// kill-and-restart converges to the same inventory the uninterrupted run
// produces. The newest segment, hard-linked at the configured checkpoint
// path, doubles as the serving artifact read-only consumers and replicas
// open.
//
// Feeds must deliver each vessel's reports in timestamp order (the wire
// guarantees per-sender ordering); out-of-order records are counted and
// dropped. Vessel static reports should precede a vessel's positions, as
// provider feeds do — positions of vessels with no static entry yet are
// rejected, mirroring the batch commercial-fleet filter.
package ingest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
)

// Options configures an Engine.
type Options struct {
	// Resolution is the hexgrid resolution of the live inventory
	// (default 6).
	Resolution int
	// GroupSets selects the grouping sets to accumulate (default: all
	// three).
	GroupSets []inventory.GroupSet
	// MaxSpeedKnots is the infeasible-transition threshold (default 50).
	MaxSpeedKnots float64
	// MinTripRecords drops trips shorter than this (default 2).
	MinTripRecords int
	// MergeEvery is the micro-batch tick: how often the period inventory
	// is folded into the master and a fresh snapshot is published
	// (default 2s).
	MergeEvery time.Duration
	// JournalPath enables the write-ahead journal when non-empty. An
	// existing journal is replayed on startup.
	JournalPath string
	// CheckpointPath enables periodic snapshot checkpoints when non-empty.
	CheckpointPath string
	// CheckpointEvery is the number of merges between checkpoints
	// (default 16).
	CheckpointEvery int
	// QueueSize bounds the submission queue; full queues block submitters,
	// propagating backpressure to the TCP feeds (default 4096).
	QueueSize int
	// PortIndex is the geofence index (default: the embedded gazetteer at
	// ports.IndexResolution).
	PortIndex *ports.Index
	// Description is stored in the published snapshots' build info.
	Description string
	// Metrics, when non-nil, re-registers the engine counters in the
	// telemetry registry (alongside the JSON stats endpoint) and records
	// merge/publish/journal-fsync durations into the shared pipeline
	// stage histogram family.
	Metrics *obs.Registry
	// Tracer, when non-nil, records each merge cycle as a trace (root span
	// with merge/publish/checkpoint children, linked into latency-histogram
	// exemplars) and dumps the flight recorder on WAL corruption, degraded
	// transitions, and resumes. The hot per-record path is never traced.
	Tracer *trace.Tracer
	// WALSegmentBytes is the journal segment rotation threshold
	// (default 64 MiB).
	WALSegmentBytes int64
	// Faults is the failpoint registry threaded through the journal,
	// checkpointer, and merge path (default: the process-wide registry
	// armed from POL_FAILPOINTS).
	Faults *fault.Registry
	// RetryBase and RetryMax bound the jittered exponential backoff the
	// degraded-mode prober uses between disk-recovery attempts
	// (defaults 1s and 30s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Logf, when non-nil, receives recovery and degradation warnings.
	Logf func(format string, args ...any)
	// ReplicaDriven marks an engine fed exclusively by SubmitReplicated:
	// period→master merges happen only when a replicated merge marker
	// arrives, never on the local tick, so float summation order matches
	// the primary's and snapshots stay bit-identical (inventory.Equal).
	ReplicaDriven bool
	// Term is the initial fencing epoch (default 1). A checkpoint
	// manifest written under a later term overrides it at cold start, so
	// a restarted primary resumes at the term it last served.
	Term uint64
	// NodeID identifies this engine instance in term tie-breaks (default:
	// random). The manifest-recorded node of the newest generation
	// overrides it at cold start so a restarted primary keeps its
	// identity.
	NodeID uint64
}

func (o Options) withDefaults() Options {
	if o.Resolution <= 0 {
		o.Resolution = 6
	}
	if len(o.GroupSets) == 0 {
		o.GroupSets = inventory.AllGroupSets
	}
	if o.MaxSpeedKnots <= 0 {
		o.MaxSpeedKnots = 50
	}
	if o.MinTripRecords <= 0 {
		o.MinTripRecords = 2
	}
	if o.MergeEvery <= 0 {
		o.MergeEvery = 2 * time.Second
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 16
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4096
	}
	if o.PortIndex == nil {
		o.PortIndex = ports.NewIndex(ports.Default(), ports.IndexResolution)
	}
	if o.WALSegmentBytes <= 0 {
		o.WALSegmentBytes = 64 << 20
	}
	if o.Faults == nil {
		o.Faults = fault.Default()
	}
	if o.RetryBase <= 0 {
		o.RetryBase = time.Second
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 30 * time.Second
	}
	if o.Term == 0 && !o.ReplicaDriven {
		// Primaries start the epoch at 1. Replica appliers stay pre-term
		// (0) until promoted: they advertise no term of their own and can
		// never out-claim the primary they tail.
		o.Term = 1
	}
	if o.NodeID == 0 {
		o.NodeID = rand.Uint64() | 1 // never zero: zero means "unknown"
	}
	return o
}

// TermBeats reports whether claim (rt, rn) supersedes claim (lt, ln):
// strictly higher terms always win, and equal terms are broken by node
// identity so two promotions racing to the same term resolve to exactly
// one winner. A zero node never beats anything at equal term (it marks
// pre-epoch artifacts whose writer is unknown).
func TermBeats(rt, rn, lt, ln uint64) bool {
	if rt != lt {
		return rt > lt
	}
	return rn > ln
}

// FPEngineMerge defers one micro-batch merge when armed: the period is
// kept and folded in on the next tick.
const FPEngineMerge = "ingest.engine.merge"

// FPPromoteCheckpoint fails the term-stamped checkpoint a promotion must
// write before it may open a journal: the engine stays a replica and the
// promotion is retryable.
const FPPromoteCheckpoint = "ingest.promote.checkpoint"

// envelope kinds.
const (
	envPosition = iota
	envStatic
	envSync
	envFinalize
	envResume
	envInstall
	envPublish
	envReplMerge
	envPromote
)

// envelope is one unit of work on the engine queue.
type envelope struct {
	kind  int
	rec   model.PositionRecord
	info  model.VesselInfo
	feed  *FeedStats
	reply chan error
	// seq carries the primary's WAL sequence number on a replicated
	// record (Engine.SubmitReplicated); zero on direct submissions.
	seq uint64
	// inv and state carry a checkpoint install (envInstall).
	inv   *inventory.Inventory
	state []byte
	// promote carries an Engine.Promote request (envPromote).
	promote *PromoteOptions
}

// vesselState is the per-vessel online pipeline state.
type vesselState struct {
	cleaner *pipeline.OnlineCleaner
	tracker *pipeline.TripTracker
}

// ErrClosed is returned by Submit methods after Close.
var ErrClosed = fmt.Errorf("ingest: engine closed")

// Engine is the live ingestion core. Construct with NewEngine; submit
// decoded feed items (directly or through the TCP Server); read the
// current inventory with Snapshot. All exported methods are safe for
// concurrent use.
type Engine struct {
	opt   Options
	start time.Time

	in       chan envelope
	quit     chan struct{}
	loopDone chan struct{}
	closed   sync.Once

	snap atomic.Pointer[inventory.Inventory]

	m metrics

	// Stage-duration histograms in the shared pipeline family; nil when
	// Options.Metrics is unset (observing them goes through recordStage).
	hMerge, hPublish, hJournal, hCheckpoint *obs.Histogram

	feedsMu sync.Mutex
	feeds   []*FeedStats

	// journal is swapped by the loop on degraded-mode resume; readers
	// (stats gauges) load it atomically. Journal methods lock internally.
	// ckpt is likewise atomic because promotion installs a checkpointer
	// while HTTP handlers read it.
	journal   atomic.Pointer[Journal]
	ckpt      atomic.Pointer[checkpointer]
	ckptBusy  atomic.Bool
	ckptWG    sync.WaitGroup
	replaying bool

	// dur is the durability configuration: fixed at construction on a
	// journaled engine, installed by a successful Promote on a replica.
	// Handlers and the degraded prober read it concurrently with that
	// single promotion-time write.
	dur atomic.Pointer[durCfg]

	// Fencing epoch: term is the claim this engine serves under, node its
	// tie-break identity (fixed for the process lifetime). fenced latches
	// when a higher claim is observed anywhere in the cluster; unlike
	// plain degradation it never auto-resumes — the disk is healthy, the
	// mastership is not ours.
	term   atomic.Uint64
	node   uint64
	fenced atomic.Bool

	// Degraded mode: the journal or checkpoint disk path is erroring, so
	// new records are dropped (applying without journaling would diverge
	// from replay) while serving continues from the last good snapshot.
	degraded       atomic.Bool
	degradedReason atomic.Pointer[string]
	retrying       atomic.Bool

	// Loop-owned state: touched only by the run goroutine (and by
	// NewEngine during single-threaded journal replay).
	master    *inventory.Inventory
	period    *inventory.Inventory
	vessels   map[uint32]*vesselState
	statics   map[uint32]model.VesselInfo
	sinceCkpt int
	// lastSeq is the WAL sequence of the last record applied to loop
	// state — the frontier a resume checkpoint must cover even when the
	// broken journal lost its buffered tail. appliedSeq mirrors it
	// atomically for lock-free readers (replica lag, stats).
	lastSeq    uint64
	appliedSeq atomic.Uint64

	// cycle is the ambient merge-cycle trace span; loop-owned, non-nil
	// only while mergeAndPublish (or an explicit publish barrier) runs so
	// mergePeriod/publish/checkpoint can attach child spans and exemplars.
	cycle *trace.Span
}

// durCfg is the promotable subset of Options: where durability artifacts
// live and how they rotate.
type durCfg struct {
	journalPath, ckptPath string
	ckptEvery             int
	segBytes              int64
}

// setLastSeq advances the loop-owned frontier and its atomic mirror.
func (e *Engine) setLastSeq(seq uint64) {
	e.lastSeq = seq
	e.appliedSeq.Store(seq)
}

func (e *Engine) jrnl() *Journal { return e.journal.Load() }

// hasDurability reports whether the engine owns a journal or checkpoint
// path — originally configured or acquired by promotion.
func (e *Engine) hasDurability() bool {
	d := e.dur.Load()
	return d.journalPath != "" || d.ckptPath != ""
}

// Term returns the fencing epoch this engine currently claims.
func (e *Engine) Term() uint64 { return e.term.Load() }

// Node returns the engine's term tie-break identity.
func (e *Engine) Node() uint64 { return e.node }

// Fenced reports whether a higher-term claim has permanently demoted
// this engine to read-only serving.
func (e *Engine) Fenced() bool { return e.fenced.Load() }

func (e *Engine) logf(format string, args ...any) {
	if e.opt.Logf != nil {
		e.opt.Logf(format, args...)
	}
}

// NewEngine builds the engine, replays the journal when one exists, and
// starts the merge loop.
func NewEngine(opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	e := &Engine{
		opt:      opt,
		start:    time.Now(),
		in:       make(chan envelope, opt.QueueSize),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		vessels:  make(map[uint32]*vesselState),
		statics:  make(map[uint32]model.VesselInfo),
	}
	if reg := opt.Metrics; reg != nil {
		e.hMerge = reg.Histogram(obs.MetricStageSeconds, obs.Labels{"stage": "ingest_merge"})
		e.hPublish = reg.Histogram(obs.MetricStageSeconds, obs.Labels{"stage": "ingest_publish"})
		e.hJournal = reg.Histogram(obs.MetricStageSeconds, obs.Labels{"stage": "journal_fsync"})
		e.hCheckpoint = reg.Histogram(obs.MetricStageSeconds, obs.Labels{"stage": "checkpoint"})
		e.registerMetrics(reg)
	}
	e.master = inventory.New(inventory.BuildInfo{
		Resolution:  opt.Resolution,
		Description: opt.Description,
	})
	e.period = inventory.New(inventory.BuildInfo{Resolution: opt.Resolution})
	e.dur.Store(&durCfg{
		journalPath: opt.JournalPath,
		ckptPath:    opt.CheckpointPath,
		ckptEvery:   opt.CheckpointEvery,
		segBytes:    opt.WALSegmentBytes,
	})
	e.term.Store(opt.Term)
	e.node = opt.NodeID

	// Cold-start recovery: restore the newest intact checkpoint
	// generation (falling back on checksum mismatch), then replay only
	// the WAL records past the generation's covered sequence.
	var startSeq uint64
	if opt.CheckpointPath != "" {
		ckpt := newCheckpointer(opt.CheckpointPath, opt.Faults, opt.Logf)
		e.ckpt.Store(ckpt)
		master, st, seq, err := ckpt.Load(opt.Resolution)
		if err != nil {
			return nil, err
		}
		if master != nil {
			e.master = master
			e.restoreState(st)
			startSeq = seq
			e.setLastSeq(seq)
		}
		// Resume the fencing epoch the newest generation was written
		// under: a restarted primary must come back at its old term with
		// its old identity, not as a fresh node that clients tracking the
		// previous incarnation's (term, node) pair would reject.
		if term, node := ckpt.newestTermNode(); term >= e.term.Load() && term > 0 {
			e.term.Store(term)
			if node != 0 {
				e.node = node
			}
		}
	}
	if opt.JournalPath != "" {
		e.replaying = true
		j, err := OpenJournal(opt.JournalPath, JournalOptions{
			SegmentBytes: opt.WALSegmentBytes,
			StartSeq:     startSeq,
			// If a crash lost the WAL tail the checkpoint had already
			// covered, new appends must not reuse the covered sequence
			// range — replay skips everything at or below startSeq.
			NextSeqAtLeast: startSeq + 1,
			Faults:         opt.Faults,
			Logf:           opt.Logf,
		}, func(entry JournalEntry) error {
			switch entry.Kind {
			case entryStatic:
				e.processStatic(entry.Info, nil)
			case entryPosition:
				e.processPosition(entry.Pos, nil)
			case entryMerge:
				// Fold exactly where the pre-crash engine folded: float
				// summation is grouping-dependent, so merge boundaries
				// are part of the replayed state machine.
				e.mergePeriod(time.Now())
			}
			return nil
		})
		e.replaying = false
		if err != nil {
			return nil, err
		}
		e.journal.Store(j)
		rec := j.Recovery()
		e.m.walCorruption.Add(rec.CorruptEvents)
		e.m.walSegments.Store(int64(j.Segments()))
		e.m.journalBytes.Store(j.Size())
		if rec.CorruptEvents > 0 {
			e.logf("journal recovery: %d corruption event(s), %d bytes quarantined, replay stopped at seq %d",
				rec.CorruptEvents, rec.QuarantinedBytes, rec.LastSeq)
			if path, ferr := opt.Tracer.RecordFlight("wal-corruption"); ferr == nil && path != "" {
				e.logf("flight recorder: WAL corruption dump at %s", path)
			}
		}
		// Fold any replayed tail past the last marker into the master so
		// the first snapshot already reflects the journal. The fold is
		// itself a merge boundary: journal a marker first so a tailing
		// replica (or the next replay) folds at the same frontier.
		if e.period.Len() > 0 {
			if err := j.AppendMerge(); err != nil {
				return nil, err
			}
			e.mergePeriod(time.Now())
		}
		e.setLastSeq(j.LastSeq())
	}
	e.publish(time.Now())
	go e.run()
	return e, nil
}

// restoreState installs a decoded checkpoint state into the loop-owned
// maps and the counter block (single-threaded: called before run starts).
func (e *Engine) restoreState(st *engineState) {
	c := st.counters
	e.m.positionsSeen.Store(c.positionsSeen)
	e.m.staticsSeen.Store(c.staticsSeen)
	e.m.accepted.Store(c.accepted)
	e.m.rejected.Store(c.rejected)
	e.m.rejectedUnknown.Store(c.rejectedUnknown)
	e.m.rejectedNonCommercial.Store(c.rejectedNonCommercial)
	e.m.rejectedRange.Store(c.rejectedRange)
	e.m.rejectedDuplicate.Store(c.rejectedDuplicate)
	e.m.rejectedOutOfOrder.Store(c.rejectedOutOfOrder)
	e.m.rejectedInfeasible.Store(c.rejectedInfeasible)
	e.m.trips.Store(c.trips)
	e.m.tripRecords.Store(c.tripRecords)
	e.m.observations.Store(c.observations)
	e.statics = st.statics
	for mmsi, vp := range st.vessels {
		vs := &vesselState{
			cleaner: pipeline.NewOnlineCleaner(e.opt.MaxSpeedKnots),
			tracker: pipeline.NewTripTracker(e.opt.PortIndex, e.opt.MinTripRecords),
		}
		vs.cleaner.SetState(vp.cleaner)
		vs.tracker.SetState(vp.tracker)
		e.vessels[mmsi] = vs
	}
	e.m.vessels.Store(int64(len(e.vessels)))
}

// captureState deep-copies the loop state for a checkpoint: the write
// happens in the background while the loop keeps mutating the originals.
func (e *Engine) captureState() *engineState {
	st := &engineState{
		statics: make(map[uint32]model.VesselInfo, len(e.statics)),
		vessels: make(map[uint32]vesselPersist, len(e.vessels)),
	}
	st.counters = stateCounters{
		positionsSeen:         e.m.positionsSeen.Load(),
		staticsSeen:           e.m.staticsSeen.Load(),
		accepted:              e.m.accepted.Load(),
		rejected:              e.m.rejected.Load(),
		rejectedUnknown:       e.m.rejectedUnknown.Load(),
		rejectedNonCommercial: e.m.rejectedNonCommercial.Load(),
		rejectedRange:         e.m.rejectedRange.Load(),
		rejectedDuplicate:     e.m.rejectedDuplicate.Load(),
		rejectedOutOfOrder:    e.m.rejectedOutOfOrder.Load(),
		rejectedInfeasible:    e.m.rejectedInfeasible.Load(),
		trips:                 e.m.trips.Load(),
		tripRecords:           e.m.tripRecords.Load(),
		observations:          e.m.observations.Load(),
	}
	for mmsi, v := range e.statics {
		st.statics[mmsi] = v
	}
	for mmsi, vs := range e.vessels {
		vp := vesselPersist{cleaner: vs.cleaner.State(), tracker: vs.tracker.State()}
		// Tracker state aliases live buffers; snapshot them.
		if vp.tracker.HasTrip {
			vp.tracker.Trip.Records = append([]model.PositionRecord(nil), vp.tracker.Trip.Records...)
		}
		vp.tracker.Visit = append([]model.PositionRecord(nil), vp.tracker.Visit...)
		st.vessels[mmsi] = vp
	}
	return st
}

// Snapshot returns the latest published inventory. The result is
// immutable and safe for concurrent reads; it never observes a partially
// merged state.
func (e *Engine) Snapshot() *inventory.Inventory { return e.snap.Load() }

// Inventory implements api.Source: serving resolves the snapshot per
// request.
func (e *Engine) Inventory() inventory.View { return e.Snapshot() }

// SubmitPosition enqueues one decoded position report. It blocks while
// the queue is full (backpressure) and returns ErrClosed after Close.
func (e *Engine) SubmitPosition(rec model.PositionRecord, fs *FeedStats) error {
	return e.submit(envelope{kind: envPosition, rec: rec, feed: fs})
}

// SubmitStatic enqueues one vessel static-inventory entry.
func (e *Engine) SubmitStatic(v model.VesselInfo, fs *FeedStats) error {
	return e.submit(envelope{kind: envStatic, info: v, feed: fs})
}

// SubmitItem enqueues one decoded feed item.
func (e *Engine) SubmitItem(it feed.Item, fs *FeedStats) error {
	switch it.Kind {
	case feed.ItemPosition:
		return e.SubmitPosition(it.Pos, fs)
	case feed.ItemStatic:
		return e.SubmitStatic(feed.StaticAsVesselInfo(it.Static), fs)
	default:
		return fmt.Errorf("ingest: unknown feed item kind %d", it.Kind)
	}
}

func (e *Engine) submit(env envelope) error {
	select {
	case <-e.quit:
		return ErrClosed
	default:
	}
	select {
	case e.in <- env:
		return nil
	case <-e.quit:
		return ErrClosed
	}
}

// Sync blocks until every record submitted before the call has been
// processed and the journal is durable on disk.
func (e *Engine) Sync() error {
	reply := make(chan error, 1)
	if err := e.submit(envelope{kind: envSync, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// Finalize applies end-of-stream semantics — final in-fence visits
// complete their trips exactly as the batch extractor does at dataset end
// — then merges and publishes. Use it when a bounded replay (a test, a
// backfill) should converge to the batch-built inventory; a daemon
// serving endless feeds never needs it. The engine remains usable.
func (e *Engine) Finalize() error {
	reply := make(chan error, 1)
	if err := e.submit(envelope{kind: envFinalize, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// ErrHasDurability is returned by the replica apply surface on engines
// that own a journal or checkpoint path: swapping their state out from
// under the WAL would break the replay invariant.
var ErrHasDurability = fmt.Errorf("ingest: engine with journal/checkpoint cannot apply replicated state")

// SubmitReplicated enqueues one WAL entry fetched from a primary,
// tagged with the primary's sequence number so AppliedSeq tracks the
// replication frontier. The record flows through the same cleaner and
// trip-tracker path as a direct submission, so a replica that applies
// the primary's WAL in order converges to an inventory.Equal snapshot.
// Only journal-free engines may apply replicated records.
func (e *Engine) SubmitReplicated(entry JournalEntry) error {
	if e.hasDurability() {
		return ErrHasDurability
	}
	switch entry.Kind {
	case entryPosition:
		return e.submit(envelope{kind: envPosition, rec: entry.Pos, seq: entry.Seq})
	case entryStatic:
		return e.submit(envelope{kind: envStatic, info: entry.Info, seq: entry.Seq})
	case entryMerge:
		return e.submit(envelope{kind: envReplMerge, seq: entry.Seq})
	default:
		return fmt.Errorf("ingest: unknown journal entry kind %q", entry.Kind)
	}
}

// InstallReplicaState atomically replaces the engine's entire state with
// a checkpoint generation downloaded from a primary: inv becomes the
// master inventory, the POLSTAT1 state bytes restore the static map and
// every vessel's cleaner/tracker state, and the applied frontier becomes
// seq. The swap runs in the engine loop so no submission interleaves
// with it; a fresh snapshot is published before it returns. The caller
// must have verified inv and state against the manifest checksums.
func (e *Engine) InstallReplicaState(inv *inventory.Inventory, state []byte, seq uint64) error {
	if e.hasDurability() {
		return ErrHasDurability
	}
	if inv.Info().Resolution != e.opt.Resolution {
		return fmt.Errorf("ingest: checkpoint resolution %d != engine resolution %d",
			inv.Info().Resolution, e.opt.Resolution)
	}
	reply := make(chan error, 1)
	if err := e.submit(envelope{kind: envInstall, inv: inv, state: state, seq: seq, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// handleInstall swaps in a downloaded checkpoint generation. Loop
// context. A state decode failure leaves the engine untouched.
func (e *Engine) handleInstall(env envelope) error {
	st, err := decodeState(bytes.NewReader(env.state))
	if err != nil {
		return fmt.Errorf("ingest: replica state: %w", err)
	}
	e.master = env.inv
	e.period = inventory.New(inventory.BuildInfo{Resolution: e.opt.Resolution})
	e.vessels = make(map[uint32]*vesselState)
	e.statics = make(map[uint32]model.VesselInfo)
	e.restoreState(st)
	e.setLastSeq(env.seq)
	e.publish(time.Now())
	return nil
}

// PromoteOptions configures an Engine.Promote: where the promoted
// primary's durability artifacts go and the fencing term it will serve
// under.
type PromoteOptions struct {
	// JournalPath and CheckpointPath are where the new primary journals
	// and checkpoints. Both are required.
	JournalPath    string
	CheckpointPath string
	// CheckpointEvery and WALSegmentBytes override the engine defaults
	// when positive.
	CheckpointEvery int
	WALSegmentBytes int64
	// Term is the fencing epoch the promoted primary claims. It must
	// exceed every term the caller has observed in the cluster.
	Term uint64
}

// Promote turns a replica-driven engine into a journaled, checkpointing
// primary at the given term: the pending period is folded and published,
// a term-stamped checkpoint generation is written at the applied
// frontier, and a fresh journal opens at the next sequence — so sibling
// replicas can bootstrap from the new manifest and tail the new WAL with
// no sequence reuse. On error the engine is unchanged (still a replica
// applier) and the promotion may be retried.
func (e *Engine) Promote(po PromoteOptions) error {
	if po.JournalPath == "" || po.CheckpointPath == "" {
		return fmt.Errorf("ingest: promote needs journal and checkpoint paths")
	}
	if po.Term == 0 {
		return fmt.Errorf("ingest: promote needs a fencing term")
	}
	reply := make(chan error, 1)
	if err := e.submit(envelope{kind: envPromote, promote: &po, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// handlePromote executes a promotion in loop context, where it owns all
// pipeline state and no submission can interleave.
func (e *Engine) handlePromote(po *PromoteOptions) error {
	if !e.opt.ReplicaDriven || e.hasDurability() {
		return fmt.Errorf("ingest: only replica-driven engines without durability artifacts can be promoted")
	}
	if e.fenced.Load() {
		return fmt.Errorf("ingest: engine is fenced by a higher term")
	}
	if po.Term <= e.term.Load() {
		return fmt.Errorf("ingest: promote term %d does not exceed current term %d", po.Term, e.term.Load())
	}
	// Fold the pending period at the promotion boundary. No merge marker
	// is lost: everything folded here is covered by the checkpoint the
	// new WAL starts after, so replicas never replay across it.
	now := time.Now()
	e.mergePeriod(now)
	snap := e.publish(now)
	if err := e.opt.Faults.Hit(FPPromoteCheckpoint); err != nil {
		return fmt.Errorf("ingest: promote checkpoint: %w", err)
	}
	ckpt := newCheckpointer(po.CheckpointPath, e.opt.Faults, e.opt.Logf)
	covered, err := ckpt.Save(snap, e.captureState(), e.lastSeq, po.Term, e.node)
	if err != nil {
		e.m.checkpointErrors.Add(1)
		return fmt.Errorf("ingest: promote checkpoint: %w", err)
	}
	segBytes := po.WALSegmentBytes
	if segBytes <= 0 {
		segBytes = e.opt.WALSegmentBytes
	}
	j, err := OpenJournal(po.JournalPath, JournalOptions{
		SegmentBytes: segBytes,
		StartSeq:     e.lastSeq,
		// The old primary may have journaled records past our applied
		// frontier that were never replicated; starting strictly after
		// lastSeq keeps our sequence space contiguous with what replicas
		// following us have seen.
		NextSeqAtLeast: e.lastSeq + 1,
		Faults:         e.opt.Faults,
		Logf:           e.opt.Logf,
	}, nil)
	if err != nil {
		return fmt.Errorf("ingest: promote journal: %w", err)
	}
	ckptEvery := po.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = e.opt.CheckpointEvery
	}
	e.ckpt.Store(ckpt)
	e.journal.Store(j)
	e.dur.Store(&durCfg{
		journalPath: po.JournalPath,
		ckptPath:    po.CheckpointPath,
		ckptEvery:   ckptEvery,
		segBytes:    segBytes,
	})
	e.term.Store(po.Term)
	e.opt.ReplicaDriven = false // loop-owned from here on
	e.sinceCkpt = 0
	e.m.checkpoints.Add(1)
	e.m.walSegments.Store(int64(j.Segments()))
	e.m.journalBytes.Store(j.Size())
	e.logf("promoted to primary at term %d (node %016x): journal %s opens after seq %d, checkpoint covers seq %d",
		po.Term, e.node, po.JournalPath, e.lastSeq, covered)
	return nil
}

// PublishNow forces a merge of any accumulated period data and publishes
// a fresh snapshot regardless of the tick. Replication uses it as a
// barrier: once it returns, every record submitted before the call is
// applied and visible to readers.
func (e *Engine) PublishNow() error {
	reply := make(chan error, 1)
	if err := e.submit(envelope{kind: envPublish, reply: reply}); err != nil {
		return err
	}
	return <-reply
}

// AppliedSeq returns the WAL sequence of the last record applied to
// engine state — the journal frontier on a primary, the replication
// frontier on a replica.
func (e *Engine) AppliedSeq() uint64 { return e.appliedSeq.Load() }

// Close stops the engine: the queue is drained, a final merge publishes
// the last snapshot, and the journal is synced and closed. Safe to call
// more than once.
func (e *Engine) Close() error {
	e.closed.Do(func() { close(e.quit) })
	<-e.loopDone
	// Join the in-flight background checkpoint before closing the journal
	// it prunes.
	e.ckptWG.Wait()
	if j := e.jrnl(); j != nil {
		return j.Close()
	}
	return nil
}

// run is the single-writer loop: it owns all mutable pipeline state.
func (e *Engine) run() {
	defer close(e.loopDone)
	ticker := time.NewTicker(e.opt.MergeEvery)
	defer ticker.Stop()
	for {
		select {
		case env := <-e.in:
			e.process(env)
		case now := <-ticker.C:
			// A replica-driven engine merges only at replicated markers:
			// a local tick merge would fold at a different boundary than
			// the primary and break bit-exact convergence.
			if !e.opt.ReplicaDriven {
				e.mergeAndPublish(now)
			}
		case <-e.quit:
			// Drain whatever is already queued, then publish a final
			// snapshot. In-flight submitters get ErrClosed.
			for {
				select {
				case env := <-e.in:
					e.process(env)
				default:
					if e.opt.ReplicaDriven {
						e.publish(time.Now())
					} else {
						e.mergeAndPublish(time.Now())
					}
					return
				}
			}
		}
	}
}

func (e *Engine) process(env envelope) {
	switch env.kind {
	case envPosition:
		e.processPosition(env.rec, env.feed)
		if env.seq > e.lastSeq {
			e.setLastSeq(env.seq)
		}
	case envStatic:
		e.processStatic(env.info, env.feed)
		if env.seq > e.lastSeq {
			e.setLastSeq(env.seq)
		}
	case envInstall:
		env.reply <- e.handleInstall(env)
	case envPublish:
		now := time.Now()
		switch {
		case e.opt.ReplicaDriven:
			// Publish only: the period folds in when the primary's merge
			// marker arrives, not on a local whim.
		case e.jrnl() != nil:
			// A journaled merge must record its boundary marker; reuse
			// the tick path so checkpoint cadence stays consistent.
			e.mergeAndPublish(now)
		default:
			e.mergePeriod(now)
		}
		e.publish(now)
		env.reply <- nil
	case envReplMerge:
		// The primary folded period→master after the record with this
		// sequence number; do the same, at the same boundary.
		now := time.Now()
		e.mergePeriod(now)
		e.publish(now)
		if env.seq > e.lastSeq {
			e.setLastSeq(env.seq)
		}
	case envPromote:
		env.reply <- e.handlePromote(env.promote)
	case envSync:
		env.reply <- e.syncJournal()
	case envFinalize:
		for _, vs := range e.vessels {
			for _, trip := range vs.tracker.Flush() {
				e.emitTrip(trip)
			}
		}
		e.mergeAndPublish(time.Now())
		env.reply <- e.syncJournal()
	case envResume:
		e.handleResume()
	}
}

// processStatic updates the vessel static inventory, journaling new or
// changed entries. While degraded the entry is dropped: applying state
// the journal cannot make durable would diverge from replay.
func (e *Engine) processStatic(v model.VesselInfo, fs *FeedStats) {
	e.m.staticsSeen.Add(1)
	if e.degraded.Load() {
		e.m.degradedDrops.Add(1)
		return
	}
	if cur, ok := e.statics[v.MMSI]; ok && cur == v {
		return
	}
	if j := e.jrnl(); j != nil && !e.replaying {
		if err := j.AppendStatic(v); err != nil {
			e.journalFailed(err)
			return
		}
		e.lastSeq = j.LastSeq()
		e.m.journalBytes.Store(j.Size())
	}
	e.statics[v.MMSI] = v
}

// processPosition runs one report through the online pipeline.
func (e *Engine) processPosition(rec model.PositionRecord, fs *FeedStats) {
	e.m.positionsSeen.Add(1)
	if e.degraded.Load() {
		e.m.degradedDrops.Add(1)
		return
	}
	info, ok := e.statics[rec.MMSI]
	if !ok {
		e.reject(fs, &e.m.rejectedUnknown)
		return
	}
	if !info.IsCommercial() {
		e.reject(fs, &e.m.rejectedNonCommercial)
		return
	}
	vs, ok := e.vessels[rec.MMSI]
	if !ok {
		vs = &vesselState{
			cleaner: pipeline.NewOnlineCleaner(e.opt.MaxSpeedKnots),
			tracker: pipeline.NewTripTracker(e.opt.PortIndex, e.opt.MinTripRecords),
		}
		e.vessels[rec.MMSI] = vs
		e.m.vessels.Store(int64(len(e.vessels)))
	}
	// Snapshot the cleaner so a failed journal append can be rolled back:
	// a dropped record must leave no trace in the dedup state, or the
	// upstream's re-feed of it would be rejected as a duplicate.
	undo := vs.cleaner.State()
	reason := vs.cleaner.Accept(rec)
	// Journal every record that survived range validation and dedup — the
	// speed filter is deterministic, so replay re-derives its verdicts and
	// the cleaner state stays bit-identical across restarts.
	if reason == pipeline.RejectNone || reason == pipeline.RejectInfeasible {
		if j := e.jrnl(); j != nil && !e.replaying {
			if err := j.AppendPosition(rec); err != nil {
				vs.cleaner.SetState(undo)
				e.journalFailed(err)
				e.m.degradedDrops.Add(1)
				return
			}
			e.setLastSeq(j.LastSeq())
			e.m.journalBytes.Store(j.Size())
		}
	}
	switch reason {
	case pipeline.RejectNone:
	case pipeline.RejectRange:
		e.reject(fs, &e.m.rejectedRange)
		return
	case pipeline.RejectDuplicate:
		e.reject(fs, &e.m.rejectedDuplicate)
		return
	case pipeline.RejectOutOfOrder:
		e.reject(fs, &e.m.rejectedOutOfOrder)
		return
	case pipeline.RejectInfeasible:
		e.reject(fs, &e.m.rejectedInfeasible)
		return
	}
	e.m.accepted.Add(1)
	if fs != nil {
		fs.Accepted.Add(1)
	}
	for _, trip := range vs.tracker.Push(rec) {
		e.emitTrip(trip)
	}
}

func (e *Engine) reject(fs *FeedStats, counter *atomic.Int64) {
	counter.Add(1)
	e.m.rejected.Add(1)
	if fs != nil {
		fs.Rejected.Add(1)
	}
}

// emitTrip folds one completed trip into the current period inventory.
func (e *Engine) emitTrip(trip pipeline.Trip) {
	vt := e.statics[trip.Records[0].MMSI].Type
	e.m.trips.Add(1)
	e.m.tripRecords.Add(int64(len(trip.Records)))
	pipeline.EmitTrip(trip, vt, e.opt.Resolution, e.opt.GroupSets,
		func(key inventory.GroupKey, obs inventory.Observation) {
			e.period.Observe(key, obs)
			e.m.observations.Add(1)
		})
}

// syncJournal runs the journal durability barrier, recording its duration
// in the journal_fsync stage histogram. A failed fsync breaks the journal
// permanently (the kernel may have dropped the dirty pages), so the
// engine degrades rather than retrying the barrier.
func (e *Engine) syncJournal() error {
	j := e.jrnl()
	if j == nil {
		return nil
	}
	t0 := time.Now()
	err := j.Sync()
	if e.hJournal != nil {
		e.hJournal.ObserveSince(t0)
	}
	if err != nil {
		e.journalFailed(err)
	}
	return err
}

// journalFailed transitions into degraded mode on the first journal
// error. Loop context only.
func (e *Engine) journalFailed(err error) {
	e.m.journalErrors.Add(1)
	e.enterDegraded(fmt.Sprintf("journal: %v", err))
}

// enterDegraded flips the engine into read-only serving: the last good
// snapshot keeps serving, new records are dropped, and a background
// prober retries the disk with jittered exponential backoff. Without a
// checkpoint path there is no way to re-base the WAL sequence safely, so
// degradation is terminal until restart (documented in DESIGN.md).
func (e *Engine) enterDegraded(reason string) {
	if !e.degraded.CompareAndSwap(false, true) {
		return
	}
	e.degradedReason.Store(&reason)
	e.logf("ingest degraded (serving last snapshot read-only): %s", reason)
	if path, ferr := e.opt.Tracer.RecordFlight("degraded"); ferr == nil && path != "" {
		e.logf("flight recorder: degraded-mode dump at %s", path)
	}
	d := e.dur.Load()
	if e.ckpt.Load() != nil && d.journalPath != "" && !e.fenced.Load() {
		e.armRetry()
	}
}

// ObserveRemoteTerm feeds a (term, node) claim observed elsewhere in the
// cluster — a request header, a sibling's manifest — into the fencing
// state machine. If the remote claim beats the local one the call
// reports true: the caller must treat the local node as outranked.
// Engines that own durability artifacts (primaries, promoted replicas)
// additionally fence themselves — an outranked writer must stop
// accepting writes; a mere replica applier hearing of a newer term is
// normal operation and only reports it. Safe from any goroutine.
func (e *Engine) ObserveRemoteTerm(remoteTerm, remoteNode uint64) bool {
	if remoteTerm == 0 {
		return false // pre-epoch peer: nothing to compare
	}
	local := e.term.Load()
	if !TermBeats(remoteTerm, remoteNode, local, e.node) {
		return false
	}
	if e.hasDurability() {
		e.fence(fmt.Sprintf("fenced: observed term %d (node %016x) above local term %d (node %016x)",
			remoteTerm, remoteNode, local, e.node))
	}
	return true
}

// fence permanently demotes the engine into read-only serving. Unlike a
// disk-degraded transition the prober is never armed: the journal disk
// is fine, but writing would split the brain — only an operator restart
// with a fresh role can bring writes back.
func (e *Engine) fence(reason string) {
	if !e.fenced.CompareAndSwap(false, true) {
		return
	}
	if path, ferr := e.opt.Tracer.RecordFlight("fenced"); ferr == nil && path != "" {
		e.logf("flight recorder: fencing dump at %s", path)
	}
	e.enterDegraded(reason)
	// Already-degraded engines skip enterDegraded's store; the fence is
	// the more actionable reason either way.
	e.degradedReason.Store(&reason)
}

// armRetry starts the disk prober unless one is already running.
func (e *Engine) armRetry() {
	if !e.retrying.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.retrying.Store(false)
		delay := e.opt.RetryBase
		for {
			// Jitter ±50% so a fleet recovering from shared storage
			// doesn't thundering-herd the disk.
			d := delay/2 + time.Duration(rand.Int63n(int64(delay)))
			select {
			case <-time.After(d):
			case <-e.quit:
				return
			}
			if err := e.probeDisk(); err == nil {
				// Clear the flag before handing off: handleResume may defer
				// the resume (checkpoint in flight) and re-arm, and the loop
				// can receive this envelope before this goroutine runs its
				// deferred Store below.
				e.retrying.Store(false)
				select {
				case e.in <- envelope{kind: envResume}:
				case <-e.quit:
				}
				return
			}
			delay *= 2
			if delay > e.opt.RetryMax {
				delay = e.opt.RetryMax
			}
		}
	}()
}

// probeDisk checks that the journal directory accepts a durable write
// again.
func (e *Engine) probeDisk() error {
	probe := filepath.Join(filepath.Dir(e.dur.Load().journalPath), ".pol.probe")
	f, err := os.Create(probe)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("probe\n"))
	serr := f.Sync()
	cerr := f.Close()
	os.Remove(probe)
	if werr != nil {
		return werr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// handleResume attempts to leave degraded mode: checkpoint the current
// in-memory state synchronously (its frontier is lastSeq — the last
// record applied, even if the broken journal lost the buffered tail),
// then reopen the journal with the sequence forced past that frontier so
// no sequence number is ever reused for a different record. Loop context.
func (e *Engine) handleResume() {
	ckpt := e.ckpt.Load()
	if !e.degraded.Load() || ckpt == nil {
		return
	}
	if e.fenced.Load() {
		// A fenced engine's disk is healthy; resuming writes would fork
		// the cluster's history. Only a restart under a new role resumes.
		return
	}
	if !e.ckptBusy.CompareAndSwap(false, true) {
		e.armRetry() // background checkpoint still writing; try later
		return
	}
	defer e.ckptBusy.Store(false)
	now := time.Now()
	e.mergePeriod(now)
	snap := e.publish(now)
	covered, err := ckpt.Save(snap, e.captureState(), e.lastSeq, e.term.Load(), e.node)
	if err != nil {
		e.m.checkpointErrors.Add(1)
		e.logf("degraded resume: checkpoint failed: %v", err)
		e.armRetry()
		return
	}
	e.m.checkpoints.Add(1)
	if old := e.jrnl(); old != nil {
		old.Close() // broken: returns the sticky error, descriptor freed
	}
	d := e.dur.Load()
	j, err := OpenJournal(d.journalPath, JournalOptions{
		SegmentBytes:   d.segBytes,
		StartSeq:       e.lastSeq,
		NextSeqAtLeast: e.lastSeq + 1,
		Faults:         e.opt.Faults,
		Logf:           e.opt.Logf,
	}, nil)
	if err != nil {
		e.journal.Store(nil)
		e.logf("degraded resume: journal reopen failed: %v", err)
		e.armRetry()
		return
	}
	e.journal.Store(j)
	e.m.walSegments.Store(int64(j.Segments()))
	e.m.journalBytes.Store(j.Size())
	if err := j.Prune(covered); err != nil {
		e.logf("degraded resume: prune: %v", err)
	}
	e.degraded.Store(false)
	e.degradedReason.Store(nil)
	e.m.resumes.Add(1)
	e.logf("ingest resumed after degraded mode (checkpoint seq %d)", e.lastSeq)
	if path, ferr := e.opt.Tracer.RecordFlight("resume"); ferr == nil && path != "" {
		e.logf("flight recorder: resume dump at %s", path)
	}
}

// mergeAndPublish folds the period inventory into the master, publishes a
// fresh snapshot, and handles journal flushing plus checkpoint cadence.
func (e *Engine) mergeAndPublish(now time.Time) {
	if e.period.Len() == 0 {
		// Nothing new: keep the current snapshot (its info stays at the
		// last merge, which is what it reflects).
		return
	}
	if err := e.opt.Faults.Hit(FPEngineMerge); err != nil {
		// Keep the period: the merge is deferred to the next tick, not
		// dropped.
		e.m.mergeDeferred.Add(1)
		return
	}
	// The merge cycle is the unit of tracing on the ingest side: one root
	// span per fold, children for the stages. Individual records are never
	// traced — the hot path stays span-free.
	e.cycle = e.opt.Tracer.StartRoot("ingest.merge_cycle")
	defer func() {
		e.cycle.SetAttr("applied_seq", fmt.Sprint(e.lastSeq))
		e.cycle.Finish()
		e.cycle = nil
	}()
	// Journal the merge boundary before folding. Float summation is not
	// associative, so a replica tailing this WAL (and a replay after a
	// crash) must fold period→master at exactly this record frontier to
	// reproduce the published snapshot bit-for-bit.
	if j := e.jrnl(); j != nil && !e.degraded.Load() {
		if err := j.AppendMerge(); err != nil {
			e.m.mergeDeferred.Add(1)
			e.cycle.SetError(err)
			e.journalFailed(err)
			return
		}
		e.setLastSeq(j.LastSeq())
	}
	e.mergePeriod(now)
	snap := e.publish(now)
	if j := e.jrnl(); j != nil {
		fs := e.opt.Tracer.StartChild(e.cycle, "stage.journal_flush")
		err := j.Flush()
		fs.SetError(err)
		fs.Finish()
		if err != nil {
			e.journalFailed(err)
		}
	}
	e.sinceCkpt++
	if e.ckpt.Load() != nil && !e.degraded.Load() && e.sinceCkpt >= e.dur.Load().ckptEvery {
		e.sinceCkpt = 0
		e.checkpoint(snap)
	}
}

// mergePeriod folds the period into the master (no publication). Period
// and master share the shard hash, so MergeFrom merges shard-by-shard —
// in parallel when a backfill-sized period warrants it.
func (e *Engine) mergePeriod(now time.Time) {
	if e.period.Len() == 0 {
		return
	}
	ms := e.opt.Tracer.StartChild(e.cycle, "stage.ingest_merge")
	ms.SetAttr("period_groups", fmt.Sprint(e.period.Len()))
	t0 := time.Now()
	// Label the fold so CPU profiles segment the merge hot path by stage.
	pprof.Do(context.Background(), pprof.Labels("stage", "ingest_merge"), func(context.Context) {
		_ = e.master.MergeFrom(e.period) // same resolution by construction
	})
	info := e.master.Info()
	info.RawRecords = e.m.positionsSeen.Load()
	info.UsedRecords = e.m.tripRecords.Load()
	info.BuiltUnix = now.Unix()
	info.Description = e.opt.Description
	e.master.SetInfo(info)
	e.period = inventory.New(inventory.BuildInfo{Resolution: e.opt.Resolution})
	d := time.Since(t0)
	ms.Finish()
	e.m.merges.Add(1)
	e.m.lastMergeNanos.Store(int64(d))
	e.m.totalMergeNanos.Add(int64(d))
	if e.hMerge != nil {
		if ms != nil {
			e.hMerge.ObserveExemplar(d.Seconds(), ms.Trace.String())
		} else {
			e.hMerge.Observe(d.Seconds())
		}
	}
}

// publish takes a copy-on-write snapshot of the master — deep-copying only
// the summaries changed since the last publish — and swaps it in atomically.
func (e *Engine) publish(now time.Time) *inventory.Inventory {
	ps := e.opt.Tracer.StartChild(e.cycle, "stage.ingest_publish")
	t0 := time.Now()
	snap := e.master.Snapshot()
	e.snap.Store(snap)
	d := time.Since(t0)
	ps.SetAttr("groups", fmt.Sprint(snap.Len()))
	ps.Finish()
	e.m.lastPublishNanos.Store(int64(d))
	e.m.lastPublishUnix.Store(now.Unix())
	e.m.groups.Store(int64(snap.Len()))
	// Publish runs in the loop, so no observation can be emitted between
	// the merge and this store: everything counted so far is now served.
	e.m.mergedObservations.Store(e.m.observations.Load())
	if e.hPublish != nil {
		if ps != nil {
			e.hPublish.ObserveExemplar(d.Seconds(), ps.Trace.String())
		} else {
			e.hPublish.Observe(d.Seconds())
		}
	}
	return snap
}

// checkpoint writes a new checkpoint generation in the background; at
// most one checkpoint runs at a time. The snapshot is immutable and the
// pipeline state is deep-copied in the loop before the goroutine starts,
// so serialization races with nothing. A checkpoint failure does not
// degrade the engine — the WAL is still making records durable — it is
// counted and retried at the next cadence.
func (e *Engine) checkpoint(snap *inventory.Inventory) {
	if !e.ckptBusy.CompareAndSwap(false, true) {
		return // previous checkpoint still writing; skip this cadence
	}
	st := e.captureState()
	seq := e.lastSeq
	term, node := e.term.Load(), e.node
	j := e.jrnl()
	ckpt := e.ckpt.Load()
	// Child of the merge cycle that triggered the cadence: the span is
	// created in the loop (e.cycle is loop-owned) and finished by the
	// background writer — spans are immutable only after Finish.
	cs := e.opt.Tracer.StartChild(e.cycle, "stage.checkpoint")
	e.ckptWG.Add(1)
	go func() {
		defer e.ckptWG.Done()
		defer e.ckptBusy.Store(false)
		defer cs.Finish()
		t0 := time.Now()
		covered, err := ckpt.Save(snap, st, seq, term, node)
		if err != nil {
			cs.SetError(err)
			e.m.checkpointErrors.Add(1)
			e.logf("checkpoint failed: %v", err)
			return
		}
		if e.hCheckpoint != nil {
			e.hCheckpoint.ObserveSince(t0)
		}
		e.m.checkpoints.Add(1)
		if j != nil {
			if err := j.Prune(covered); err != nil {
				e.logf("journal prune: %v", err)
			} else {
				e.m.walSegments.Store(int64(j.Segments()))
				e.m.journalBytes.Store(j.Size())
			}
		}
	}()
}
