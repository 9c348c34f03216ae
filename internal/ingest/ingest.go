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
// Records cross the live path in batches: PumpFeed submits what one socket
// read decoded as one envelope, the loop appends each record under one
// journal lock into a buffer the journal owns, the replication handler
// ships WAL bytes as they lie on disk (sought through a sparse per-segment
// seq → offset index, checksum-verified, never decoded), and a replica
// hands each chunk to its applier as one envelope. The queue ahead of the
// loop stays bounded in records, so memory and TCP backpressure do not
// depend on the batch size.
//
// Feeds must deliver each vessel's reports in timestamp order (the wire
// guarantees per-sender ordering); out-of-order records are counted and
// dropped. Vessel static reports should precede a vessel's positions, as
// provider feeds do — positions of vessels with no static entry yet are
// rejected, mirroring the batch commercial-fleet filter.
package ingest

import (
	"cmp"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
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
	// QueueSize bounds the submission queue in records, however they are
	// batched: a full queue blocks submitters, propagating backpressure to
	// the TCP feeds with one batch per feed decoded beyond it (default 4096).
	QueueSize int
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
	// ReplicaDriven marks an engine fed exclusively by ApplyReplicated:
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
	o.Resolution = cmp.Or(max(o.Resolution, 0), 6)
	if len(o.GroupSets) == 0 {
		o.GroupSets = inventory.AllGroupSets
	}
	o.MergeEvery = cmp.Or(max(o.MergeEvery, 0), 2*time.Second)
	o.CheckpointEvery = cmp.Or(max(o.CheckpointEvery, 0), 16)
	o.QueueSize = cmp.Or(max(o.QueueSize, 0), 4096)
	o.WALSegmentBytes = cmp.Or(max(o.WALSegmentBytes, 0), 64<<20)
	if o.Faults == nil {
		o.Faults = fault.Default()
	}
	o.RetryBase = cmp.Or(max(o.RetryBase, 0), time.Second)
	o.RetryMax = cmp.Or(max(o.RetryMax, 0), 30*time.Second)
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
	envRecords = iota
	envSync
	envFinalize
	envResume
	envInstall
	envPublish
	envPromote
)

// envelope is one unit of work on the engine queue.
type envelope struct {
	kind int
	// entries is a batch of records in arrival order (envRecords): what one
	// socket read decoded, one direct submission, or one replicated WAL
	// chunk, whose Seq is its primary's (zero on a submitted entry). batch,
	// when non-nil, is the pooled buffer entries lives in.
	entries []JournalEntry
	batch   *batch
	feed    *FeedStats
	reply   chan error
	// inv, state and seq carry a checkpoint install (envInstall).
	inv   *inventory.Inventory
	state []byte
	seq   uint64
	// promote carries an Engine.Promote request (envPromote).
	promote *PromoteOptions
}

// batch is a reusable buffer of entries on their way to the loop.
type batch struct{ entries []JournalEntry }

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// batchCap is the most records one envelope carries from a feed: half of
// what a 64 KiB socket read decodes, and a batch stays under 100 KB.
const batchCap = 512

// ErrClosed is returned by Submit methods after Close.
var ErrClosed = fmt.Errorf("ingest: engine closed")

// Engine is the live ingestion core. Construct with NewEngine; submit
// decoded feed items (directly or through the TCP Server); read the
// current inventory with Snapshot. All exported methods are safe for
// concurrent use.
type Engine struct {
	opt   Options
	start time.Time
	ports *ports.Index // geofences: the embedded gazetteer

	// in carries envelopes to the loop; queued counts the records in it and
	// space wakes a submitter the record bound holds back (see submit).
	in       chan envelope
	queued   atomic.Int64
	space    chan struct{}
	quit     chan struct{}
	loopDone chan struct{}
	closed   sync.Once

	snap atomic.Pointer[inventory.Inventory]

	m metrics

	// Stage-duration histograms in the shared pipeline family; nil when
	// Options.Metrics is unset.
	hMerge, hPublish, hJournal, hCheckpoint *obs.Histogram

	feedsMu sync.Mutex
	feeds   []*FeedStats

	// state is the lifecycle word (role × health) every "may I?" consults;
	// lifecycle.go owns it. degradedReason says why it is read-only.
	state          atomic.Uint32
	degradedReason atomic.Pointer[string]

	// journal and ckpt are installed by rebase, in the loop, and read by
	// handlers and gauges. Journal methods lock internally.
	journal  atomic.Pointer[Journal]
	ckpt     atomic.Pointer[checkpointer]
	ckptBusy atomic.Bool
	ckptWG   sync.WaitGroup

	// Fencing epoch: term is the claim this engine serves under, node its
	// tie-break identity (fixed once the engine is constructed).
	term atomic.Uint64
	node uint64

	// Loop-owned state: touched only by the run goroutine (and by
	// NewEngine during single-threaded journal replay).
	master    *inventory.Inventory
	period    *inventory.Inventory
	vessels   map[uint32]*vesselState
	statics   map[uint32]model.VesselInfo
	dur       durCfg
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

// setLastSeq advances the loop-owned frontier and its atomic mirror.
func (e *Engine) setLastSeq(seq uint64) {
	e.lastSeq = seq
	e.appliedSeq.Store(seq)
}

func (e *Engine) jrnl() *Journal { return e.journal.Load() }

// Term returns the fencing epoch this engine currently claims.
func (e *Engine) Term() uint64 { return e.term.Load() }

// Node returns the engine's term tie-break identity.
func (e *Engine) Node() uint64 { return e.node }

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
		ports:    ports.NewIndex(ports.Default(), ports.IndexResolution),
		in:       make(chan envelope, opt.QueueSize),
		space:    make(chan struct{}, 1),
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
	e.dur = durCfg{opt.JournalPath, opt.CheckpointPath, opt.CheckpointEvery, opt.WALSegmentBytes}
	e.node = opt.NodeID
	// Cold start re-bases like promotion and resume do (see rebase).
	if err := e.boot(); err != nil {
		return nil, err
	}
	go e.run()
	return e, nil
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
	return e.submitOne(JournalEntry{Kind: entryPosition, Pos: rec}, fs)
}

// SubmitStatic enqueues one vessel static-inventory entry.
func (e *Engine) SubmitStatic(v model.VesselInfo, fs *FeedStats) error {
	return e.submitOne(JournalEntry{Kind: entryStatic, Info: v}, fs)
}

// submitOne submits a batch of one.
func (e *Engine) submitOne(en JournalEntry, fs *FeedStats) error {
	b := batchPool.Get().(*batch)
	b.entries = append(b.entries[:0], en)
	return e.submitBatch(b, fs)
}

// submitBatch hands a pooled batch to the loop, which returns it to the
// pool when its records are applied.
func (e *Engine) submitBatch(b *batch, fs *FeedStats) error {
	err := e.submit(envelope{kind: envRecords, entries: b.entries, batch: b, feed: fs})
	if err != nil {
		batchPool.Put(b)
	}
	return err
}

// submit queues an envelope. The queue is bounded in records, whatever
// their envelopes' shape: while it holds QueueSize of them a submitter of
// more waits here (a batch larger than the whole queue goes in alone), as
// it would on a queue of single records.
func (e *Engine) submit(env envelope) error {
	select {
	case <-e.quit:
		return ErrClosed
	default:
	}
	n := int64(len(env.entries))
	for n > 0 {
		q := e.queued.Load()
		if q != 0 && q+n > int64(e.opt.QueueSize) {
			select {
			case <-e.space:
			case <-e.quit:
				return ErrClosed
			}
		} else if e.queued.CompareAndSwap(q, q+n) {
			break
		}
	}
	select {
	case e.in <- env:
		return nil
	case <-e.quit:
		e.dequeued(n)
		return ErrClosed
	}
}

// dequeued takes n records off the queue's count and wakes one submitter
// waiting for room; its batch is dequeued in turn and wakes the next.
func (e *Engine) dequeued(n int64) {
	if n > 0 {
		e.queued.Add(-n)
		select {
		case e.space <- struct{}{}:
		default:
		}
	}
}

// ask submits a request envelope and waits for the loop's answer.
func (e *Engine) ask(env envelope) error {
	env.reply = make(chan error, 1)
	if err := e.submit(env); err != nil {
		return err
	}
	return <-env.reply
}

// Sync blocks until every record submitted before the call has been
// processed and the journal is durable on disk.
func (e *Engine) Sync() error {
	return e.ask(envelope{kind: envSync})
}

// Finalize applies end-of-stream semantics — final in-fence visits
// complete their trips exactly as the batch extractor does at dataset end
// — then merges and publishes. Use it when a bounded replay (a test, a
// backfill) should converge to the batch-built inventory; a daemon
// serving endless feeds never needs it. The engine remains usable.
func (e *Engine) Finalize() error {
	return e.ask(envelope{kind: envFinalize})
}

// PublishNow forces a merge of any accumulated period data and publishes
// a fresh snapshot regardless of the tick. Replication uses it as a
// barrier: once it returns, every record submitted before the call is
// applied and visible to readers.
func (e *Engine) PublishNow() error {
	return e.ask(envelope{kind: envPublish})
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
			e.mergeAndPublish(now)
		case <-e.quit:
			// Drain whatever is already queued, then publish a final
			// snapshot. In-flight submitters get ErrClosed.
			for {
				select {
				case env := <-e.in:
					e.process(env)
				default:
					e.mergeAndPublish(time.Now())
					e.publish(time.Now())
					return
				}
			}
		}
	}
}

func (e *Engine) process(env envelope) {
	switch env.kind {
	case envRecords:
		e.dequeued(int64(len(env.entries)))
		for i := range env.entries {
			en := &env.entries[i]
			e.applyEntry(en, env.feed)
			if en.Kind == entryMerge { // folded where the primary folded: serve it
				e.publish(time.Now())
			}
			// A replicated record carries its primary's sequence number:
			// the frontier follows once the record is applied.
			if en.Seq > e.lastSeq {
				e.setLastSeq(en.Seq)
			}
		}
		if env.batch != nil {
			batchPool.Put(env.batch)
		}
	case envInstall:
		env.reply <- e.handleInstall(env)
	case envPublish:
		// A state that may not fold on its own — an applier between
		// markers — only publishes.
		now := time.Now()
		e.mergeAndPublish(now)
		e.publish(now)
		env.reply <- nil
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
