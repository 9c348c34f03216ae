package ingest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/pipeline"
)

// metrics is the engine-wide counter block. All fields are atomics:
// written by the engine loop and the feed goroutines, read lock-free by
// the stats endpoint.
type metrics struct {
	positionsSeen         atomic.Int64
	staticsSeen           atomic.Int64
	accepted              atomic.Int64
	rejected              atomic.Int64
	rejectedUnknown       atomic.Int64
	rejectedNonCommercial atomic.Int64
	rejectedRange         atomic.Int64
	rejectedDuplicate     atomic.Int64
	rejectedOutOfOrder    atomic.Int64
	rejectedInfeasible    atomic.Int64
	trips                 atomic.Int64
	tripRecords           atomic.Int64
	observations          atomic.Int64
	mergedObservations    atomic.Int64
	vessels               atomic.Int64
	openTripRecords       atomic.Int64 // records held in open trips and geofence visits
	groups                atomic.Int64
	merges                atomic.Int64
	lastMergeNanos        atomic.Int64
	totalMergeNanos       atomic.Int64
	lastPublishAt         atomic.Int64 // unix nanoseconds
	journalBytes          atomic.Int64
	journalErrors         atomic.Int64
	checkpoints           atomic.Int64
	checkpointErrors      atomic.Int64
	walCorruption         atomic.Int64
	walSegments           atomic.Int64
	degradedDrops         atomic.Int64
	mergeDeferred         atomic.Int64
	resumes               atomic.Int64
	fencingRejects        atomic.Int64
	illegalTransitions    atomic.Int64
}

// persisted lists the counters a checkpoint carries (stateCounters), in
// the order POLSTAT3 stores them.
func (m *metrics) persisted() [13]*atomic.Int64 {
	return [...]*atomic.Int64{&m.positionsSeen, &m.staticsSeen, &m.accepted, &m.rejected,
		&m.rejectedUnknown, &m.rejectedNonCommercial, &m.rejectedRange, &m.rejectedDuplicate,
		&m.rejectedOutOfOrder, &m.rejectedInfeasible, &m.trips, &m.tripRecords, &m.observations}
}

// rejectedBy returns the counter of one of the cleaner's reject reasons.
func (m *metrics) rejectedBy(r pipeline.RejectReason) *atomic.Int64 {
	return [...]*atomic.Int64{pipeline.RejectRange: &m.rejectedRange, pipeline.RejectDuplicate: &m.rejectedDuplicate,
		pipeline.RejectOutOfOrder: &m.rejectedOutOfOrder, pipeline.RejectInfeasible: &m.rejectedInfeasible}[r]
}

// FeedStats tracks one feed connection. The TCP server registers one per
// accepted connection; in-process submitters may register their own via
// Engine.RegisterFeed.
type FeedStats struct {
	Remote    string
	OpenedAt  time.Time
	Lines     atomic.Int64 // raw input lines relayed by the feed reader
	BadLines  atomic.Int64 // unparseable framing
	BadNMEA   atomic.Int64 // checksum / assembly failures
	Positions atomic.Int64 // decoded position reports
	Statics   atomic.Int64 // decoded static reports
	Accepted  atomic.Int64 // positions accepted by the cleaner
	Rejected  atomic.Int64 // positions rejected (any reason)
	Closed    atomic.Bool
	Err       atomic.Pointer[string]
}

// RegisterFeed adds a named feed to the stats registry and returns its
// counter block.
func (e *Engine) RegisterFeed(remote string) *FeedStats {
	fs := &FeedStats{Remote: remote, OpenedAt: time.Now()}
	e.feedsMu.Lock()
	e.feeds = append(e.feeds, fs)
	e.feedsMu.Unlock()
	return fs
}

// feedList copies the registry so counters are read outside the lock.
func (e *Engine) feedList() []*FeedStats {
	e.feedsMu.Lock()
	defer e.feedsMu.Unlock()
	return slices.Clone(e.feeds)
}

// FeedSnapshot is the JSON form of one feed's counters, an entry of the
// status document's feeds list; its keys are spelled apart from the
// engine's.
type FeedSnapshot struct {
	Remote    string `json:"remote"`
	OpenedAt  string `json:"opened_at"`
	Closed    bool   `json:"closed"`
	Error     string `json:"error,omitempty"`
	Lines     int64  `json:"lines"`
	BadLines  int64  `json:"bad_lines"`
	BadNMEA   int64  `json:"bad_nmea"`
	Positions int64  `json:"positions"`
	Statics   int64  `json:"statics"`
	Accepted  int64  `json:"feed_accepted"`
	Rejected  int64  `json:"feed_rejected"`
}

// Uptime returns how long the engine has been running.
func (e *Engine) Uptime() time.Duration { return time.Since(e.start) }

// SnapshotAge returns the time since the last snapshot publication — the
// staleness of what serving reads. Zero before the first publication.
func (e *Engine) SnapshotAge() time.Duration {
	last := e.m.lastPublishAt.Load()
	if last == 0 {
		return 0
	}
	age := time.Since(time.Unix(0, last))
	if age < 0 {
		return 0
	}
	return age
}

// Ready reports whether the engine has published a snapshot with data —
// either a data-bearing merge has run or journal replay restored state.
// Daemons gate their /readyz on this so load balancers don't route
// queries to an empty inventory.
func (e *Engine) Ready() bool {
	if e.m.merges.Load() > 0 {
		return true
	}
	snap := e.Snapshot()
	return snap != nil && snap.Len() > 0
}

// ReadyDetail implements the obs.ReadyzDetailHandler contract: a degraded
// engine stays ready (it is still serving the last good snapshot) but the
// detail surfaces the condition to operators and probes.
func (e *Engine) ReadyDetail() (bool, string) {
	if !e.Ready() {
		return false, "no data snapshot yet"
	}
	if deg, reason := e.Degraded(); deg {
		return true, "degraded: " + reason
	}
	return true, ""
}

// registerMetrics re-registers the engine counter block in the telemetry
// registry as sampled functions over the same atomics the JSON stats
// endpoint reads — no double counting, one source of truth.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	counter := func(name string, v *atomic.Int64) {
		reg.CounterFunc(name, nil, func() float64 { return float64(v.Load()) })
	}
	counter("pol_ingest_positions_total", &e.m.positionsSeen)
	counter("pol_ingest_statics_total", &e.m.staticsSeen)
	counter("pol_ingest_accepted_total", &e.m.accepted)
	counter("pol_ingest_rejected_total", &e.m.rejected)
	counter("pol_ingest_trips_total", &e.m.trips)
	counter("pol_ingest_trip_records_total", &e.m.tripRecords)
	counter("pol_ingest_observations_total", &e.m.observations)
	counter("pol_ingest_merges_total", &e.m.merges)
	counter("pol_ingest_checkpoints_total", &e.m.checkpoints)
	counter("pol_ingest_checkpoint_errors_total", &e.m.checkpointErrors)
	counter("pol_ingest_journal_errors_total", &e.m.journalErrors)
	counter("pol_ingest_wal_corruption_total", &e.m.walCorruption)
	counter("pol_ingest_degraded_dropped_total", &e.m.degradedDrops)
	counter("pol_ingest_merge_deferred_total", &e.m.mergeDeferred)
	counter("pol_ingest_resumes_total", &e.m.resumes)
	counter("pol_repl_fencing_rejects_total", &e.m.fencingRejects)
	counter("pol_ingest_illegal_transitions_total", &e.m.illegalTransitions)
	for reason, v := range map[string]*atomic.Int64{
		"unknown_vessel": &e.m.rejectedUnknown,
		"non_commercial": &e.m.rejectedNonCommercial,
		"range":          &e.m.rejectedRange,
		"duplicate":      &e.m.rejectedDuplicate,
		"out_of_order":   &e.m.rejectedOutOfOrder,
		"infeasible":     &e.m.rejectedInfeasible,
	} {
		reg.CounterFunc("pol_ingest_rejected_by_total", obs.Labels{"reason": reason},
			func() float64 { return float64(v.Load()) })
	}
	gauge := func(name string, fn func() float64) { reg.GaugeFunc(name, nil, fn) }
	gauge("pol_ingest_vessels", func() float64 { return float64(e.m.vessels.Load()) })
	gauge("pol_ingest_open_trip_records", func() float64 { return float64(e.m.openTripRecords.Load()) })
	gauge("pol_ingest_groups", func() float64 { return float64(e.m.groups.Load()) })
	gauge("pol_ingest_journal_bytes", func() float64 { return float64(e.m.journalBytes.Load()) })
	gauge("pol_ingest_wal_segments", func() float64 { return float64(e.m.walSegments.Load()) })
	gauge("pol_ingest_wal_seq", func() float64 { return float64(e.WALSeq()) })
	gauge("pol_ingest_ckpt_gen", func() float64 { g, _ := e.CheckpointStatus(); return float64(g) })
	gauge("pol_ingest_ckpt_seq", func() float64 { _, s := e.CheckpointStatus(); return float64(s) })
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	gauge("pol_ingest_degraded", func() float64 { deg, _ := e.Degraded(); return flag(deg) })
	gauge("pol_repl_term", func() float64 { return float64(e.term.Load()) })
	gauge("pol_ingest_fenced", func() float64 { return flag(e.Fenced()) })
	gauge("pol_ingest_uptime_seconds", func() float64 { return e.Uptime().Seconds() })
	gauge("pol_ingest_snapshot_age_seconds", func() float64 { return e.SnapshotAge().Seconds() })
	gauge("pol_ingest_queue_depth", func() float64 { return float64(e.queued.Load()) })
	gauge("pol_ingest_feeds", func() float64 {
		e.feedsMu.Lock()
		defer e.feedsMu.Unlock()
		return float64(len(e.feeds))
	})
	// Aggregate feed counters: per-connection blocks summed at scrape
	// time, so churning connections don't leak series.
	feedSum := func(pick func(*FeedStats) int64) func() float64 {
		return func() float64 {
			var total int64
			for _, fs := range e.feedList() {
				total += pick(fs)
			}
			return float64(total)
		}
	}
	reg.CounterFunc("pol_ingest_feed_lines_total", nil, feedSum(func(fs *FeedStats) int64 { return fs.Lines.Load() }))
	reg.CounterFunc("pol_ingest_feed_bad_lines_total", nil, feedSum(func(fs *FeedStats) int64 { return fs.BadLines.Load() }))
	reg.CounterFunc("pol_ingest_feed_bad_nmea_total", nil, feedSum(func(fs *FeedStats) int64 { return fs.BadNMEA.Load() }))
}

// AttachWatchdog registers the engine's operational signals with the ops
// anomaly watchdog: accept rate, reject rate, and merge latency — the
// signals whose baseline shifts flag a misbehaving feed or a degrading
// merge path.
func (e *Engine) AttachWatchdog(wd *obs.Watchdog) {
	wd.WatchRate("ingest_accept_rate", func() float64 { return float64(e.m.accepted.Load()) })
	wd.WatchRate("ingest_reject_rate", func() float64 { return float64(e.m.rejected.Load()) })
	wd.WatchValue("ingest_merge_seconds", func() float64 {
		return float64(e.m.lastMergeNanos.Load()) / float64(time.Second)
	})
}

// Status is the one status document a stateful node serves on GET
// /v1/status — the live primary, a heap replica (promoted or not) and a
// disk replica. A common head says what the node is and what it serves;
// the engine section is present wherever there is an ingestion engine, the
// follower section on replicas. The sections are embedded, so their fields
// promote (s.PositionsSeen, s.AppliedSeq). Every JSON key is unique at any
// depth: a one-line text match on a key reads exactly one fact.
type Status struct {
	// State is the engine's lifecycle state (DESIGN.md §4), or "follower"
	// on a disk replica, which has no engine.
	State string `json:"state"`
	// Term and Node are the claim the node's engine answers under; a disk
	// replica claims none.
	Term uint64 `json:"term"`
	Node string `json:"node,omitempty"`
	// Generation is the newest checkpoint generation the engine wrote or,
	// on a follower whose engine wrote none, the one it installed.
	Generation         uint64 `json:"generation"`
	Groups             int64  `json:"groups"`
	UptimeSeconds      int64  `json:"uptime_seconds"`
	SnapshotAgeSeconds int64  `json:"snapshot_age_seconds"`

	*EngineSection   `json:"engine,omitempty"`
	*FollowerSection `json:"follower,omitempty"`
}

// EngineSection is Status's engine section: the ingestion counters, the
// WAL frontier and the feeds.
type EngineSection struct {
	PositionsSeen int64 `json:"positions_seen"`
	StaticsSeen   int64 `json:"statics_seen"`
	Accepted      int64 `json:"accepted"`
	Rejected      int64 `json:"rejected"`
	RejectedBy    struct {
		UnknownVessel int64 `json:"unknown_vessel"`
		NonCommercial int64 `json:"non_commercial"`
		Range         int64 `json:"range"`
		Duplicate     int64 `json:"duplicate"`
		OutOfOrder    int64 `json:"out_of_order"`
		Infeasible    int64 `json:"infeasible"`
	} `json:"rejected_by"`
	Trips        int64 `json:"trips"`
	TripRecords  int64 `json:"trip_records"`
	Observations int64 `json:"observations"`
	// MergedObservations trails Observations until every emitted
	// observation has been folded into a published snapshot; equality
	// means the serving inventory reflects all completed trips.
	MergedObservations int64 `json:"merged_observations"`
	Vessels            int64 `json:"vessels"`
	OpenTripRecords    int64 `json:"open_trip_records"` // reports held until a port call closes their trip
	Merges             int64 `json:"merges"`
	LastMergeMicros    int64 `json:"last_merge_us"`
	AvgMergeMicros     int64 `json:"avg_merge_us"`
	LastPublishUnix    int64 `json:"last_publish_unix"`
	JournalBytes       int64 `json:"journal_bytes"`
	JournalErrors      int64 `json:"journal_errors"`
	// WALSeq is the last appended WAL sequence (the last applied one on an
	// engine without a journal); CkptSeq the one the newest generation
	// covers.
	WALSeq           uint64 `json:"wal_seq"`
	CkptSeq          uint64 `json:"ckpt_seq"`
	WALSegments      int64  `json:"wal_segments"`
	WALCorruption    int64  `json:"wal_corruption"`
	Checkpoints      int64  `json:"checkpoints"`
	CheckpointErrors int64  `json:"checkpoint_errors"`
	FencingRejects   int64  `json:"fencing_rejects"`
	// Degraded is true in the read-only states, degraded and fenced.
	Degraded        bool           `json:"degraded"`
	DegradedReason  string         `json:"degraded_reason,omitempty"`
	DegradedDropped int64          `json:"degraded_dropped"`
	MergeDeferred   int64          `json:"merge_deferred"`
	Resumes         int64          `json:"resumes"`
	QueueDepth      int            `json:"queue_depth"`
	Feeds           []FeedSnapshot `json:"feeds"`
}

// FollowerSection is Status's follower section, on replicas: the endpoint
// followed and what the failover rules counted, then what only one kind of
// replica does — a heap replica tails the WAL, a disk replica syncs
// segments. The other kind's fields are left out, and so is any such
// field at zero.
type FollowerSection struct {
	Primary          string `json:"primary"`
	Endpoints        int    `json:"endpoints"`
	HWTerm           uint64 `json:"hw_term"` // the highest claim seen, persisted as the term mark
	HWNode           string `json:"hw_node"`
	CRCRejects       int64  `json:"crc_rejects"`
	StaleTermRejects int64  `json:"stale_term_rejects"` // responses below the term mark
	Throttled        int64  `json:"throttled"`
	LastError        string `json:"last_error,omitempty"`

	// Heap replica.
	Bootstrapped bool    `json:"bootstrapped,omitempty"`
	AppliedSeq   uint64  `json:"applied_seq,omitempty"`
	PrimarySeq   uint64  `json:"primary_seq,omitempty"`
	LagSeq       uint64  `json:"lag_seq,omitempty"`
	LagSeconds   float64 `json:"lag_seconds,omitempty"`
	Bootstraps   int64   `json:"bootstraps,omitempty"`
	Rebootstraps int64   `json:"rebootstraps,omitempty"`
	Reconnects   int64   `json:"reconnects,omitempty"`

	// Disk replica.
	Syncs        int64 `json:"syncs,omitempty"`
	SyncFailures int64 `json:"sync_failures,omitempty"`
	BlockFetches int64 `json:"block_fetches,omitempty"`
	BlockReuses  int64 `json:"block_reuses,omitempty"`
	BytesFetched int64 `json:"bytes_fetched,omitempty"`
	BytesReused  int64 `json:"bytes_reused,omitempty"`
}

// StatsSnapshot collects the engine's status document: the head and the
// engine section.
func (e *Engine) StatsSnapshot() Status {
	s := Status{
		State:              e.stateName(),
		Term:               e.term.Load(),
		Node:               fmt.Sprintf("%016x", e.node),
		Groups:             e.m.groups.Load(),
		UptimeSeconds:      int64(e.Uptime().Seconds()),
		SnapshotAgeSeconds: int64(e.SnapshotAge().Seconds()),
		EngineSection:      &EngineSection{},
	}
	es := s.EngineSection
	es.PositionsSeen = e.m.positionsSeen.Load()
	es.StaticsSeen = e.m.staticsSeen.Load()
	es.Accepted = e.m.accepted.Load()
	es.Rejected = e.m.rejected.Load()
	es.RejectedBy.UnknownVessel = e.m.rejectedUnknown.Load()
	es.RejectedBy.NonCommercial = e.m.rejectedNonCommercial.Load()
	es.RejectedBy.Range = e.m.rejectedRange.Load()
	es.RejectedBy.Duplicate = e.m.rejectedDuplicate.Load()
	es.RejectedBy.OutOfOrder = e.m.rejectedOutOfOrder.Load()
	es.RejectedBy.Infeasible = e.m.rejectedInfeasible.Load()
	es.Trips = e.m.trips.Load()
	es.TripRecords = e.m.tripRecords.Load()
	es.Observations = e.m.observations.Load()
	es.MergedObservations = e.m.mergedObservations.Load()
	es.Vessels = e.m.vessels.Load()
	es.OpenTripRecords = e.m.openTripRecords.Load()
	es.Merges = e.m.merges.Load()
	es.LastMergeMicros = e.m.lastMergeNanos.Load() / 1000
	if n := es.Merges; n > 0 {
		es.AvgMergeMicros = e.m.totalMergeNanos.Load() / n / 1000
	}
	es.LastPublishUnix = e.m.lastPublishAt.Load() / int64(time.Second)
	es.JournalBytes = e.m.journalBytes.Load()
	es.JournalErrors = e.m.journalErrors.Load()
	s.Generation, es.CkptSeq, es.WALSeq = e.WALStatus()
	es.WALSegments = e.m.walSegments.Load()
	es.WALCorruption = e.m.walCorruption.Load()
	es.Checkpoints = e.m.checkpoints.Load()
	es.CheckpointErrors = e.m.checkpointErrors.Load()
	es.FencingRejects = e.m.fencingRejects.Load()
	es.Degraded, es.DegradedReason = e.Degraded()
	es.DegradedDropped = e.m.degradedDrops.Load()
	es.MergeDeferred = e.m.mergeDeferred.Load()
	es.Resumes = e.m.resumes.Load()
	es.QueueDepth = int(e.queued.Load())

	feeds := e.feedList()
	es.Feeds = make([]FeedSnapshot, 0, len(feeds))
	for _, fs := range feeds {
		fsnap := FeedSnapshot{
			Remote:    fs.Remote,
			OpenedAt:  fs.OpenedAt.UTC().Format(time.RFC3339),
			Closed:    fs.Closed.Load(),
			Lines:     fs.Lines.Load(),
			BadLines:  fs.BadLines.Load(),
			BadNMEA:   fs.BadNMEA.Load(),
			Positions: fs.Positions.Load(),
			Statics:   fs.Statics.Load(),
			Accepted:  fs.Accepted.Load(),
			Rejected:  fs.Rejected.Load(),
		}
		if p := fs.Err.Load(); p != nil {
			fsnap.Error = *p
		}
		es.Feeds = append(es.Feeds, fsnap)
	}
	return s
}

// ServeStatus serves GET /v1/status: the document snapshot collects, as
// indented JSON. It is the one status handler of every node kind.
func ServeStatus(snapshot func() Status) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snapshot())
	})
}
