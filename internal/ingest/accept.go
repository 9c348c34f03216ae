package ingest

import (
	"bytes"
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
)

// The per-record accept path: what one submitted, replayed or replicated
// record does to loop state, and the capture and restore of that state
// for checkpoints. Everything here runs in the loop (or in NewEngine's
// single-threaded replay) and asks the lifecycle exactly once per record
// what it may do.

// vesselState is the per-vessel online pipeline state.
type vesselState struct {
	cleaner *pipeline.OnlineCleaner
	tracker *pipeline.TripTracker
}

func (e *Engine) newVesselState() *vesselState {
	return &vesselState{
		cleaner: pipeline.NewOnlineCleaner(pipeline.MaxSpeedKnots),
		tracker: pipeline.NewTripTracker(e.ports, pipeline.MinTripRecords),
	}
}

// applyEntry is the one record path: what a submitted, replayed or
// replicated entry does to loop state.
func (e *Engine) applyEntry(en *JournalEntry, fs *FeedStats) {
	switch en.Kind {
	case entryPosition:
		e.processPosition(en, fs)
	case entryStatic:
		e.processStatic(en)
	case entryMerge:
		e.foldAtMarker()
	}
}

// processStatic updates the vessel static inventory, journaling new or
// changed entries. A state that may not accept drops the entry: applying
// what the journal cannot make durable would diverge from replay.
func (e *Engine) processStatic(en *JournalEntry) {
	v := en.Info
	e.m.staticsSeen.Add(1)
	may := e.perms()
	if may&permAccept == 0 {
		e.m.degradedDrops.Add(1)
		return
	}
	if cur, ok := e.statics[v.MMSI]; ok && cur == v {
		return
	}
	if e.journalEntry(may, en) != nil {
		return
	}
	e.statics[v.MMSI] = v
}

// journalEntry appends en to the journal, if this state keeps one, and moves
// the frontier and the size gauge to what the append returned; on failure
// the engine degrades and the caller drops the entry.
func (e *Engine) journalEntry(may perm, en *JournalEntry) error {
	j := e.jrnl()
	if j == nil || may&permJournal == 0 {
		return nil
	}
	seq, size, err := j.append(en)
	if err != nil {
		e.journalFailed(err)
		return err
	}
	e.setLastSeq(seq)
	e.m.journalBytes.Store(size)
	return nil
}

// processPosition runs one report through the online pipeline.
func (e *Engine) processPosition(en *JournalEntry, fs *FeedStats) {
	rec := en.Pos
	e.m.positionsSeen.Add(1)
	may := e.perms() // the record's one look at the lifecycle
	if may&permAccept == 0 {
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
		vs = e.newVesselState()
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
	if (reason == pipeline.RejectNone || reason == pipeline.RejectInfeasible) && e.journalEntry(may, en) != nil {
		vs.cleaner.SetState(undo)
		e.m.degradedDrops.Add(1)
		return
	}
	if reason != pipeline.RejectNone {
		e.reject(fs, e.m.rejectedBy(reason))
		return
	}
	e.m.accepted.Add(1)
	if fs != nil {
		fs.Accepted.Add(1)
	}
	held := vs.tracker.Held()
	for _, trip := range vs.tracker.Push(rec) {
		e.emitTrip(trip)
	}
	e.m.openTripRecords.Add(int64(vs.tracker.Held() - held))
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

// replayEntry applies one journal entry during cold-start replay.
func (e *Engine) replayEntry(entry JournalEntry) error {
	e.applyEntry(&entry, nil)
	return nil
}

// foldAtMarker folds where the primary's journal says it folded: float
// summation is grouping-dependent, so merge boundaries are part of the
// replayed and of the replicated state machine.
func (e *Engine) foldAtMarker() {
	if e.can(permFoldAtMarker) {
		e.mergePeriod(time.Now())
	}
}

// ErrNotApplier is returned by the replica apply surface on any engine
// but an applier: swapping a primary's state out from under its WAL would
// break the replay invariant.
var ErrNotApplier = fmt.Errorf("ingest: only an applier engine applies replicated state")

// ApplyReplicated enqueues a run of WAL entries fetched from a primary as
// one envelope, each tagged with the primary's sequence number so
// AppliedSeq tracks the replication frontier. The records take the path of
// direct submissions and a merge marker folds and publishes where it sits
// in the run, so a replica applying the primary's WAL in order converges to
// an inventory.Equal snapshot. The engine owns entries until a later
// barrier (PublishNow) returns.
func (e *Engine) ApplyReplicated(entries []JournalEntry) error {
	if !e.can(permApplyReplicated) {
		return ErrNotApplier
	}
	for i := range entries {
		if !validEntryKind(entries[i].Kind) {
			return fmt.Errorf("ingest: unknown journal entry kind %q", entries[i].Kind)
		}
	}
	return e.submit(envelope{kind: envRecords, entries: entries})
}

// InstallReplicaState atomically replaces the engine's entire state with
// a checkpoint generation downloaded from a primary: inv becomes the
// master inventory, the POLSTAT2 state bytes restore the static map and
// every vessel's cleaner/tracker state, and the applied frontier becomes
// seq. The swap runs in the engine loop so no submission interleaves
// with it; a fresh snapshot is published before it returns. The caller
// must have verified inv and state against the manifest checksums.
func (e *Engine) InstallReplicaState(inv *inventory.Inventory, state []byte, seq uint64) error {
	if inv.Info().Resolution != e.opt.Resolution {
		return fmt.Errorf("ingest: checkpoint resolution %d != engine resolution %d",
			inv.Info().Resolution, e.opt.Resolution)
	}
	return e.ask(envelope{kind: envInstall, inv: inv, state: state, seq: seq})
}

// handleInstall swaps in a downloaded checkpoint generation. Loop
// context. A state decode failure leaves the engine untouched.
func (e *Engine) handleInstall(env envelope) error {
	if !e.can(permApplyReplicated) {
		return ErrNotApplier
	}
	st, err := decodeState(bytes.NewReader(env.state))
	if err != nil {
		return fmt.Errorf("ingest: replica state: %w", err)
	}
	e.master = env.inv
	e.vessels = make(map[uint32]*vesselState)
	e.statics = make(map[uint32]model.VesselInfo)
	e.restoreState(st)
	e.resetPeriod()
	e.setLastSeq(env.seq)
	e.publish(time.Now())
	return nil
}

// restoreState installs a decoded checkpoint state into the loop-owned
// maps and the counter block (single-threaded: called before run starts).
func (e *Engine) restoreState(st *engineState) {
	for i, c := range e.m.persisted() {
		c.Store(st.counters[i])
	}
	e.statics = st.statics
	held := 0
	for mmsi, vp := range st.vessels {
		vs := e.newVesselState()
		vs.cleaner.SetState(vp.cleaner)
		vs.tracker.SetState(vp.tracker)
		e.vessels[mmsi] = vs
		held += vs.tracker.Held()
	}
	e.m.vessels.Store(int64(len(e.vessels)))
	e.m.openTripRecords.Store(int64(held))
}

// captureState copies the loop state a checkpoint writes in the background
// while the loop keeps mutating it. A tracker's state is not copied: its
// log bytes are clipped to their length, and a tracker only appends past
// them or starts a new log.
func (e *Engine) captureState() *engineState {
	st := &engineState{statics: maps.Clone(e.statics), vessels: make(map[uint32]vesselPersist, len(e.vessels))}
	for i, c := range e.m.persisted() {
		st.counters[i] = c.Load()
	}
	for mmsi, vs := range e.vessels {
		st.vessels[mmsi] = vesselPersist{cleaner: vs.cleaner.State(), tracker: vs.tracker.State()}
	}
	return st
}
