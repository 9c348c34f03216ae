package ingest

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/inventory"
)

// The engine's lifecycle is one value — a role (standalone, primary,
// applier) in one of that role's healths — held in one atomic word,
// Engine.state, which only this file loads and stores. Every site that
// used to ask a flag asks the word: what a state may do is the states
// table, how states follow one another is the edges table, and
// DESIGN.md §4 prints both (a golden test keeps the three equal).
type state uint32

const (
	stNone       state = iota // not a state: the zero entry of edges marks "no such edge"
	stStandalone              // no journal, no checkpoint: folds on its own tick, nothing to lose
	stReplaying               // primary at cold start: the journal suffix flows through unjournaled
	stPrimary                 // primary, healthy: journals, folds at its own markers, checkpoints
	stDegraded                // primary whose journal failed: read-only, a prober is running
	stFenced                  // primary outranked by a higher term: read-only until restarted
	stApplier                 // follower: applies a primary's WAL, folds only at its markers
	numStates
)

// Role is who decides where the engine's history goes; only Promote
// changes it.
type Role string

const (
	RoleStandalone Role = "standalone" // in-memory only
	RolePrimary    Role = "primary"    // owns a journal and/or checkpoints; replicas follow it
	RoleApplier    Role = "applier"    // follows a primary until promoted
)

// perm is one thing a state may do.
type perm uint16

const (
	permAccept            perm = 1 << iota // apply submitted records to loop state (else drop and count)
	permJournal                            // append accepted records and merge markers to the journal
	permTickMerge                          // fold on the local tick, PublishNow, Finalize and Close
	permFoldAtMarker                       // fold where a replayed or replicated marker says so
	permCheckpoint                         // write checkpoint generations on the merge cadence
	permServeRepl                          // answer /v1/repl requests
	permApplyReplicated                    // ApplyReplicated / InstallReplicaState
	permPromote                            // Promote
	permFenceOnHigherTerm                  // a higher (term, node) claim fences this engine
	permResume                             // re-base on a fresh checkpoint and accept again
	numPerms              = iota
)

// states is the permission table.
var states = [numStates]struct {
	name  string
	role  Role
	perms perm
}{
	stStandalone: {"standalone", RoleStandalone, permAccept | permTickMerge | permServeRepl},
	stReplaying:  {"replaying", RolePrimary, permAccept | permFoldAtMarker},
	stPrimary: {"primary", RolePrimary, permAccept | permJournal | permTickMerge | permCheckpoint |
		permServeRepl | permFenceOnHigherTerm},
	stDegraded: {"degraded", RolePrimary, permTickMerge | permServeRepl | permFenceOnHigherTerm | permResume},
	stFenced:   {"fenced", RolePrimary, permTickMerge},
	stApplier: {"applier", RoleApplier, permAccept | permFoldAtMarker | permServeRepl |
		permApplyReplicated | permPromote},
}

// event is what moves the engine from one state to another.
type event uint8

const (
	evReplayed      event = iota // cold start re-based on the newest generation and the journal suffix
	evJournalFailed              // an append, flush or fsync failed
	evHigherTerm                 // a claim beating the local (term, node) was observed
	evResumed                    // the prober's re-base succeeded
	evPromoted                   // Promote's re-base succeeded
	numEvents
)

var eventNames = [numEvents]string{"replayed", "journalFailed", "higherTerm", "resumed", "promoted"}

// edges is the transition table; a zero entry is an illegal edge. The
// journal fails in the loop while claims arrive on HTTP goroutines, so a
// read-only state absorbs the events that can race it there: fenced
// swallows all three, which is what makes it terminal.
var edges = [numStates][numEvents]state{
	stReplaying: {evReplayed: stPrimary},
	stPrimary:   {evJournalFailed: stDegraded, evHigherTerm: stFenced},
	stDegraded:  {evJournalFailed: stDegraded, evHigherTerm: stFenced, evResumed: stPrimary},
	stFenced:    {evJournalFailed: stFenced, evHigherTerm: stFenced, evResumed: stFenced},
	stApplier:   {evPromoted: stPrimary},
}

// panicOnIllegal makes an illegal edge fatal under go test; a daemon
// counts it (pol_ingest_illegal_transitions_total) and stays where it is.
var panicOnIllegal = testing.Testing()

// boot sets the state an engine is constructed in and publishes its first
// snapshot; an engine with durability artifacts re-bases on them first.
func (e *Engine) boot() error {
	durable := e.dur.journalPath != "" || e.dur.ckptPath != ""
	switch {
	case e.opt.ReplicaDriven && durable:
		return fmt.Errorf("ingest: a replica-driven engine gets its journal and checkpoint from Promote, not from Options")
	case durable:
		e.state.Store(uint32(stReplaying))
		return e.rebase(e.dur, e.opt.Term, evReplayed)
	case e.opt.ReplicaDriven:
		e.state.Store(uint32(stApplier))
	default:
		e.state.Store(uint32(stStandalone))
	}
	e.term.Store(e.opt.Term)
	e.publish(time.Now())
	return nil
}

// transition fires ev and reports the states it led from and to.
func (e *Engine) transition(ev event) (from, to state) {
	for {
		from = state(e.state.Load())
		if to = edges[from][ev]; to == stNone {
			e.m.illegalTransitions.Add(1)
			msg := fmt.Sprintf("ingest: illegal lifecycle edge: %s in state %s", eventNames[ev], states[from].name)
			if panicOnIllegal {
				panic(msg)
			}
			e.logf("%s", msg)
			return from, from
		}
		if e.state.CompareAndSwap(uint32(from), uint32(to)) {
			return from, to
		}
	}
}

func (e *Engine) perms() perm     { return states[e.state.Load()].perms }
func (e *Engine) can(p perm) bool { return e.perms()&p != 0 }

// stateName is the lifecycle state's name, as the status document reports it.
func (e *Engine) stateName() string { return states[e.state.Load()].name }

// Role returns the engine's current role.
func (e *Engine) Role() Role { return states[e.state.Load()].role }

// Fenced reports whether a higher-term claim has permanently demoted
// this engine to read-only serving.
func (e *Engine) Fenced() bool { return state(e.state.Load()) == stFenced }

// Degraded reports whether the engine is read-only — its journal failed
// or it was fenced — and why.
func (e *Engine) Degraded() (bool, string) {
	if st := state(e.state.Load()); st != stDegraded && st != stFenced {
		return false, ""
	}
	if p := e.degradedReason.Load(); p != nil {
		return true, *p
	}
	return true, ""
}

// recordFlight dumps the flight recorder at a lifecycle edge.
func (e *Engine) recordFlight(what string) {
	if path, err := e.opt.Tracer.RecordFlight(what); err == nil && path != "" {
		e.logf("flight recorder: %s dump at %s", what, path)
	}
}

// journalFailed takes a primary to degraded on its first journal error:
// the snapshot keeps serving and new records are dropped (applying what
// the journal cannot make durable would diverge from replay). With both a
// journal and a checkpoint path a prober retries the disk; without a
// checkpoint there is no way to re-base the WAL sequence, so the state
// lasts until restart. Loop context only.
func (e *Engine) journalFailed(err error) {
	e.m.journalErrors.Add(1)
	if from, _ := e.transition(evJournalFailed); from != stPrimary {
		return
	}
	reason := fmt.Sprintf("journal: %v", err)
	e.degradedReason.CompareAndSwap(nil, &reason) // a racing fence's reason wins
	e.logf("ingest degraded (serving last snapshot read-only): %s", reason)
	e.recordFlight("degraded")
	if e.dur.journalPath != "" && e.dur.ckptPath != "" {
		e.armProber()
	}
}

// ObserveRemoteTerm feeds a (term, node) claim observed elsewhere in the
// cluster — a request header, a sibling's manifest — into the lifecycle.
// If it beats the local claim the call reports true: the caller must
// treat the local node as outranked. A primary is also fenced: an
// outranked writer must stop accepting writes, and nothing resumes it —
// the disk is fine, the mastership is not ours. An applier hearing of a
// newer term is normal operation and only reports it. Safe from any
// goroutine.
func (e *Engine) ObserveRemoteTerm(remoteTerm, remoteNode uint64) bool {
	local := e.term.Load()
	if remoteTerm == 0 || !TermBeats(remoteTerm, remoteNode, local, e.node) {
		return false // a pre-epoch peer has nothing to compare
	}
	if e.can(permFenceOnHigherTerm) {
		reason := fmt.Sprintf("fenced: observed term %d (node %016x) above local term %d (node %016x)",
			remoteTerm, remoteNode, local, e.node)
		if from, _ := e.transition(evHigherTerm); from != stFenced {
			e.degradedReason.Store(&reason)
			e.logf("ingest fenced (serving last snapshot read-only): %s", reason)
			e.recordFlight("fenced")
		}
	}
	return true
}

// armProber starts the one prober of a degraded episode: it retries the
// journal directory with jittered exponential backoff and hands the loop
// an envResume when a durable write succeeds. It is started on the edge
// into degraded and restarted only by the handler of the envelope its
// predecessor sent, so there is never a second one. Loop context.
func (e *Engine) armProber() {
	probe := filepath.Join(filepath.Dir(e.dur.journalPath), ".pol.probe")
	go func() {
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
			if probeDisk(probe) == nil {
				_ = e.submit(envelope{kind: envResume}) // ErrClosed: nothing left to resume
				return
			}
			delay = min(2*delay, e.opt.RetryMax)
		}
	}()
}

// probeDisk checks that a durable write at path succeeds again.
func probeDisk(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer os.Remove(path)
	if _, err = f.Write([]byte("probe\n")); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// durCfg says where durability artifacts live and how they rotate: from
// Options at construction, from PromoteOptions after a promotion.
// Loop-owned.
type durCfg struct {
	journalPath, ckptPath string
	ckptEvery             int
	segBytes              int64
}

// rebase puts the engine on a durable base — a checkpoint generation that
// covers everything applied so far, a journal that continues right after
// it, an empty period — and then fires ev. Cold start (evReplayed) finds
// its base on disk: restore the newest intact generation, replay the
// journal suffix past it. Promote and resume (evPromoted, evResumed) write
// theirs: save a generation under term, open the journal past it.
//
// The fold rule lives here. Float summation is grouping-dependent, so the
// period folds into the master only at a record frontier every follower
// also folds at. A primary journals a merge marker before it folds
// (mergeAndPublish); replay and appliers fold at markers and nowhere else.
// The two exceptions both end in a marker at the same frontier: a
// read-only primary still folds on its tick what it had accepted, without
// a marker — but it accepts nothing more, so its frontier stands still
// until a re-base; and a re-base that writes its base folds what is
// pending. Such a re-base therefore always journals a marker as the first
// record of the journal it opens, under the sequence number its checkpoint
// already covers: a follower tailing this history either reads the marker
// and folds exactly there, or — the old journal lost its tail, the process
// died before the marker was durable — finds a gap and re-bootstraps from
// that checkpoint.
//
// Nothing the loop owns changes before every fallible step has succeeded
// (a pending fold is done on a copy of the master, which shares its shards
// and costs O(ShardCount): MergeFrom never writes what it shares), so on
// error a promoting applier or a degraded primary is exactly what it was;
// a cold start that fails discards the engine.
func (e *Engine) rebase(d durCfg, term uint64, ev event) error {
	cold, now := ev == evReplayed, time.Now()
	ckpt := e.ckpt.Load()
	if d.ckptPath != "" && (ckpt == nil || ckpt.base != d.ckptPath) {
		var err error
		if ckpt, err = newCheckpointer(d.ckptPath, e.opt.Faults, e.opt.Logf); err != nil {
			return err
		}
	}
	master, foldTook, covered := e.master, time.Duration(0), uint64(0)
	switch {
	case cold && ckpt != nil:
		m, st, seq, err := ckpt.Load(e.opt.Resolution)
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if m != nil {
			e.master, master = m, m
			e.restoreState(st)
			e.setLastSeq(seq)
		}
		// Resume the claim the newest generation was written under: a
		// restarted primary must come back at its old term with its old
		// identity, not as a fresh node that clients tracking the previous
		// incarnation's (term, node) pair would reject.
		if t, node := ckpt.newestTermNode(); t >= term && t > 0 {
			if term = t; node != 0 {
				e.node = node
			}
		}
	case !cold:
		if e.period.Len() > 0 {
			master = inventory.New(e.master.Info())
			_ = master.MergeFrom(e.master) // same resolution by construction
			e.foldInto(master, now)
			foldTook = time.Since(now)
		}
		var err error
		if ev == evPromoted {
			err = e.opt.Faults.Hit(FPPromoteCheckpoint)
		}
		if err == nil {
			covered, err = ckpt.Save(master, e.captureState(), e.lastSeq+1, term, e.node) // the marker's seq
		}
		if err != nil {
			e.m.checkpointErrors.Add(1)
			return fmt.Errorf("checkpoint: %w", err)
		}
		e.m.checkpoints.Add(1)
	}
	j := e.jrnl()
	if d.journalPath != "" {
		var replay func(JournalEntry) error
		if cold {
			replay = e.replayEntry
		}
		var err error
		j, err = OpenJournal(d.journalPath, JournalOptions{
			SegmentBytes: d.segBytes,
			StartSeq:     e.lastSeq,
			// Never reuse a sequence number for a different record: not one
			// the base covers though a crash or a broken journal lost it
			// from the WAL, not one an old primary journaled past what this
			// promoted applier saw.
			NextSeqAtLeast: e.lastSeq + 1,
			Faults:         e.opt.Faults,
			Logf:           e.opt.Logf,
		}, replay)
		if err == nil && (!cold || e.period.Len() > 0) {
			_, _, err = j.append(&JournalEntry{Kind: entryMerge})
		}
		if err != nil {
			if j != nil {
				j.Close()
			}
			return fmt.Errorf("journal: %w", err)
		}
		if !cold {
			if err := j.Prune(covered); err != nil {
				e.logf("journal prune: %v", err)
			}
		}
		if rec := j.Recovery(); rec.CorruptEvents > 0 {
			e.m.walCorruption.Add(rec.CorruptEvents)
			e.logf("journal recovery: %d corruption event(s), %d bytes quarantined, replay stopped at seq %d",
				rec.CorruptEvents, rec.QuarantinedBytes, rec.LastSeq)
			e.recordFlight("wal-corruption")
		}
	}

	// Commit.
	if old := e.jrnl(); old != nil && old != j {
		old.Close() // broken: returns the sticky error, descriptor freed
	}
	e.dur, e.sinceCkpt = d, 0
	e.term.Store(term)
	if ckpt != nil {
		e.ckpt.Store(ckpt)
	}
	if j != nil {
		e.journal.Store(j)
		e.m.walSegments.Store(int64(j.Segments()))
		e.m.journalBytes.Store(j.Size())
		e.setLastSeq(j.LastSeq())
	}
	if master != e.master {
		e.master = master
		e.folded(foldTook, nil)
	}
	e.mergePeriod(now) // a cold start's replayed tail past the last marker
	e.resetPeriod()    // empty by now; what the base holds counts as merged
	e.publish(now)
	e.transition(ev)
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

// Promote turns an applier into a journaled, checkpointing primary at the
// given term by re-basing it (see rebase, which states the fold rule): a
// term-stamped checkpoint generation covers the applied frontier and a
// fresh journal opens past it, so sibling replicas bootstrap from the new
// manifest and tail the new WAL with no sequence reuse. On error the
// engine is unchanged — still an applier, nothing folded, same snapshot —
// and the promotion may be retried.
func (e *Engine) Promote(po PromoteOptions) error {
	if po.JournalPath == "" || po.CheckpointPath == "" {
		return fmt.Errorf("ingest: promote needs journal and checkpoint paths")
	}
	if po.Term == 0 {
		return fmt.Errorf("ingest: promote needs a fencing term")
	}
	return e.ask(envelope{kind: envPromote, promote: &po})
}

// handlePromote executes a promotion in loop context, where it owns all
// pipeline state and no submission can interleave.
func (e *Engine) handlePromote(po *PromoteOptions) error {
	if !e.can(permPromote) {
		return fmt.Errorf("ingest: only an applier can be promoted, and this engine is %s", states[e.state.Load()].name)
	}
	if po.Term <= e.term.Load() {
		return fmt.Errorf("ingest: promote term %d does not exceed current term %d", po.Term, e.term.Load())
	}
	// Non-positive overrides fall back to what the engine was built with.
	d := durCfg{po.JournalPath, po.CheckpointPath,
		cmp.Or(max(po.CheckpointEvery, 0), e.dur.ckptEvery), cmp.Or(max(po.WALSegmentBytes, 0), e.dur.segBytes)}
	if err := e.rebase(d, po.Term, evPromoted); err != nil {
		return fmt.Errorf("ingest: promote %w", err)
	}
	e.logf("promoted to primary at term %d (node %016x): journal %s continues at seq %d",
		po.Term, e.node, po.JournalPath, e.lastSeq)
	return nil
}

// handleResume leaves degraded by re-basing (see rebase, which states the
// fold rule): the checkpoint's frontier is the last record applied, even
// if the broken journal lost its buffered tail, and the journal reopens
// past it. A failed attempt changes nothing and re-arms the prober; an
// engine fenced in the meantime stays fenced. Loop context.
func (e *Engine) handleResume() {
	if !e.can(permResume) {
		return
	}
	if !e.ckptBusy.CompareAndSwap(false, true) {
		e.armProber() // background checkpoint still writing; try later
		return
	}
	defer e.ckptBusy.Store(false)
	if err := e.rebase(e.dur, e.term.Load(), evResumed); err != nil {
		e.logf("degraded resume: %v", err)
		e.armProber()
		return
	}
	if !e.can(permAccept) {
		return // fenced while re-basing
	}
	e.degradedReason.Store(nil)
	e.m.resumes.Add(1)
	e.logf("ingest resumed after degraded mode (checkpoint seq %d)", e.lastSeq)
	e.recordFlight("resume")
}
