package ingest

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/obs/trace"
)

// The merge side of the loop: folding the period into the master,
// publishing snapshots, and the background checkpoint cadence.

// mergeAndPublish is the engine's own fold: the period goes into the
// master behind a journaled marker, a fresh snapshot is published, the
// journal is flushed and the checkpoint cadence advances. Tick, PublishNow,
// Finalize and Close all come here, and only a state that may fold on its
// own gets past the first line — an applier folds at its primary's
// markers. A read-only primary folds without a marker: see rebase.
func (e *Engine) mergeAndPublish(now time.Time) {
	may := e.perms()
	if may&permTickMerge == 0 || e.period.Len() == 0 {
		// Nothing new to serve: keep the current snapshot (its info stays
		// at the last merge, which is what it reflects).
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
	if err := e.journalEntry(may, &JournalEntry{Kind: entryMerge}); err != nil {
		e.m.mergeDeferred.Add(1)
		e.cycle.SetError(err)
		return
	}
	e.mergePeriod(now)
	snap := e.publish(now)
	if j := e.jrnl(); j != nil && may&permJournal != 0 {
		fs := e.opt.Tracer.StartChild(e.cycle, "stage.journal_flush")
		err := j.Flush()
		fs.SetError(err)
		fs.Finish()
		if err != nil {
			e.journalFailed(err)
		}
	}
	e.sinceCkpt++
	if e.ckpt.Load() != nil && e.can(permCheckpoint) && e.sinceCkpt >= e.dur.ckptEvery {
		e.sinceCkpt = 0
		e.checkpoint(snap)
	}
}

// mergePeriod folds the period into the master (no publication). Only
// three callers may: mergeAndPublish behind its marker, foldAtMarker, and
// rebase — see the fold rule there.
func (e *Engine) mergePeriod(now time.Time) {
	if e.period.Len() == 0 {
		return
	}
	ms := e.opt.Tracer.StartChild(e.cycle, "stage.ingest_merge")
	ms.SetAttr("period_groups", fmt.Sprint(e.period.Len()))
	t0 := time.Now()
	e.foldInto(e.master, now)
	ms.Finish()
	e.folded(time.Since(t0), ms)
}

// foldInto merges the period into dst — the master, or the copy of it a
// re-base works on — and stamps dst's build info. Period and master share
// the shard hash, so MergeFrom merges shard-by-shard — in parallel when a
// backfill-sized period warrants it.
func (e *Engine) foldInto(dst *inventory.Inventory, now time.Time) {
	// Label the fold so CPU profiles segment the merge hot path by stage.
	pprof.Do(context.Background(), pprof.Labels("stage", "ingest_merge"), func(context.Context) {
		_ = dst.MergeFrom(e.period) // same resolution by construction
	})
	info := dst.Info()
	info.RawRecords = e.m.positionsSeen.Load()
	info.UsedRecords = e.m.tripRecords.Load()
	info.BuiltUnix = now.Unix()
	info.Description = e.opt.Description
	dst.SetInfo(info)
}

// folded retires the period a fold consumed and counts the fold.
func (e *Engine) folded(d time.Duration, ms *trace.Span) {
	e.resetPeriod()
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

// resetPeriod starts an empty period. Every observation counted so far is
// then in the master — folded just now, or part of the checkpoint the
// master was restored from — which is what merged_observations reports;
// publish runs in the same loop step, so it is also what is served.
func (e *Engine) resetPeriod() {
	e.period = inventory.New(inventory.BuildInfo{Resolution: e.opt.Resolution})
	e.m.mergedObservations.Store(e.m.observations.Load())
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
	e.m.lastPublishAt.Store(now.UnixNano())
	e.m.groups.Store(int64(snap.Len()))
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
