package ingest

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/sim"
)

// TestEngineTelemetry streams a fleet through an engine wired to a
// telemetry registry and verifies the counters, stage histograms,
// readiness transition, and uptime/snapshot-age reporting.
func TestEngineTelemetry(t *testing.T) {
	const res = 6
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 6, Seed: 11}, res)

	reg := obs.NewRegistry()
	e, err := NewEngine(Options{
		Resolution: res,
		MergeEvery: 50 * time.Millisecond,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Fresh engine with no journal: nothing published with data yet.
	if e.Ready() {
		t.Error("engine ready before any data merge")
	}

	submitAll(t, e, statics, stream)
	if err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !e.Ready() {
		t.Error("engine not ready after finalize published data")
	}

	s := e.StatsSnapshot()
	if s.UptimeSeconds < 0 || s.SnapshotAgeSeconds < 0 {
		t.Errorf("negative uptime/age: %+v", s)
	}

	// The registry sees the same counts as the JSON stats — one source of
	// truth, two surfaces.
	out := reg.Expose()
	for _, want := range []string{
		"pol_ingest_positions_total", "pol_ingest_accepted_total",
		"pol_ingest_uptime_seconds", "pol_ingest_snapshot_age_seconds",
		`pol_pipeline_stage_seconds_count{stage="ingest_merge"}`,
		`pol_pipeline_stage_seconds_count{stage="ingest_publish"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if !strings.Contains(out, "pol_ingest_positions_total "+strconv.FormatInt(s.PositionsSeen, 10)) {
		t.Errorf("positions counter mismatch: stats=%d exposition:\n%s", s.PositionsSeen,
			grepLine(out, "pol_ingest_positions_total"))
	}
	mergeHist := reg.Histogram(obs.MetricStageSeconds, obs.Labels{"stage": "ingest_merge"})
	if mergeHist.Count() == 0 {
		t.Error("no merge durations recorded")
	}

	// The watchdog wires the engine's accept/reject/merge signals.
	wd := obs.NewWatchdog(reg, obs.WatchdogOptions{Window: 8, MinSamples: 4})
	e.AttachWatchdog(wd)
	now := time.Now()
	for i := 0; i < 3; i++ {
		now = now.Add(time.Second)
		wd.Step(now)
	}
	if v := reg.Gauge(obs.MetricWatchdogValue, obs.Labels{"series": "ingest_merge_seconds"}).Value(); v < 0 {
		t.Errorf("merge seconds gauge %v", v)
	}
}

// TestMergedObservationsOnApplier: merged_observations means "folded into
// the master", so on an applier it may only move at a replicated marker —
// polfeed -stats reads observations == merged_observations as "drained".
func TestMergedObservationsOnApplier(t *testing.T) {
	const res = 6
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 12, Seed: 11}, res)
	e, err := NewEngine(Options{Resolution: res, MergeEvery: 5 * time.Millisecond, ReplicaDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seq := uint64(0)
	submit := func(entry JournalEntry) {
		t.Helper()
		seq++
		entry.Seq = seq
		if err := e.ApplyReplicated([]JournalEntry{entry}); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range statics {
		submit(JournalEntry{Kind: entryStatic, Info: v})
	}
	for _, rec := range stream {
		submit(JournalEntry{Kind: entryPosition, Pos: rec})
	}
	time.Sleep(20 * time.Millisecond) // several local ticks: none may fold
	if err := e.PublishNow(); err != nil {
		t.Fatal(err)
	}
	if s := e.StatsSnapshot(); s.Observations == 0 || s.MergedObservations != 0 || s.Merges != 0 {
		t.Fatalf("applier between markers: observations=%d merged_observations=%d merges=%d, want >0, 0, 0",
			s.Observations, s.MergedObservations, s.Merges)
	}
	submit(JournalEntry{Kind: entryMerge})
	if err := e.PublishNow(); err != nil {
		t.Fatal(err)
	}
	if s := e.StatsSnapshot(); s.MergedObservations != s.Observations || s.Merges != 1 || e.AppliedSeq() != seq {
		t.Fatalf("applier after a marker: observations=%d merged_observations=%d merges=%d applied=%d/%d",
			s.Observations, s.MergedObservations, s.Merges, e.AppliedSeq(), seq)
	}
}

func grepLine(s, substr string) string {
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

// TestSnapshotAgeFreshAfterPublish: the age of what serving reads is
// measured from the publication itself, not from its whole second. The
// publish is placed in the second half of a wall-clock second, where a
// whole-second stamp would over-report by at least half a second.
func TestSnapshotAgeFreshAfterPublish(t *testing.T) {
	e, err := NewEngine(Options{Resolution: 6, MergeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		if frac := time.Duration(time.Now().Nanosecond()); frac < 500*time.Millisecond {
			time.Sleep(500*time.Millisecond - frac + 10*time.Millisecond)
		}
		if err := e.PublishNow(); err != nil {
			t.Fatal(err)
		}
		if age := e.SnapshotAge(); age >= 100*time.Millisecond {
			t.Fatalf("snapshot age %v right after a publish, want well under 100ms", age)
		}
	}
}
