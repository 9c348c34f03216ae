package ingest

import (
	"fmt"
	"maps"
	"slices"
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

// TestOpenTripRecordsGauge: pol_ingest_open_trip_records and the status's
// open_trip_records count the reports trackers hold until a port call. One
// vessel's track, record by record: from the end of its origin call to the
// port call that completes its first trip, every accepted report grows the
// count by one — a vessel that has not reached a port holds them all — and
// that port call drops it.
func TestOpenTripRecordsGauge(t *testing.T) {
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 12, Seed: 11}, 6)
	type point struct{ held, accepted, trips int64 }
	// follow feeds one vessel's reports to a fresh engine until its first
	// trip completes.
	follow := func(mmsi uint32) ([]point, *obs.Registry) {
		reg := obs.NewRegistry()
		e, err := NewEngine(Options{Resolution: 6, MergeEvery: time.Hour, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.SubmitStatic(statics[mmsi], nil); err != nil {
			t.Fatal(err)
		}
		var track []point
		for _, rec := range stream {
			if rec.MMSI != mmsi {
				continue
			}
			if err := e.SubmitPosition(rec, nil); err != nil {
				t.Fatal(err)
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			s := e.StatsSnapshot().EngineSection
			track = append(track, point{s.OpenTripRecords, s.Accepted, s.Trips})
			if s.Trips > 0 {
				break
			}
		}
		return track, reg
	}
	var track []point
	var reg *obs.Registry
	for _, mmsi := range slices.Sorted(maps.Keys(statics)) {
		if track, reg = follow(mmsi); len(track) > 0 && track[len(track)-1].trips > 0 {
			t.Logf("vessel %d: %d reports to its first trip", mmsi, len(track))
			break
		}
	}
	done := len(track) - 1
	if done < 1 || track[done].trips != 1 {
		t.Fatal("no vessel of the fleet completed a trip")
	}
	if track[done].held >= track[done-1].held {
		t.Errorf("the port call completing the trip left %d records held, %d before", track[done].held, track[done-1].held)
	}
	start := done - 1 // the first report after the origin call ended
	for start > 0 && track[start].held >= track[start-1].held {
		start--
	}
	for i := start + 1; i < done; i++ {
		if grown, accepted := track[i].held-track[i-1].held, track[i].accepted-track[i-1].accepted; grown != accepted {
			t.Fatalf("report %d at sea: held %d → %d with %d accepted", i, track[i-1].held, track[i].held, accepted)
		}
	}
	if span := track[done-1].held; span < 10 {
		t.Errorf("the trip held %d records before its port call", span)
	}
	if want := fmt.Sprintf("pol_ingest_open_trip_records %d", track[done].held); !strings.Contains(reg.Expose(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, grepLine(reg.Expose(), "pol_ingest_open_trip_records"))
	}
}
