package ingest

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
)

// fleetStream builds a simulated fleet and returns its statics, the
// per-vessel tracks flattened into arrival (timestamp) order, and the
// batch-built inventory over the same records.
func fleetStream(t testing.TB, cfg sim.Config, res int) (map[uint32]model.VesselInfo, []model.PositionRecord, *inventory.Inventory) {
	t.Helper()
	gaz := ports.Default()
	s, err := sim.New(cfg, gaz)
	if err != nil {
		t.Fatal(err)
	}
	n := len(s.Fleet().Vessels)
	tracks := make([][]model.PositionRecord, n)
	for i := 0; i < n; i++ {
		tracks[i], _ = s.VesselTrack(i)
	}

	ctx := dataflow.NewContext(0)
	records := dataflow.Generate(ctx, n, func(part int) []model.PositionRecord { return tracks[part] })
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	res2, err := pipeline.Run(records, s.Fleet().StaticIndex(), idx, pipeline.Options{Resolution: res})
	if err != nil {
		t.Fatal(err)
	}

	// Interleave the per-vessel tracks by receive time, the shape a live
	// multiplexed feed delivers. Stable sort keeps each vessel's records in
	// order through equal timestamps.
	var stream []model.PositionRecord
	for _, tr := range tracks {
		stream = append(stream, tr...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })
	return s.Fleet().StaticIndex(), stream, res2.Inventory
}

// diffInventories fails the test unless the two inventories have identical
// group sets and record counts, with sketch means within tolerance.
func diffInventories(t *testing.T, got, want *inventory.Inventory, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: group count %d, want %d", label, got.Len(), want.Len())
	}
	checked := 0
	want.Each(func(key inventory.GroupKey, ws *inventory.CellSummary) bool {
		gs, ok := got.Get(key)
		if !ok {
			t.Errorf("%s: missing group %v", label, key)
			return false
		}
		if gs.Records != ws.Records {
			t.Errorf("%s: group %v records %d, want %d", label, key, gs.Records, ws.Records)
			return false
		}
		if math.Abs(gs.Speed.Mean()-ws.Speed.Mean()) > 1e-6 {
			t.Errorf("%s: group %v speed mean %v, want %v", label, key, gs.Speed.Mean(), ws.Speed.Mean())
			return false
		}
		if gs.Ships.Estimate() != ws.Ships.Estimate() {
			t.Errorf("%s: group %v ships %d, want %d", label, key, gs.Ships.Estimate(), ws.Ships.Estimate())
			return false
		}
		checked++
		return true
	})
	if checked != want.Len() {
		t.Fatalf("%s: compared %d of %d groups", label, checked, want.Len())
	}
}

func submitAll(t *testing.T, e *Engine, statics map[uint32]model.VesselInfo, stream []model.PositionRecord) {
	t.Helper()
	for _, v := range statics {
		if err := e.SubmitStatic(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range stream {
		if err := e.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineConvergesToBatch streams a simulated fleet through the live
// engine and requires the finalized snapshot to match the batch-built
// inventory: identical group sets, identical per-group record counts and
// ship cardinalities, means within float tolerance.
func TestEngineConvergesToBatch(t *testing.T) {
	const res = 6
	statics, stream, batch := fleetStream(t, sim.Config{Vessels: 8, Days: 10, Seed: 33}, res)

	e, err := NewEngine(Options{Resolution: res, MergeEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	submitAll(t, e, statics, stream)
	if err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	live := e.Snapshot()
	diffInventories(t, live, batch, "live vs batch")

	if got := e.StatsSnapshot(); got.PositionsSeen != int64(len(stream)) {
		t.Errorf("positions seen %d, want %d", got.PositionsSeen, len(stream))
	}
	info := live.Info()
	if info.Resolution != res || info.RawRecords != int64(len(stream)) {
		t.Errorf("snapshot info %+v, want res=%d raw=%d", info, res, len(stream))
	}
}

// TestEngineJournalReplay kills an engine mid-stream (torn journal tail
// included) and requires the restarted engine — journal replay plus the
// remainder of the stream — to finish in exactly the state of an engine
// that saw the whole stream uninterrupted.
func TestEngineJournalReplay(t *testing.T) {
	const res = 6
	statics, stream, batch := fleetStream(t, sim.Config{Vessels: 8, Days: 8, Seed: 3}, res)
	if batch.Len() == 0 {
		t.Fatal("fixture produced no completed trips; pick a longer sim")
	}
	journal := filepath.Join(t.TempDir(), "wal")
	half := len(stream) / 2

	// Control: one engine, whole stream, no journal.
	ctl, err := NewEngine(Options{Resolution: res})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	submitAll(t, ctl, statics, stream)
	if err := ctl.Finalize(); err != nil {
		t.Fatal(err)
	}

	// First incarnation: half the stream, then a hard stop after Sync.
	e1, err := NewEngine(Options{Resolution: res, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, e1, statics, stream[:half])
	if err := e1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	e1Groups := e1.Snapshot().Len() // state at the moment of death

	// Simulate a crash mid-append: garbage torn tail after the last entry
	// of the active segment.
	idxs, err := scanSegments(journal)
	if err != nil || len(idxs) == 0 {
		t.Fatalf("no journal segments on disk: %v (%v)", idxs, err)
	}
	f, err := os.OpenFile(segmentPath(journal, idxs[len(idxs)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{'P', 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second incarnation: replay + the rest of the stream.
	e2, err := NewEngine(Options{Resolution: res, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.StatsSnapshot(); got.PositionsSeen == 0 || got.StaticsSeen == 0 {
		t.Fatalf("replay processed nothing: %+v", got)
	}
	if got := e2.Snapshot().Len(); got != e1Groups {
		t.Errorf("snapshot after replay has %d groups, predecessor died with %d", got, e1Groups)
	}
	submitAll(t, e2, statics, stream[half:])
	if err := e2.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e2.Snapshot(), ctl.Snapshot(), "restarted vs uninterrupted")
}

// TestEngineCheckpoint verifies the periodic checkpoint file is a loadable
// inventory matching a published snapshot.
func TestEngineCheckpoint(t *testing.T) {
	const res = 6
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 4, Days: 4, Seed: 3}, res)
	ckpt := filepath.Join(t.TempDir(), "live.pol")
	e, err := NewEngine(Options{
		Resolution:      res,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	submitAll(t, e, statics, stream)
	if err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint goroutine races the test; wait for it to land. The
	// Save also flate-compresses the segment now, which is slow under
	// -race, so the budget is generous.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if e.StatsSnapshot().Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written")
		}
		time.Sleep(10 * time.Millisecond)
	}
	loaded, err := segment.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() == 0 || loaded.Info().Resolution != res {
		t.Fatalf("checkpoint loaded %d groups res %d", loaded.Len(), loaded.Info().Resolution)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestServerTCPFeeds drives the engine through real TCP connections
// carrying timestamped NMEA — the full wire path: encode, frame, decode,
// assemble, clean, merge — split across two concurrent feeds.
func TestServerTCPFeeds(t *testing.T) {
	const res = 6
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 8, Seed: 7}, res)

	e, err := NewEngine(Options{Resolution: res, MergeEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, ln, ServerOptions{Logf: t.Logf})
	defer srv.Close()

	// Split the stream across two feeds by vessel so each connection still
	// delivers its vessels' records in timestamp order.
	conns := make([]net.Conn, 2)
	writers := make([]*feed.Writer, 2)
	for i := range conns {
		c, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		writers[i] = feed.NewWriter(c)
	}
	lane := func(mmsi uint32) int { return int(mmsi % 2) }
	start := stream[0].Time
	for _, v := range statics {
		if err := writers[lane(v.MMSI)].WriteStatic(v, start); err != nil {
			t.Fatal(err)
		}
	}
	wirePositions := 0
	for _, rec := range stream {
		w := writers[lane(rec.MMSI)]
		if err := w.WritePosition(rec); err != nil {
			t.Fatal(err)
		}
		wirePositions++
	}
	for i, w := range writers {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		conns[i].Close()
	}

	// Wait until both feeds drain through the decoder and engine queue.
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := e.StatsSnapshot()
		if s.PositionsSeen >= int64(wirePositions) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("feeds stalled: %+v", s)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := e.Finalize(); err != nil {
		t.Fatal(err)
	}

	s := e.StatsSnapshot()
	if len(s.Feeds) != 2 {
		t.Fatalf("registered %d feeds, want 2", len(s.Feeds))
	}
	var wireAccepted int64
	for _, fsnap := range s.Feeds {
		if fsnap.Positions == 0 || fsnap.Statics == 0 {
			t.Errorf("feed %s decoded nothing: %+v", fsnap.Remote, fsnap)
		}
		if fsnap.BadNMEA != 0 || fsnap.BadLines != 0 {
			t.Errorf("feed %s had wire errors: %+v", fsnap.Remote, fsnap)
		}
		wireAccepted += fsnap.Accepted
	}
	if wireAccepted != s.Accepted {
		t.Errorf("per-feed accepted %d != engine accepted %d", wireAccepted, s.Accepted)
	}
	if e.Snapshot().Len() == 0 {
		t.Error("no groups accumulated over TCP")
	}
	if s.Accepted == 0 || s.Trips == 0 {
		t.Errorf("no accepted records or trips over TCP: %+v", s)
	}
}

// TestServerIdleTimeout drops a connection that stops sending.
func TestServerIdleTimeout(t *testing.T) {
	e, err := NewEngine(Options{Resolution: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, ln, ServerOptions{IdleTimeout: 100 * time.Millisecond, Logf: t.Logf})
	defer srv.Close()

	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c, "garbage-then-silence\n")

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := e.StatsSnapshot()
		if len(s.Feeds) == 1 && s.Feeds[0].Closed && s.Feeds[0].Error != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle feed not reaped: %+v", s.Feeds)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEngineBackpressure: a tiny queue must block submitters rather than
// drop records.
func TestEngineBackpressure(t *testing.T) {
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 4, Days: 4, Seed: 3}, 6)
	e, err := NewEngine(Options{Resolution: 6, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	submitAll(t, e, statics, stream)
	if err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := e.StatsSnapshot().PositionsSeen; got != int64(len(stream)) {
		t.Fatalf("queue dropped records: saw %d of %d", got, len(stream))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitStatic(model.VesselInfo{MMSI: 1}, nil); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}
