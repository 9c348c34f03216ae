package replica

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	nmea "github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/sim"
)

// nmeaStream encodes a fleet as the timestamped-NMEA bytes a live feed
// delivers: every static report first, then the positions in arrival order.
// It returns the stream and the byte offset after each position's lines.
func nmeaStream(tb testing.TB, statics map[uint32]model.VesselInfo, stream []model.PositionRecord) ([]byte, []int) {
	tb.Helper()
	var buf bytes.Buffer
	w := nmea.NewWriter(&buf)
	for _, v := range statics {
		if err := w.WriteStatic(v, stream[0].Time); err != nil {
			tb.Fatal(err)
		}
	}
	ends := make([]int, 0, len(stream))
	for _, rec := range stream {
		if err := w.WritePosition(rec); err != nil {
			tb.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			tb.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// cloneStream multiplies a small fleet the way the live-ingest workload
// does: each clone sails the same tracks under fresh MMSIs, a few hours
// after the previous one, keeping one report in thin — the trip rate of a
// fleet clones times larger, so per-record work outweighs merges as it does
// on a real feed.
func cloneStream(statics map[uint32]model.VesselInfo, stream []model.PositionRecord, clones, thin int) (map[uint32]model.VesselInfo, []model.PositionRecord) {
	outStatics := make(map[uint32]model.VesselInfo, clones*len(statics))
	out := make([]model.PositionRecord, 0, clones*len(stream)/thin+1)
	for c := 0; c < clones; c++ {
		bump, shift := uint32(c)*100000, int64(c*10*24/clones)*3600
		for mmsi, v := range statics {
			v.MMSI = mmsi + bump
			outStatics[v.MMSI] = v
		}
		for i, r := range stream {
			if i%thin == c%thin {
				r.MMSI += bump
				r.Time += shift
				out = append(out, r)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return outStatics, out
}

// BenchmarkPumpToReplica drives the whole live path in one process: NMEA
// bytes through PumpFeed into a journaling, checkpointing primary, its
// ReplHandler on loopback HTTP, and a heap replica applying the WAL. The
// clock covers the stream past the primary's first checkpoint, from the
// first byte pumped until the replica has applied the last record.
func BenchmarkPumpToReplica(b *testing.B) {
	statics, stream := fleetStream(b, sim.Config{Vessels: 8, Days: 12, Seed: 7})
	statics, stream = cloneStream(statics, stream, 32, 6)
	wire, ends := nmeaStream(b, statics, stream)
	var records, mallocs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		eng, err := ingest.NewEngine(ingest.Options{
			Resolution:      testRes,
			MergeEvery:      250 * time.Millisecond,
			JournalPath:     filepath.Join(dir, "live.wal"),
			CheckpointPath:  filepath.Join(dir, "live.polinv"),
			CheckpointEvery: 4,
			WALSegmentBytes: 1 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		fs := eng.RegisterFeed("bench")
		// Warm-up: a twentieth of the stream at a time until a checkpoint
		// generation exists for the replica to bootstrap from.
		warm, off := 0, 0
		for eng.StatsSnapshot().Checkpoints == 0 {
			if warm += len(stream) / 20; warm > len(stream)/2 {
				b.Fatalf("no checkpoint after %d of %d records", warm, len(stream))
			}
			if err := ingest.PumpFeed(eng, bytes.NewReader(wire[off:ends[warm-1]]), fs); err != nil {
				b.Fatal(err)
			}
			off = ends[warm-1]
			if err := eng.PublishNow(); err != nil {
				b.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond) // the checkpoint writer runs beside the loop
		}
		srv := httptest.NewServer(eng.ReplHandler())
		rep, err := New(testOptions(srv.URL))
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- rep.Run(ctx) }()
		waitCaughtUp(b, rep, eng.WALSeq())

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		if err := ingest.PumpFeed(eng, bytes.NewReader(wire[off:]), fs); err != nil {
			b.Fatal(err)
		}
		if err := eng.PublishNow(); err != nil { // the last marker: nothing stays pending
			b.Fatal(err)
		}
		waitCaughtUp(b, rep, eng.WALSeq())
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		records += uint64(len(stream) - warm)
		mallocs += m1.Mallocs - m0.Mallocs

		requireEqual(b, eng, rep, "benchmark stream")
		cancel()
		<-done
		srv.Close()
		rep.Close()
		eng.Close()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(mallocs)/float64(records), "allocs/record")
}
