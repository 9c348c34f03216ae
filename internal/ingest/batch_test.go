package ingest

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/sim"
)

// Tests of the batch as the unit of the live path: the batched pump against
// record-by-record submission, the shipped WAL bytes against the encoder
// they replaced, the failure in the middle of a batch, the record bound on
// the queue, the index seek and the allocation budget.

// nmeaFleet encodes a simulated fleet as a live feed — statics in MMSI
// order, then every position in arrival order — and returns the bytes cut
// into parts at position boundaries.
func nmeaFleet(t testing.TB, cfg sim.Config, parts int) [][]byte {
	t.Helper()
	statics, stream, _ := fleetStream(t, cfg, 6)
	var buf bytes.Buffer
	w := feed.NewWriter(&buf)
	for _, mmsi := range slices.Sorted(func(yield func(uint32) bool) {
		for m := range statics {
			if !yield(m) {
				return
			}
		}
	}) {
		if err := w.WriteStatic(statics[mmsi], stream[0].Time); err != nil {
			t.Fatal(err)
		}
	}
	var out [][]byte
	cut := 0
	for i, rec := range stream {
		if err := w.WritePosition(rec); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(len(stream)/parts+1) == 0 || i == len(stream)-1 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			out = append(out, bytes.Clone(buf.Bytes()[cut:]))
			cut = buf.Len()
		}
	}
	return out
}

// submitItems decodes nmea and submits every item on its own.
func submitItems(t testing.TB, e *Engine, nmea []byte) {
	t.Helper()
	fr := feed.NewReader(bytes.NewReader(nmea))
	for {
		it, err := fr.NextItem()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		switch it.Kind {
		case feed.ItemPosition:
			err = e.SubmitPosition(it.Pos, nil)
		case feed.ItemStatic:
			err = e.SubmitStatic(feed.StaticAsVesselInfo(it.Static), nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// walDigest hashes every live segment file of a journal, in order.
func walDigest(t testing.TB, base string) string {
	t.Helper()
	idxs, err := scanSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, idx := range idxs {
		data, err := os.ReadFile(segmentPath(base, idx))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d:%d:", idx, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%d segments %x", len(idxs), h.Sum(nil)[:8])
}

// counters is a Stats with everything that follows the clock, the node or
// the feed registry cleared.
func counters(e *Engine) Stats {
	s := e.StatsSnapshot()
	s.UptimeSeconds, s.SnapshotAgeSeconds, s.LastMergeMicros, s.AvgMergeMicros, s.LastPublishUnix = 0, 0, 0, 0, 0
	s.Node, s.Feeds, s.DegradedReason = "", nil, ""
	return s
}

// tailInto drives a fresh applier engine from eng's replication surface
// until it has applied eng's whole WAL, chunk of max records by chunk.
func tailInto(t testing.TB, eng *Engine, max int) *Engine {
	t.Helper()
	app, err := NewEngine(Options{Resolution: 6, MergeEvery: time.Hour, ReplicaDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { app.Close() })
	h := eng.ReplHandler()
	for app.AppliedSeq() < eng.WALSeq() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/repl/wal?from_seq=%d&max=%d", app.AppliedSeq(), max), nil))
		entries, _, err := ReadReplChunk(rec.Body)
		if err != nil || len(entries) == 0 {
			t.Fatalf("wal chunk past %d: status %d, %d entries, %v", app.AppliedSeq(), rec.Code, len(entries), err)
		}
		if err := app.ApplyReplicated(entries); err != nil {
			t.Fatal(err)
		}
		if err := app.PublishNow(); err != nil {
			t.Fatal(err)
		}
	}
	return app
}

// TestBatchedPumpEqualsSingleSubmissions: one fixed stream, submitted item
// by item and through the batched pump, with merges at the same four
// points, leaves byte-identical WAL segment files — the ones the
// record-at-a-time loop of e3b0b56 wrote for this stream, by this test's own
// code — identical counters, and inventory.Equal snapshots on both
// primaries and on an applier tailing each.
func TestBatchedPumpEqualsSingleSubmissions(t *testing.T) {
	parts := nmeaFleet(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, 4)
	run := func(name string, submit func(e *Engine, nmea []byte)) (*Engine, string) {
		base := filepath.Join(t.TempDir(), "live.wal")
		e, err := NewEngine(Options{Resolution: 6, MergeEvery: time.Hour, JournalPath: base, WALSegmentBytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		for _, part := range parts {
			submit(e, part)
			if err := e.PublishNow(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
		return e, walDigest(t, base)
	}
	single, singleWAL := run("single", func(e *Engine, nmea []byte) { submitItems(t, e, nmea) })
	batched, batchedWAL := run("batched", func(e *Engine, nmea []byte) {
		if err := PumpFeed(e, bytes.NewReader(nmea), e.RegisterFeed("test")); err != nil {
			t.Fatal(err)
		}
	})
	const parentWAL = "46 segments 26fd72188190c458"
	if singleWAL != parentWAL || batchedWAL != parentWAL {
		t.Errorf("WAL files: single %q, batched %q, e3b0b56 wrote %q", singleWAL, batchedWAL, parentWAL)
	}
	if s, b := counters(single), counters(batched); fmt.Sprintf("%+v", s) != fmt.Sprintf("%+v", b) {
		t.Errorf("counters differ:\nsingle  %+v\nbatched %+v", s, b)
	}
	if s := counters(single); s.Accepted == 0 || s.Merges < 2 || s.Rejected == 0 {
		t.Fatalf("vacuous stream: %+v", s)
	}
	if !inventory.Equal(single.Snapshot(), batched.Snapshot()) {
		t.Error("primaries differ")
	}
	for _, max := range []int{64, 1000, 0} {
		if !inventory.Equal(tailInto(t, batched, max).Snapshot(), single.Snapshot()) {
			t.Errorf("applier tailing the batched primary %d records a chunk differs from the primaries", max)
		}
	}
	if !inventory.Equal(tailInto(t, single, 0).Snapshot(), single.Snapshot()) {
		t.Error("applier tailing the single-submission primary differs")
	}
}

// TestReplWALBodiesMatchReference: /v1/repl/wal answers with the bytes the
// decode-and-re-encode handler of e3b0b56 (ref_test.go) builds for the same
// journal, whichever way from_seq and max fall: segment boundaries, the
// middle of a segment past index marks, a statics-and-markers mix, a file
// that ends inside a record, a pruned range, a caught-up reader.
func TestReplWALBodiesMatchReference(t *testing.T) {
	base := filepath.Join(t.TempDir(), "live.wal")
	const perSeg = 3000 // position records a segment holds: two index marks each
	e, err := NewEngine(Options{Resolution: 6, MergeEvery: time.Hour, JournalPath: base, WALSegmentBytes: segHeaderLen + perSeg*journalRecSize})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	j := e.jrnl()
	// Appended straight to the engine's journal: the handler only reads it.
	recs := testPositions(3*perSeg + 500)
	for i := range recs {
		switch {
		case i%1000 == 7:
			_, _, err = j.append(&JournalEntry{Kind: entryStatic, Info: model.VesselInfo{MMSI: recs[i].MMSI, Name: fmt.Sprint("V", i), CallSign: "CS"}})
		case i%1000 == 500:
			_, _, err = j.append(&JournalEntry{Kind: entryMerge})
		default:
			err = j.AppendPosition(recs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	last := j.LastSeq()
	if j.Segments() != 4 || len(j.segs[1].marks) != 2 {
		t.Fatalf("%d segments, %d marks in the first", j.Segments(), len(j.segs[1].marks))
	}
	second := j.segs[2].first

	h := e.ReplHandler()
	check := func(label string, from uint64, max int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/repl/wal?from_seq=%d&max=%d", from, max), nil))
		entries, refLast, err := refReadEntries(j, from, max)
		if errors.Is(err, ErrSeqPruned) {
			if rec.Code != http.StatusGone {
				t.Errorf("%s: from %d max %d: status %d, reference says pruned", label, from, max, rec.Code)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: reference read: %v", label, err)
		}
		if want := refReplChunk(entries, refLast); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: from %d max %d: status %d, %d bytes, reference has %d bytes (%d entries)",
				label, from, max, rec.Code, rec.Body.Len(), len(want), len(entries))
		}
	}
	table := func(label string) {
		for _, from := range []uint64{0, 1, 6, 7, 8, 499, 500, 1023, 1024, 1025, 2047, 2048, 2500,
			second - 2, second - 1, second, second + 1, second + 1024, last - 4096, last - 1, last, last + 5} {
			for _, max := range []int{0, 1, 2, 100, 4096, 9000} {
				check(label, from, max)
			}
		}
	}
	table("intact")

	// The active segment ends inside its last record, as after a torn write.
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	active := segmentPath(base, 4)
	st, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	table("torn")

	if err := j.Prune(second + 10); err != nil {
		t.Fatal(err)
	}
	if j.Segments() != 3 {
		t.Fatalf("%d segments after prune", j.Segments())
	}
	table("pruned")
}

// TestBatchAppendFailureMatchesSingleSubmissions: the journal fails on a
// record in the middle of a batch. The records before it are applied and
// journaled, its own cleaner state is rolled back, every record after it is
// a degraded drop — the end state of the same stream submitted one record
// at a time.
func TestBatchAppendFailureMatchesSingleSubmissions(t *testing.T) {
	nmea := bytes.Join(nmeaFleet(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, 1), nil)
	const failAt = 1500 // journal appends that succeed first: 6 statics, then positions
	type end struct {
		stats    Stats
		wal      string
		cleaners map[uint32]string
	}
	run := func(submit func(e *Engine)) end {
		base := filepath.Join(t.TempDir(), "live.wal")
		reg := fault.New()
		if err := reg.Enable(FPJournalAppend, fmt.Sprintf("error(disk full)@%d", failAt)); err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(Options{Resolution: 6, MergeEvery: time.Hour, JournalPath: base, Faults: reg})
		if err != nil {
			t.Fatal(err)
		}
		submit(e)
		if err := e.Sync(); !errors.Is(err, ErrJournalBroken) {
			t.Fatalf("sync after the failed append: %v", err)
		}
		res := end{stats: counters(e), cleaners: map[uint32]string{}}
		e.Close() // the loop is gone: its state can be read
		for mmsi, vs := range e.vessels {
			res.cleaners[mmsi] = fmt.Sprintf("%+v", vs.cleaner.State())
		}
		res.wal = walDigest(t, base)
		return res
	}
	single := run(func(e *Engine) { submitItems(t, e, nmea) })
	batched := run(func(e *Engine) {
		if err := PumpFeed(e, bytes.NewReader(nmea), e.RegisterFeed("test")); err != nil {
			t.Fatal(err)
		}
	})
	if fmt.Sprintf("%+v", single) != fmt.Sprintf("%+v", batched) {
		t.Errorf("end states differ:\nsingle  %+v\nbatched %+v", single, batched)
	}
	s := batched.stats
	if s.JournalSeq != failAt || s.JournalErrors == 0 || !s.Degraded || s.Accepted == 0 ||
		s.DegradedDropped == 0 || s.DegradedDropped+s.Accepted+s.Rejected != s.PositionsSeen {
		t.Errorf("after the failure: %+v", s)
	}
}

// TestQueueBoundedInRecords: with the loop stalled, a feed that never stops
// writing is read only until QueueSize records are queued and one more
// batch is decoded; when the loop resumes, so does the pump, and nothing is
// lost.
func TestQueueBoundedInRecords(t *testing.T) {
	const queue = 64
	nmea := bytes.Join(nmeaFleet(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, 1), nil)
	total := int64(bytes.Count(nmea, []byte("!AIVDM"))) // an upper bound: statics take two sentences
	stalled, release := make(chan struct{}), make(chan struct{})
	resume := sync.OnceFunc(func() { close(release) })
	reg := fault.New()
	reg.CrashFn = func(string) { close(stalled); <-release }
	if err := reg.Enable(FPJournalSync, "crash*1"); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Options{Resolution: 6, MergeEvery: time.Hour, QueueSize: queue,
		JournalPath: filepath.Join(t.TempDir(), "live.wal"), Faults: reg})
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

	synced := make(chan error, 1)
	go func() { synced <- e.Sync() }() // the loop blocks inside this barrier
	<-stalled

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	defer resume() // first: a failed assertion must not leave the Closes waiting on the stall
	var written atomic.Int64
	wrote := make(chan error, 1)
	go func() {
		for off := 0; off < len(nmea); {
			n, err := conn.Write(nmea[off:min(off+4096, len(nmea))])
			written.Add(int64(n))
			if off += n; err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
	}()

	// The stalled barrier holds the journal's lock, and with it anything that
	// asks the journal (StatsSnapshot does): read the counters directly.
	feedOf := func() *FeedStats {
		e.feedsMu.Lock()
		defer e.feedsMu.Unlock()
		if len(e.feeds) == 0 {
			return new(FeedStats)
		}
		return e.feeds[0]
	}
	decoded := func() int64 { return feedOf().Positions.Load() + feedOf().Statics.Load() }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d records queued, %d decoded, %d bytes written", what, e.queued.Load(), decoded(), written.Load())
			}
		}
	}
	// The pump fills the queue — up to the last batch that fits — and blocks
	// with the next one in hand; the writer runs on into the socket buffers.
	waitFor("pump at the bound", func() bool { return decoded() > queue })
	waitFor("writer ahead of the pump", func() bool { return written.Load() > 4*(2*queue)*80 })
	for i := 0; i < 20; i++ {
		if depth, n := e.queued.Load(), decoded(); depth > queue || n > 2*queue {
			t.Fatalf("loop stalled: %d records queued, %d decoded; bound is %d queued, %d decoded", depth, n, queue, 2*queue)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if seen := e.m.positionsSeen.Load(); seen != 0 {
		t.Fatalf("stalled loop processed %d positions", seen)
	}

	resume()
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor("feed drained", func() bool { return feedOf().Closed.Load() })
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	s, f := e.StatsSnapshot(), feedOf()
	if s.PositionsSeen != f.Positions.Load() || s.PositionsSeen < total*9/10 || s.QueueDepth != 0 || s.DegradedDropped != 0 {
		t.Fatalf("after resume: %d positions seen of %d decoded (stream has < %d), queue %d, %d dropped",
			s.PositionsSeen, f.Positions.Load(), total, s.QueueDepth, s.DegradedDropped)
	}
}

// procReadBytes is the process's cumulative read-syscall byte count.
func procReadBytes(t *testing.T) int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no /proc/self/io to count bytes read: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "rchar: %d", &n); err == nil {
			return n
		}
	}
	t.Skip("no rchar in /proc/self/io")
	return 0
}

// TestWALReadSeeksByIndex: in a default-sized segment holding 10⁵ records a
// read at the tail starts at the index mark before it — it reads one stride
// plus the chunk, not the segment — and returns the reference's bytes; the
// same after a reopen rebuilt the index, and after a reopen that cut the
// segment at a corrupt record and appends went on from there.
func TestWALReadSeeksByIndex(t *testing.T) {
	const max = 256
	base := filepath.Join(t.TempDir(), "live.wal")
	recs := testPositions(100_000)
	j, err := OpenJournal(base, JournalOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll := func(recs []model.PositionRecord) {
		t.Helper()
		for _, r := range recs {
			if err := j.AppendPosition(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// One stride of skipped records, the chunk, and the reader's read-ahead.
	budget := int64((walIndexStride+max)*journalRecSize + 2<<16)
	check := func(label string, n uint64) {
		t.Helper()
		if j.Segments() != 1 || len(j.segs[1].marks) != int(n-1)/walIndexStride || j.LastSeq() != n {
			t.Fatalf("%s: %d segments, %d marks, last seq %d", label, j.Segments(), len(j.segs[1].marks), j.LastSeq())
		}
		for _, from := range []uint64{n - 1, n - max, n - 5000, n / 2, walIndexStride - 1, walIndexStride, 0} {
			// Fixed-size records: the offset names the record a read starts at.
			off := j.segs[1].seek(from + 1)
			if at := uint64(off-segHeaderLen)/journalRecSize + 1; (off-segHeaderLen)%journalRecSize != 0 || at > from+1 || from+1-at >= walIndexStride {
				t.Fatalf("%s: seek(%d) = offset %d, record %d: not the mark within a stride below", label, from+1, off, at)
			}
			before := procReadBytes(t)
			got, count, last, err := readFrames(j, from, max)
			read := procReadBytes(t) - before
			if err != nil || last != n || count != int(min(max, n-from)) {
				t.Fatalf("%s: read from %d: %d records, last %d, %v", label, from, count, last, err)
			}
			if read > budget {
				t.Errorf("%s: read from %d took %d bytes off the disk, budget %d (segment is %d)", label, from, read, budget, j.Size())
			}
			entries, _, err := refReadEntries(j, from, max)
			if err != nil {
				t.Fatal(err)
			}
			if want := refReplChunk(entries, 0)[replHeaderLen:]; !bytes.Equal(got, want) {
				t.Errorf("%s: read from %d: %d bytes differ from the reference's %d", label, from, len(got), len(want))
			}
		}
	}
	reopen := func() {
		t.Helper()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if j, err = OpenJournal(base, JournalOptions{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(recs)
	check("appended", 100_000)
	reopen()
	check("reopened", 100_000)

	// The record in the middle of the file goes bad: the reopen keeps the
	// ones before it and their marks, the appends that follow extend both.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, segmentPath(base, 1))
	if j, err = OpenJournal(base, JournalOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	kept := uint64((segHeaderLen+100_000*journalRecSize)/2-segHeaderLen) / journalRecSize
	if rec := j.Recovery(); rec.LastSeq != kept || rec.CorruptEvents != 1 {
		t.Fatalf("recovery kept %d records, want %d: %+v", rec.LastSeq, kept, rec)
	}
	check("cut at a corrupt record", kept)
	appendAll(recs[:5000])
	check("appended past the cut", kept+5000)
}

// TestPumpAllocsPerRecord: in steady state — vessels known, no trip
// completing — a position costs at most two allocations from socket bytes
// to journal bytes.
func TestPumpAllocsPerRecord(t *testing.T) {
	const vessels, n = 7, 20_000
	var buf bytes.Buffer
	w := feed.NewWriter(&buf)
	for v := 0; v < vessels; v++ {
		info := model.VesselInfo{MMSI: 200000000 + uint32(v), Name: "STEADY", Type: model.VesselCargo, LengthM: 200, BeamM: 30}
		if err := w.WriteStatic(info, 1640995200); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-ocean, 12 knots due east: valid, feasible, never near a port.
	position := func(i int) model.PositionRecord {
		return model.PositionRecord{MMSI: 200000000 + uint32(i%vessels), Time: int64(1640995200 + 60*(i/vessels+1)),
			Pos: geo.LatLng{Lat: -40 + float64(i%vessels), Lng: -120 + float64(i/vessels)*0.004}, SOG: 12, COG: 90, Heading: 90}
	}
	for i := 0; i < n/10; i++ {
		if err := w.WritePosition(position(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	warm := bytes.Clone(buf.Bytes())
	buf.Reset()
	for i := n / 10; i < n; i++ {
		if err := w.WritePosition(position(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(Options{Resolution: 6, MergeEvery: time.Hour, JournalPath: filepath.Join(t.TempDir(), "live.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fs := e.RegisterFeed("test")
	pump := func(nmea []byte) {
		t.Helper()
		if err := PumpFeed(e, bytes.NewReader(nmea), fs); err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	pump(warm)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pump(buf.Bytes())
	runtime.ReadMemStats(&m1)
	s := e.StatsSnapshot()
	if s.Accepted != n || s.JournalSeq != n+vessels {
		t.Fatalf("stream not steady: %+v", s)
	}
	if per := float64(m1.Mallocs-m0.Mallocs) / (n - n/10); per > 2 {
		t.Errorf("%.2f allocations per position, want at most 2", per)
	} else {
		t.Logf("%.3f allocations per position", per)
	}
}
