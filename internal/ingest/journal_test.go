package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
)

// journalRecSize is the on-disk footprint of each of testPositions'
// records: a 23-byte one-record log plus the record header and CRC
// trailer.
const journalRecSize = recHeaderLen + 23 + recTrailerLen

// testPositions builds n deterministic, distinguishable position records
// whose WAL frames are all journalRecSize bytes, so a test can name a
// record by its offset: every field is a quantum count, of the same
// varint length for every record up to n = 10⁶.
func testPositions(n int) []model.PositionRecord {
	recs := make([]model.PositionRecord, n)
	for i := range recs {
		recs[i] = model.PositionRecord{
			MMSI: 200000000 + uint32(i%7),
			Time: int64(1640995200 + 60*i),
			Pos:  geo.LatLng{Lat: float64(6_000_000+6*i) / 600000, Lng: -float64(12_000_000+6*i) / 600000},
			SOG:  float64(125+10*(i%100)) / 10,
			COG:  float64(1000+10*(i%200)) / 10,
		}
		if got := len(appendRecord(nil, 1, &JournalEntry{Kind: entryPosition, Pos: recs[i]})); got != journalRecSize {
			panic(fmt.Sprintf("test position %d frames to %d bytes, want %d", i, got, journalRecSize))
		}
	}
	return recs
}

// writeJournal appends recs to a fresh journal at base and closes it.
func writeJournal(t *testing.T, base string, recs []model.PositionRecord, segBytes int64) {
	t.Helper()
	j, err := OpenJournal(base, JournalOptions{SegmentBytes: segBytes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.AppendPosition(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayJournal opens base and collects every replayed entry.
func replayJournal(t *testing.T, base string, opts JournalOptions) ([]JournalEntry, *Journal) {
	t.Helper()
	var got []JournalEntry
	j, err := OpenJournal(base, opts, func(e JournalEntry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return got, j
}

// expectPrefix fails unless got is exactly want[:len(got)] with contiguous
// sequence numbers from 1 — the longest-valid-prefix recovery property.
func expectPrefix(t *testing.T, got []JournalEntry, want []model.PositionRecord, label string) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: replayed %d entries, only %d written", label, len(got), len(want))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("%s: entry %d has seq %d, want %d", label, i, e.Seq, i+1)
		}
		if e.Kind != entryPosition || e.Pos != want[i] {
			t.Fatalf("%s: entry %d decoded %+v, want %+v", label, i, e.Pos, want[i])
		}
	}
}

// TestJournalTruncationProperty truncates a single-segment journal at
// every possible byte offset and requires recovery to yield exactly the
// records wholly contained below the cut — never an error, never a
// record past it — and the journal to accept appends afterwards.
func TestJournalTruncationProperty(t *testing.T) {
	recs := testPositions(12)
	master := t.TempDir()
	writeJournal(t, filepath.Join(master, "wal"), recs, 1<<20)
	seg, err := os.ReadFile(filepath.Join(master, "wal.000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	wantSize := segHeaderLen + len(recs)*journalRecSize
	if len(seg) != wantSize {
		t.Fatalf("segment is %d bytes, want %d", len(seg), wantSize)
	}

	for off := 0; off <= len(seg); off++ {
		dir := t.TempDir()
		base := filepath.Join(dir, "wal")
		if err := os.WriteFile(filepath.Join(dir, "wal.000001.wal"), seg[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		got, j := replayJournal(t, base, JournalOptions{})
		wantN := 0
		if off >= segHeaderLen {
			wantN = (off - segHeaderLen) / journalRecSize
		}
		if len(got) != wantN {
			t.Fatalf("truncate at %d: replayed %d entries, want %d", off, len(got), wantN)
		}
		expectPrefix(t, got, recs, "truncated")
		if rec := j.Recovery(); off > segHeaderLen && (off-segHeaderLen)%journalRecSize != 0 && rec.TornBytes == 0 {
			t.Fatalf("truncate at %d: mid-record cut not reported as torn: %+v", off, rec)
		}
		// The journal must keep working: the next append continues the run.
		if err := j.AppendPosition(recs[0]); err != nil {
			t.Fatalf("truncate at %d: append after recovery: %v", off, err)
		}
		if got, want := j.LastSeq(), uint64(wantN+1); got != want {
			t.Fatalf("truncate at %d: seq after append %d, want %d", off, got, want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalBitFlipProperty flips a single bit at pseudo-random offsets
// of a two-segment journal and requires recovery to always produce a
// clean prefix of the written records — corruption may shorten the
// replay but must never surface an error or a record that was not
// written, and the bad bytes must be preserved in .corrupt sidecars.
func TestJournalBitFlipProperty(t *testing.T) {
	recs := testPositions(12)
	// Rotate after ~6 records so the flip can land in either segment.
	segBytes := int64(segHeaderLen + 6*journalRecSize)
	master := t.TempDir()
	writeJournal(t, filepath.Join(master, "wal"), recs, segBytes)
	segs, err := scanSegments(filepath.Join(master, "wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %v (%v)", segs, err)
	}
	files := make(map[string][]byte)
	total := 0
	for _, idx := range segs {
		name := filepath.Base(segmentPath("wal", idx))
		b, err := os.ReadFile(filepath.Join(master, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
		total += len(b)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		target := rng.Intn(total)
		dir := t.TempDir()
		flippedIn := ""
		off := target
		for _, idx := range segs {
			name := filepath.Base(segmentPath("wal", idx))
			b := files[name]
			if flippedIn == "" && off < len(b) {
				mut := bytes.Clone(b)
				mut[off] ^= 1 << uint(rng.Intn(8))
				b = mut
				flippedIn = name
			} else if flippedIn == "" {
				off -= len(b)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		got, j := replayJournal(t, filepath.Join(dir, "wal"), JournalOptions{})
		expectPrefix(t, got, recs, flippedIn)
		if len(got) < len(recs) {
			// Something was lost to the flip: the bytes must be preserved.
			rec := j.Recovery()
			if rec.CorruptEvents == 0 && rec.TornBytes == 0 {
				t.Fatalf("flip in %s lost %d records but recovery reports neither torn nor corrupt: %+v",
					flippedIn, len(recs)-len(got), rec)
			}
			if rec.CorruptEvents > 0 {
				side, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
				if err != nil || len(side) == 0 {
					t.Fatalf("flip in %s: corruption without a .corrupt sidecar", flippedIn)
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalRotationAndPrune checks segment rotation under a small
// threshold and checkpoint-driven retention: pruning at the durable
// frontier removes all closed segments, keeps the active one, and a
// reopen replays only what the checkpoint does not cover.
func TestJournalRotationAndPrune(t *testing.T) {
	recs := testPositions(20)
	segBytes := int64(segHeaderLen + 4*journalRecSize)
	base := filepath.Join(t.TempDir(), "live.wal")

	j, err := OpenJournal(base, JournalOptions{SegmentBytes: segBytes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.AppendPosition(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.Segments(); got != 5 {
		t.Fatalf("segments after 20 appends at 4/segment: %d, want 5", got)
	}
	if err := j.Prune(12); err != nil {
		t.Fatal(err)
	}
	if got := j.Segments(); got != 2 {
		t.Fatalf("segments after prune at seq 12: %d, want 2", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A restart that starts from the covering checkpoint sees only the
	// uncovered suffix.
	got, j2 := replayJournal(t, base, JournalOptions{SegmentBytes: segBytes, StartSeq: 12})
	if len(got) != 8 {
		t.Fatalf("replayed %d entries past seq 12, want 8", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(13+i) || e.Pos != recs[12+i] {
			t.Fatalf("entry %d: seq %d %+v, want seq %d %+v", i, e.Seq, e.Pos, 13+i, recs[12+i])
		}
	}
	if err := j2.AppendPosition(recs[0]); err != nil {
		t.Fatal(err)
	}
	if got, want := j2.LastSeq(), uint64(21); got != want {
		t.Fatalf("seq after reopen+append %d, want %d", got, want)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRefusesV1File: a pre-segment POLWAL1 journal at the base
// path is neither replayed, ignored nor overwritten — OpenJournal names it
// and stops, leaving the file and the directory as they were.
func TestJournalRefusesV1File(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "legacy.wal")
	v1 := append([]byte(nil), walMagicV1...)
	for _, r := range testPositions(5) {
		payload := oldPositionEntry(r)
		v1 = append(v1, entryPosition)
		v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(payload)))
		v1 = append(v1, payload...)
	}
	if err := os.WriteFile(base, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(base, JournalOptions{}, nil)
	if err == nil {
		j.Close()
		t.Fatal("OpenJournal started beside a POLWAL1 file")
	}
	if !strings.Contains(err.Error(), base) || !strings.Contains(err.Error(), "POLWAL1") {
		t.Fatalf("error %q does not name the file and its format", err)
	}
	if got, rerr := os.ReadFile(base); rerr != nil || !bytes.Equal(got, v1) {
		t.Fatalf("v1 file touched: %v", rerr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("refused open left %d directory entries, want only the v1 file", len(entries))
	}
}

// oldPositionEntry is a position as POLWAL1 and POLWAL2 wrote it: 53
// fixed-width bytes.
func oldPositionEntry(r model.PositionRecord) []byte {
	b := binary.LittleEndian.AppendUint32(nil, r.MMSI)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.Time))
	for _, v := range [...]float64{r.Pos.Lat, r.Pos.Lng, r.SOG, r.COG, r.Heading} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return append(b, byte(r.Status))
}

// TestJournalRefusesV2Segment: a POLWAL2 segment is neither replayed nor
// quarantined as damage — OpenJournal names it and its format and stops,
// leaving it as it was.
func TestJournalRefusesV2Segment(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "live.wal")
	v2 := binary.LittleEndian.AppendUint64(append([]byte(nil), walMagicV2...), 1)
	for i, r := range testPositions(5) {
		v2 = refAppendRecord(v2, entryPosition, uint64(i+1), oldPositionEntry(r))
	}
	path := segmentPath(base, 1)
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(base, JournalOptions{}, nil)
	if err == nil {
		j.Close()
		t.Fatal("OpenJournal replayed a POLWAL2 segment")
	}
	if !errors.Is(err, errOldWAL) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "POLWAL2") {
		t.Fatalf("error %q does not name the segment and its format", err)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, v2) {
		t.Fatalf("POLWAL2 segment touched: %v", rerr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("refused open left %d directory entries, want only the POLWAL2 segment", len(entries))
	}
}

// TestJournalFsyncGate verifies fsyncgate semantics: after one failed
// fsync the journal is permanently broken — every later operation
// returns the sticky error without re-attempting the sync.
func TestJournalFsyncGate(t *testing.T) {
	reg := fault.New()
	if err := reg.Enable(FPJournalSync, "error*1"); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "wal")
	j, err := OpenJournal(base, JournalOptions{Faults: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPosition(testPositions(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); !errors.Is(err, ErrJournalBroken) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first sync = %v, want injected ErrJournalBroken", err)
	}
	if err := j.AppendPosition(testPositions(1)[0]); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("append after broken = %v, want sticky ErrJournalBroken", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("second sync = %v, want sticky ErrJournalBroken", err)
	}
	if got := reg.Count(FPJournalSync); got != 1 {
		t.Fatalf("sync failpoint evaluated %d times after break, want 1 (no fsync retry)", got)
	}
	if err := j.Close(); !errors.Is(err, ErrJournalBroken) {
		t.Fatalf("close after broken = %v, want sticky ErrJournalBroken", err)
	}
}

// TestJournalCorruptMiddleQuarantine corrupts a record in the middle of
// the first of three segments: replay must stop at the bad record,
// quarantine the remainder and the later segments, and keep appending
// from the last valid sequence number.
func TestJournalCorruptMiddleQuarantine(t *testing.T) {
	recs := testPositions(12)
	segBytes := int64(segHeaderLen + 4*journalRecSize)
	dir := t.TempDir()
	base := filepath.Join(dir, "wal")
	writeJournal(t, base, recs, segBytes)

	// Flip a payload byte of record 2 (segment 1 holds records 1..4).
	seg1 := segmentPath(base, 1)
	b, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	b[segHeaderLen+journalRecSize+recHeaderLen+10] ^= 0x40
	if err := os.WriteFile(seg1, b, 0o644); err != nil {
		t.Fatal(err)
	}

	got, j := replayJournal(t, base, JournalOptions{SegmentBytes: segBytes})
	expectPrefix(t, got, recs, "corrupt middle")
	if len(got) != 1 {
		t.Fatalf("replayed %d entries, want 1 (stop at corrupt record 2)", len(got))
	}
	rec := j.Recovery()
	if rec.CorruptEvents == 0 || rec.QuarantinedSegments == 0 || rec.QuarantinedBytes == 0 {
		t.Fatalf("corruption not quarantined: %+v", rec)
	}
	sidecars, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(sidecars) == 0 {
		t.Fatal("no .corrupt sidecars preserved")
	}
	if err := j.AppendPosition(recs[1]); err != nil {
		t.Fatal(err)
	}
	if got, want := j.LastSeq(), uint64(2); got != want {
		t.Fatalf("seq after post-corruption append %d, want %d", got, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got2, j2 := replayJournal(t, base, JournalOptions{SegmentBytes: segBytes})
	if len(got2) != 2 {
		t.Fatalf("second reopen replayed %d entries, want 2", len(got2))
	}
	j2.Close()
}
