package ingest

import (
	"bytes"
	"errors"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/testutil"
)

// recordBits is a record as the bits of its fields, so NaN payloads and −0
// compare exactly.
func recordBits(r model.PositionRecord) [8]uint64 {
	b := math.Float64bits
	return [8]uint64{uint64(r.MMSI), uint64(r.Time), b(r.Pos.Lat), b(r.Pos.Lng), b(r.SOG), b(r.COG), b(r.Heading), uint64(r.Status)}
}

// TestRecordCodecAcrossBoundaries: one record set goes through every
// boundary this package carries records across — WAL append → replay,
// /v1/repl → ReadReplChunk, and a checkpoint's last accepted record — and
// every route decodes it to identical bits. (internal/cluster's test of
// the same name carries it through seal → open.)
func TestRecordCodecAcrossBoundaries(t *testing.T) {
	want := testutil.CodecRecords()
	same := func(route string, got []model.PositionRecord) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d", route, len(got), len(want))
		}
		for i := range want {
			if recordBits(got[i]) != recordBits(want[i]) {
				t.Errorf("%s: record %d is %+v, want %+v", route, i, got[i], want[i])
			}
		}
	}
	positions := func(entries []JournalEntry) []model.PositionRecord {
		var out []model.PositionRecord
		for _, e := range entries {
			out = append(out, e.Pos)
		}
		return out
	}

	base := filepath.Join(t.TempDir(), "live.wal")
	eng, err := NewEngine(Options{JournalPath: base, MergeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := eng.jrnl().AppendPosition(r); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	eng.ReplHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/repl/wal?from_seq=0", nil))
	shipped, _, err := ReadReplChunk(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	same("/v1/repl", positions(shipped))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, j := replayJournal(t, base, JournalOptions{})
	j.Close()
	same("WAL replay", positions(replayed))

	st := testState(0)
	for i, r := range want {
		st.vessels[uint32(i)] = vesselPersist{cleaner: pipeline.CleanerState{HasLast: true, Last: r}}
	}
	got, err := decodeState(bytes.NewReader(encodeState(st)))
	if err != nil {
		t.Fatal(err)
	}
	var lasts []model.PositionRecord
	for i := range want {
		lasts = append(lasts, got.vessels[uint32(i)].cleaner.Last)
	}
	same("checkpoint Last", lasts)
}

// TestReadReplChunkRefusesPOLREPL1: a chunk of the wire before POLWAL3's
// payloads is refused by name, whatever follows its magic.
func TestReadReplChunkRefusesPOLREPL1(t *testing.T) {
	body := refReplChunk([]JournalEntry{{Kind: entryMerge, Seq: 1}}, 1)
	copy(body, "POLREPL1")
	if _, _, err := ReadReplChunk(bytes.NewReader(body)); err == nil || !strings.Contains(err.Error(), "POLREPL1") {
		t.Fatalf("POLREPL1 chunk: %v, want the named refusal", err)
	}
}

// TestDecodeStateRefusesPOLSTAT2: a state file whose last accepted records
// are 53 fixed bytes is refused by name, as POLSTAT1 is.
func TestDecodeStateRefusesPOLSTAT2(t *testing.T) {
	old := append([]byte("POLSTAT2\n"), make([]byte, 13*8+4+4)...)
	if _, err := decodeState(bytes.NewReader(old)); !errors.Is(err, errOldState) || !strings.Contains(err.Error(), "POLSTAT2") {
		t.Fatalf("POLSTAT2 state: %v, want the named refusal", err)
	}
}

// TestEncodeStateIsCanonical: equal state encodes to equal bytes whatever
// the maps' order — statics and vessels go in MMSI order — and a last
// accepted record is written only when there is one.
func TestEncodeStateIsCanonical(t *testing.T) {
	build := func(order []uint32) *engineState {
		st := testState(0)
		for _, m := range order {
			st.statics[m] = model.VesselInfo{MMSI: m, Name: "V"}
			st.vessels[m] = vesselPersist{cleaner: pipeline.CleanerState{HasPrev: true, PrevTime: int64(m)}}
		}
		return st
	}
	a := encodeState(build([]uint32{5, 1, 9, 3, 7}))
	for range 20 {
		if b := encodeState(build([]uint32{9, 7, 5, 3, 1})); !bytes.Equal(a, b) {
			t.Fatal("equal state encoded to different bytes")
		}
	}
	without := encodeState(build([]uint32{1}))
	st := build([]uint32{1})
	vp := st.vessels[1]
	vp.cleaner.HasLast = true
	st.vessels[1] = vp
	if with := encodeState(st); len(with) <= len(without) {
		t.Fatalf("a last accepted record took no bytes (%d against %d)", len(with), len(without))
	}
}
