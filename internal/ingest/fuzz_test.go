package ingest

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/patternsoflife/pol/internal/model"
)

// Fuzz targets for the bytes the lifecycle trusts from another process or
// an earlier incarnation of this one: a /v1/repl/wal body (an applier
// applies it), a WAL segment (cold start and every re-base replay it) and
// a POLSTAT1 state file (cold start and replica install restore it). The
// committed corpora under testdata/fuzz come from the fixtures the unit
// tests use (go test -run FuzzSeeds -update rewrites them).

// fuzzSeeds builds, per target, a valid input, a torn one and a
// bit-flipped one.
func fuzzSeeds(t testing.TB) map[string][][]byte {
	recs := testPositions(9)
	entries := []JournalEntry{{Kind: entryStatic, Seq: 1, Info: model.VesselInfo{MMSI: recs[0].MMSI, Name: "TESTER"}}}
	for i, r := range recs {
		entries = append(entries, JournalEntry{Kind: entryPosition, Seq: uint64(i + 2), Pos: r})
	}
	entries = append(entries, JournalEntry{Kind: entryMerge, Seq: uint64(len(recs) + 2)})
	rec := httptest.NewRecorder()
	writeReplChunk(rec, entries, 42)

	base := filepath.Join(t.TempDir(), "wal")
	j, err := OpenJournal(base, JournalOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch e.Kind {
		case entryStatic:
			err = j.AppendStatic(e.Info)
		case entryPosition:
			err = j.AppendPosition(e.Pos)
		case entryMerge:
			err = j.AppendMerge()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(segmentPath(base, 1))
	if err != nil {
		t.Fatal(err)
	}

	st := testState(12)
	st.vessels[9] = vesselPersist{}
	vp := vesselPersist{}
	vp.cleaner.HasLast, vp.cleaner.Last = true, recs[3]
	vp.tracker.HasTrip = true
	vp.tracker.Trip.ID, vp.tracker.Trip.Records = 7, recs[:3]
	vp.tracker.Visit = recs[3:5]
	st.vessels[recs[3].MMSI] = vp
	var state bytes.Buffer
	if err := encodeState(&state, st); err != nil {
		t.Fatal(err)
	}

	variants := func(valid []byte) [][]byte {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)*2/3] ^= 0x40
		return [][]byte{valid, valid[:len(valid)-7], flipped}
	}
	return map[string][][]byte{
		"FuzzReadReplChunk": variants(rec.Body.Bytes()),
		"FuzzOpenJournal":   variants(seg),
		"FuzzDecodeState":   variants(state.Bytes()),
	}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated: every target has
// its three seeds on disk (their bytes may drift with the fixtures; the
// files are rewritten only with -update).
func TestFuzzSeedsCommitted(t *testing.T) {
	for target, seeds := range fuzzSeeds(t) {
		dir := filepath.Join("testdata", "fuzz", target)
		for i, seed := range seeds {
			path := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
			if *updateDocs {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if _, err := os.Stat(path); err != nil {
				t.Errorf("%v (run go test ./internal/ingest -run FuzzSeeds -update)", err)
			}
		}
	}
}

// FuzzReadReplChunk: never panic; a body that decodes re-encodes to a body
// that decodes to the same entries, byte for byte.
func FuzzReadReplChunk(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		entries, lastSeq, err := ReadReplChunk(bytes.NewReader(body))
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		writeReplChunk(rec, entries, lastSeq)
		again, lastAgain, err := ReadReplChunk(bytes.NewReader(rec.Body.Bytes()))
		if err != nil || lastAgain != lastSeq || len(again) != len(entries) {
			t.Fatalf("re-encoded chunk: %d entries, lastSeq %d, err %v; first decode gave %d, %d", len(again), lastAgain, err, len(entries), lastSeq)
		}
		rec2 := httptest.NewRecorder()
		writeReplChunk(rec2, again, lastAgain)
		if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// FuzzOpenJournal: whatever is in the first segment file, opening never
// panics or fails, replays strictly contiguous sequence numbers, leaves a
// journal that takes appends, and a second open replays exactly the same
// records plus the one appended.
func FuzzOpenJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		base := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(segmentPath(base, 1), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() ([]JournalEntry, *Journal) {
			var got []JournalEntry
			j, err := OpenJournal(base, JournalOptions{}, func(e JournalEntry) error {
				if len(got) > 0 && e.Seq != got[len(got)-1].Seq+1 {
					t.Fatalf("replayed seq %d after %d", e.Seq, got[len(got)-1].Seq)
				}
				got = append(got, e)
				return nil
			})
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			return got, j
		}
		first, j := open()
		if err := j.AppendMerge(); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		marker := j.LastSeq()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		second, j2 := open()
		defer j2.Close()
		if len(second) != len(first)+1 || second[len(first)].Kind != entryMerge || second[len(first)].Seq != marker {
			t.Fatalf("second open replayed %d entries after %d + 1 appended (seq %d)", len(second), len(first), marker)
		}
		for i, e := range first {
			if s := second[i]; s.Seq != e.Seq || s.Kind != e.Kind || !bytes.Equal(entryPayload(s), entryPayload(e)) {
				t.Fatalf("entry %d changed between opens: %+v then %+v", i, e, s)
			}
		}
	})
}

// FuzzDecodeState: never panic, never allocate past the input; a state
// that decodes survives an encode/decode round trip with the same shape.
func FuzzDecodeState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeState(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := encodeState(&enc, st); err != nil {
			t.Fatal(err)
		}
		if enc.Len() > len(data) {
			t.Fatalf("%d input bytes decoded to a state that encodes to %d", len(data), enc.Len())
		}
		again, err := decodeState(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if again.counters != st.counters || len(again.statics) != len(st.statics) || len(again.vessels) != len(st.vessels) {
			t.Fatalf("round trip changed the state: %+v / %d / %d, then %+v / %d / %d", st.counters,
				len(st.statics), len(st.vessels), again.counters, len(again.statics), len(again.vessels))
		}
	})
}
