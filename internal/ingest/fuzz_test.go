package ingest

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
)

// Fuzz targets for the bytes the lifecycle trusts from another process or
// an earlier incarnation of this one: a /v1/repl/wal body (an applier
// applies it), a WAL segment (cold start and every re-base replay it) and
// a POLSTAT2 state file (cold start and replica install restore it). The
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
	chunk := refReplChunk(entries, 42)

	// The same entries journaled by an engine: its first segment, and what
	// its replication handler ships of it, whole and bounded.
	base := filepath.Join(t.TempDir(), "wal")
	eng, err := NewEngine(Options{JournalPath: base, MergeEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if _, _, err := eng.jrnl().append(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	var shipped [][]byte
	for _, q := range []string{"from_seq=0", "from_seq=3&max=4"} {
		rec := httptest.NewRecorder()
		eng.ReplHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/repl/wal?"+q, nil))
		if rec.Code != 200 {
			t.Fatalf("wal?%s: status %d", q, rec.Code)
		}
		shipped = append(shipped, rec.Body.Bytes())
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(segmentPath(base, 1))
	if err != nil {
		t.Fatal(err)
	}

	st := testState(12)
	st.vessels[9] = vesselPersist{}
	vp := vesselPersist{tracker: openTrackerState(recs[:3])}
	vp.cleaner.HasLast, vp.cleaner.Last = true, recs[3]
	st.vessels[recs[3].MMSI] = vp
	state := encodeState(st)

	variants := func(valid []byte) [][]byte {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)*2/3] ^= 0x40
		return [][]byte{valid, valid[:len(valid)-7], flipped}
	}
	line := manifestLine(ckptGen{Gen: 5, Seq: 950, Seg: "c", SegCRC: 0xc, SegSize: 3, State: "b",
		StateCRC: 0xb, StateSize: 2, Term: 9, Node: 0xaa})
	return map[string][][]byte{
		"FuzzReadReplChunk": append(variants(chunk), shipped...),
		"FuzzOpenJournal":   variants(seg),
		"FuzzDecodeState":   variants(state),
		"FuzzParseManifestLine": append(variants([]byte(line)),
			[]byte("gen 4 seq 900 seg live.polinv.g000004.seg crc 0a0b0c0d size 123 state live.polinv.g000004.state crc 01020304 size 456"),
			[]byte("gen 2 seq 1 seg g crc 3 size 4 state s crc 1 size 2 term 0 node ff unknown key")),
	}
}

// openTrackerState is a tracker's state after a stop at Rotterdam, the
// records at sea, and two records passing through Felixstowe's fence: a
// trip open, and a visit that is not yet a call.
func openTrackerState(atSea []model.PositionRecord) pipeline.TrackerState {
	gaz := ports.Default()
	rtm, _ := gaz.ByName("Rotterdam")
	flx, _ := gaz.ByName("Felixstowe")
	tr := pipeline.NewTripTracker(ports.NewIndex(gaz, ports.IndexResolution), 0)
	at := func(r model.PositionRecord, p geo.LatLng, sog float64) model.PositionRecord {
		r.Pos, r.SOG = p, sog
		return r
	}
	tr.Push(at(atSea[0], rtm.Pos, 0))
	for _, r := range atSea {
		tr.Push(r)
	}
	last := atSea[len(atSea)-1]
	tr.Push(at(last, flx.Pos, 11.5))
	tr.Push(at(last, flx.Pos, 12))
	return tr.State()
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated: every target has
// its seeds on disk (their bytes may drift with the fixtures; the
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
		enc := refReplChunk(entries, lastSeq)
		again, lastAgain, err := ReadReplChunk(bytes.NewReader(enc))
		if err != nil || lastAgain != lastSeq || len(again) != len(entries) {
			t.Fatalf("re-encoded chunk: %d entries, lastSeq %d, err %v; first decode gave %d, %d", len(again), lastAgain, err, len(entries), lastSeq)
		}
		if !bytes.Equal(enc, refReplChunk(again, lastAgain)) {
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
		// The index the scan rebuilt changes where a read starts, never what
		// it returns: from every surviving record on, the bytes are those a
		// scan from the segment head finds. (TestWALReadSeeksByIndex does the
		// same over a recovered segment long enough to carry marks.)
		if len(first) > 0 {
			all, _, err := refReadEntries(j, first[0].Seq-1, 0)
			if err != nil || len(all) != min(len(first), maxReadEntries) {
				t.Fatalf("reference read of %d replayed entries: %d, %v", len(first), len(all), err)
			}
			for i := range all {
				got, n, _, err := readFrames(j, all[i].Seq-1, 3)
				want := refReplChunk(all[i:min(i+3, len(all))], 0)[replHeaderLen:]
				if err != nil || n != min(3, len(all)-i) || !bytes.Equal(got, want) {
					t.Fatalf("read from seq %d: %d records, %d bytes, %v; a scan from the head finds %d bytes", all[i].Seq, n, len(got), err, len(want))
				}
			}
		}
		if _, _, err := j.append(&JournalEntry{Kind: entryMerge}); err != nil {
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
			if s := second[i]; s.Seq != e.Seq || s.Kind != e.Kind || !bytes.Equal(refEntryPayload(s), refEntryPayload(e)) {
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
		enc := encodeState(st)
		if len(enc) > len(data) {
			t.Fatalf("%d input bytes decoded to a state that encodes to %d", len(data), len(enc))
		}
		again, err := decodeState(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if again.counters != st.counters || len(again.statics) != len(st.statics) || len(again.vessels) != len(st.vessels) {
			t.Fatalf("round trip changed the state: %+v / %d / %d, then %+v / %d / %d", st.counters,
				len(st.statics), len(st.vessels), again.counters, len(again.statics), len(again.vessels))
		}
	})
}

// FuzzParseManifestLine: parsing a manifest line never panics, and what
// parses is what the writer writes back: the written line parses to the
// same generation — but for what the writer does not carry (unknown keys,
// a node without a term) — and writing that again is a fixed point.
func FuzzParseManifestLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		g, err := parseManifestLine(string(line))
		if err != nil {
			return
		}
		written := manifestLine(g)
		again, err := parseManifestLine(written)
		if err != nil {
			t.Fatalf("%q parsed, its rewrite %q does not: %v", line, written, err)
		}
		if g.Term == 0 {
			g.Node = 0
		}
		if again != g || manifestLine(again) != written {
			t.Fatalf("%q → %+v → %q → %+v", line, g, written, again)
		}
	})
}
