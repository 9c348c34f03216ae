package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// readFrames is readChunk taken apart: the framed records, their count and
// the journal's frontier.
func readFrames(j *Journal, fromSeq uint64, max int) ([]byte, int, uint64, error) {
	chunk, n, err := j.readChunk(fromSeq, max)
	return chunk[replHeaderLen:], n, binary.LittleEndian.Uint64(chunk[len(replMagic):]), err
}

// readEntries decodes what readChunk ships: the entries past fromSeq and
// the journal's frontier.
func readEntries(j *Journal, fromSeq uint64, max int) ([]JournalEntry, uint64, error) {
	frames, n, last, err := readFrames(j, fromSeq, max)
	if err != nil {
		return nil, last, err
	}
	var out []JournalEntry
	for rr := (recordReader{r: bytes.NewReader(frames)}); ; {
		if _, _, _, err := rr.next(); err == io.EOF {
			break
		} else if err != nil {
			return nil, last, err
		}
		e, err := rr.entry()
		if err != nil {
			return nil, last, err
		}
		out = append(out, e)
	}
	if len(out) != n {
		return nil, last, fmt.Errorf("readChunk counted %d records, its bytes hold %d", n, len(out))
	}
	return out, last, nil
}

// TestJournalReadEntries covers the random-access WAL reader the
// replication surface is built on: reads across segment rotations must
// return exactly the contiguous suffix past fromSeq, and pruned ranges
// must answer ErrSeqPruned rather than a silent gap.
func TestJournalReadEntries(t *testing.T) {
	recs := testPositions(200)
	base := filepath.Join(t.TempDir(), "wal")
	// Small segments force several rotations under 200 records.
	j, err := OpenJournal(base, JournalOptions{SegmentBytes: 20 * journalRecSize}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, r := range recs {
		if err := j.AppendPosition(r); err != nil {
			t.Fatal(err)
		}
	}
	if j.Segments() < 3 {
		t.Fatalf("expected several segments, got %d", j.Segments())
	}

	// Full read from zero, then from every rotation-straddling offset.
	for _, from := range []uint64{0, 1, 19, 20, 21, 100, 198, 199} {
		got, last, err := readEntries(j, from, 0)
		if err != nil {
			t.Fatalf("ReadEntries(%d): %v", from, err)
		}
		if last != 200 {
			t.Fatalf("ReadEntries(%d): frontier %d, want 200", from, last)
		}
		if len(got) != int(200-from) {
			t.Fatalf("ReadEntries(%d): %d entries, want %d", from, len(got), 200-from)
		}
		for i, e := range got {
			if e.Seq != from+uint64(i)+1 {
				t.Fatalf("ReadEntries(%d): entry %d has seq %d, want %d", from, i, e.Seq, from+uint64(i)+1)
			}
			if e.Pos != recs[e.Seq-1] {
				t.Fatalf("ReadEntries(%d): seq %d decoded %+v, want %+v", from, e.Seq, e.Pos, recs[e.Seq-1])
			}
		}
	}

	// max bounds the batch; the next call resumes where it left off.
	got, _, err := readEntries(j, 0, 7)
	if err != nil || len(got) != 7 || got[6].Seq != 7 {
		t.Fatalf("bounded read: %d entries (err %v)", len(got), err)
	}
	got, _, err = readEntries(j, 7, 7)
	if err != nil || len(got) != 7 || got[0].Seq != 8 {
		t.Fatalf("resumed read: %d entries (err %v)", len(got), err)
	}

	// Caught-up read: empty, no error, frontier reported.
	got, last, err := readEntries(j, 200, 0)
	if err != nil || len(got) != 0 || last != 200 {
		t.Fatalf("caught-up read: %d entries, last %d, err %v", len(got), last, err)
	}

	// Prune away the first segments: reads below the retained frontier
	// must fail loudly, reads above keep working.
	if err := j.Prune(100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readEntries(j, 0, 0); !errors.Is(err, ErrSeqPruned) {
		t.Fatalf("read below pruned frontier: err %v, want ErrSeqPruned", err)
	}
	got, _, err = readEntries(j, 150, 0)
	if err != nil || len(got) != 50 || got[0].Seq != 151 {
		t.Fatalf("read above pruned frontier: %d entries (err %v)", len(got), err)
	}
}

// TestReplChunkCodec round-trips the POLREPL1 wire form and requires
// every single-byte corruption and truncation of the body to fail
// decoding — the transit analogue of the on-disk bit-flip property.
func TestReplChunkCodec(t *testing.T) {
	recs := testPositions(5)
	entries := make([]JournalEntry, 0, len(recs))
	for i, r := range recs {
		entries = append(entries, JournalEntry{Kind: entryPosition, Seq: uint64(i + 1), Pos: r})
	}
	body := refReplChunk(entries, 42)

	got, lastSeq, err := ReadReplChunk(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq != 42 || len(got) != len(entries) {
		t.Fatalf("decoded %d entries, lastSeq %d", len(got), lastSeq)
	}
	for i, e := range got {
		if e.Seq != entries[i].Seq || e.Pos != entries[i].Pos {
			t.Fatalf("entry %d: %+v, want %+v", i, e, entries[i])
		}
	}

	// Bit-flip property: corrupting any byte past the magic must be
	// detected (header corruption fails framing, payload corruption fails
	// the record CRC). Flips inside lastSeq only change the reported
	// frontier, so skip those 8 bytes.
	for off := len(replMagic) + 8; off < len(body); off++ {
		mut := append([]byte(nil), body...)
		mut[off] ^= 0x40
		if _, _, err := ReadReplChunk(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
	}
	// Truncation property: every proper prefix must fail, never decode
	// short.
	for cut := 0; cut < len(body); cut++ {
		if _, _, err := ReadReplChunk(bytes.NewReader(body[:cut])); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

// TestReplHTTPSurface exercises the primary-side endpoints end to end:
// manifest, checkpoint downloads (checksummed against the manifest),
// WAL suffix fetch, 404 on unknown files, 410 past the pruned frontier.
func TestReplHTTPSurface(t *testing.T) {
	const res = 6
	// Long enough simulation that trips complete and the checkpoint
	// cadence fires (trips are what fill the period inventory).
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, res)
	dir := t.TempDir()
	eng, err := NewEngine(Options{
		Resolution:      res,
		MergeEvery:      20 * time.Millisecond,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		WALSegmentBytes: 256 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	submitAll(t, eng, statics, stream)
	// Finalize flushes open trips into the period so the merge tick has
	// data and the checkpoint cadence fires.
	if err := eng.Finalize(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng.StatsSnapshot().Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	var man ReplManifest
	fetchJSON(t, srv.URL+"/v1/repl/manifest", &man)
	if man.Resolution != res || len(man.Generations) == 0 || man.WALSeq == 0 {
		t.Fatalf("bad manifest: %+v", man)
	}
	g := man.Generations[0]
	if gen, seq := eng.CheckpointStatus(); gen != g.Gen || seq != g.Seq {
		t.Fatalf("CheckpointStatus (%d,%d) disagrees with manifest (%d,%d)", gen, seq, g.Gen, g.Seq)
	}

	// Both generation files download and verify against the manifest.
	for _, f := range []struct {
		name string
		crc  uint32
		size int64
	}{{g.Seg, g.SegCRC, g.SegSize}, {g.State, g.StateCRC, g.StateSize}} {
		body := fetchBytes(t, fmt.Sprintf("%s/v1/repl/checkpoint/%d/%s", srv.URL, g.Gen, f.name), http.StatusOK)
		if int64(len(body)) != f.size {
			t.Fatalf("%s: %d bytes, manifest says %d", f.name, len(body), f.size)
		}
		if sum := crcOf(body); sum != f.crc {
			t.Fatalf("%s: crc %08x, manifest says %08x", f.name, sum, f.crc)
		}
	}

	// A file name not in the manifest — traversal or stale — is 404.
	fetchBytes(t, fmt.Sprintf("%s/v1/repl/checkpoint/%d/..%%2Fwal.000001.wal", srv.URL, g.Gen), http.StatusNotFound)
	fetchBytes(t, fmt.Sprintf("%s/v1/repl/checkpoint/%d/%s", srv.URL, g.Gen+99, g.Seg), http.StatusNotFound)
	// No generation offers a POLINV1 file, and the separate segment route
	// is gone: the checkpoint route is the only way to a generation file.
	if g.Inv != "" || g.InvCRC != 0 || g.InvSize != 0 {
		t.Fatalf("manifest advertises an inv file: %+v", g)
	}
	fetchBytes(t, fmt.Sprintf("%s/v1/repl/checkpoint/%d/live.polinv.g%06d", srv.URL, g.Gen, g.Gen), http.StatusNotFound)
	fetchBytes(t, fmt.Sprintf("%s/v1/repl/segment/%d", srv.URL, g.Gen), http.StatusNotFound)

	// The route is Range-capable: a suffix range returns 206 with exactly
	// the segment's fixed tail, which parses against the manifest's size.
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/repl/checkpoint/%d/%s", srv.URL, g.Gen, g.Seg), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=-%d", segment.TailLen))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tailB, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusPartialContent || len(tailB) != segment.TailLen {
		t.Fatalf("suffix range: status %d, %d bytes, err %v", resp.StatusCode, len(tailB), err)
	}
	if _, err := segment.ParseTail(tailB, g.SegSize); err != nil {
		t.Fatalf("ranged bytes are not the segment tail: %v", err)
	}

	// The WAL endpoint serves a decodable suffix with contiguous seqs
	// from any frontier at or past the oldest retained generation's.
	oldest := man.Generations[len(man.Generations)-1].Seq
	body := fetchBytes(t, fmt.Sprintf("%s/v1/repl/wal?from_seq=%d&max=100", srv.URL, oldest), http.StatusOK)
	entries, lastSeq, err := ReadReplChunk(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || entries[0].Seq != oldest+1 || lastSeq != eng.WALSeq() {
		t.Fatalf("wal fetch from %d: %d entries, first seq %v, lastSeq %d (engine at %d)",
			oldest, len(entries), entries, lastSeq, eng.WALSeq())
	}
	for i, e := range entries {
		if e.Seq != oldest+uint64(i)+1 {
			t.Fatalf("wal fetch: entry %d has seq %d, want %d", i, e.Seq, oldest+uint64(i)+1)
		}
	}
	fetchBytes(t, srv.URL+"/v1/repl/wal", http.StatusBadRequest)

	// The checkpointer pruned the WAL below the oldest retained
	// generation as cadences fired; a replica asking for the pruned
	// range gets 410 — the re-bootstrap signal — never a silent gap.
	if eng.jrnl().Segments() > 1 || oldest > 0 {
		fetchBytes(t, srv.URL+"/v1/repl/wal?from_seq=0", http.StatusGone)
	}

	// The snapshot endpoint serves the published inventory.
	if err := eng.PublishNow(); err != nil {
		t.Fatal(err)
	}
	snap, err := segment.LoadBytes(fetchBytes(t, srv.URL+"/v1/repl/snapshot", http.StatusOK), "snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if !inventory.Equal(snap, eng.Snapshot()) {
		t.Fatal("served snapshot differs from the published inventory")
	}
}

func fetchJSON(t *testing.T, url string, v any) {
	t.Helper()
	body := fetchBytes(t, url, http.StatusOK)
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

func fetchBytes(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (%s)", url, resp.StatusCode, wantStatus, buf.String())
	}
	return buf.Bytes()
}
