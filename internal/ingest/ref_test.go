package ingest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"slices"
)

// The WAL read path and the POLREPL1 encoder as they stood at e3b0b56 —
// decode every record from the segment head, re-encode it into the framing
// it was read from — kept as the reference the shipped-as-it-lies path is
// held against (TestReplWALBodiesMatchReference) and as the test-side
// encoder of the chunk codec and fuzz tests. Not called by the program.

// refAppendRecord appends one WAL-framed record to buf.
func refAppendRecord(buf []byte, kind byte, seq uint64, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// refEntryPayload re-encodes a decoded entry's payload.
func refEntryPayload(e JournalEntry) []byte {
	switch e.Kind {
	case entryStatic:
		return appendStaticEntry(nil, e.Info)
	case entryMerge:
		return nil
	}
	return appendPositionEntry(nil, e.Pos)
}

// refReplChunk encodes one /v1/repl/wal response body.
func refReplChunk(entries []JournalEntry, lastSeq uint64) []byte {
	buf := append([]byte(nil), replMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, lastSeq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = refAppendRecord(buf, e.Kind, e.Seq, refEntryPayload(e))
	}
	return buf
}

// refReadEntries returns up to max committed entries with sequence numbers
// strictly greater than fromSeq, in order, plus the last sequence number
// appended so far, scanning every segment it touches from its head.
func refReadEntries(j *Journal, fromSeq uint64, max int) ([]JournalEntry, uint64, error) {
	if max <= 0 || max > maxReadEntries {
		max = maxReadEntries
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	last := j.nextSeq - 1
	if fromSeq >= last {
		return nil, last, nil
	}
	if err := j.flushLocked(); err != nil {
		return nil, last, err
	}
	idxs := slices.Sorted(maps.Keys(j.segs))
	if len(idxs) == 0 || fromSeq+1 < j.segs[idxs[0]].first {
		return nil, last, ErrSeqPruned
	}
	var out []JournalEntry
	for pos, idx := range idxs {
		if pos+1 < len(idxs) && j.segs[idxs[pos+1]].first <= fromSeq+1 {
			continue
		}
		var err error
		out, err = refReadSegmentEntries(j, idx, fromSeq, max, out)
		if err != nil {
			return nil, last, err
		}
		if len(out) >= max {
			break
		}
	}
	return out, last, nil
}

func refReadSegmentEntries(j *Journal, idx int, fromSeq uint64, max int, out []JournalEntry) ([]JournalEntry, error) {
	path := segmentPath(j.base, idx)
	f, err := os.Open(path)
	if err != nil {
		return out, fmt.Errorf("ingest: read segment %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.Seek(segHeaderLen, io.SeekStart); err != nil {
		return out, fmt.Errorf("ingest: seek segment %s: %w", path, err)
	}
	rr := recordReader{r: bufio.NewReaderSize(f, 1<<16)}
	for len(out) < max {
		seq, _, short, err := rr.next()
		if err == io.EOF || short {
			return out, nil
		}
		if err == nil && seq > fromSeq {
			var e JournalEntry
			if e, err = rr.entry(); err == nil {
				out = append(out, e)
			}
		}
		if err != nil {
			return out, fmt.Errorf("ingest: read segment %s: %w", path, err)
		}
	}
	return out, nil
}
