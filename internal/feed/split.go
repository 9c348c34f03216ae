package feed

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Section is a byte range of a timestamped-NMEA archive, the unit of
// parallel and distributed reads. Sections produced by Split are contiguous
// and cover the whole file; each decodes a disjoint subset of the archive's
// records, and the union over all sections equals a single sequential pass.
type Section struct {
	Path  string // archive path (must be readable where the section is opened)
	Index int    // position of this section in the split, 0-based
	Start int64  // first byte of the range
	End   int64  // one past the last byte of the range
}

// Split divides the archive at path into n byte-range sections of roughly
// equal size. Ranges are byte-oriented: a section boundary generally falls
// mid-line, so readers resync to the next record boundary — a section owns
// every record whose first byte lies in (Start, End], plus the record
// starting exactly at byte 0 for the first section. Multi-sentence messages
// count as one record owned by the section of their first sentence line.
func Split(path string, n int) ([]Section, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("feed: split %s: %w", path, err)
	}
	size := st.Size()
	n = int(max(1, min(int64(n), size))) // at least one section, none empty unless the file is
	out := make([]Section, n)
	for i := range out {
		out[i] = Section{Path: path, Index: i, Start: size * int64(i) / int64(n), End: size * int64(i+1) / int64(n)}
	}
	return out, nil
}

// OpenSection opens one section of an archive for decoding. The returned
// Reader yields exactly the records owned by the section (see Split);
// closing the returned closer releases the underlying file.
func OpenSection(sec Section) (*Reader, io.Closer, error) {
	f, err := os.Open(sec.Path)
	if err != nil {
		return nil, nil, fmt.Errorf("feed: open section %d of %s: %w", sec.Index, sec.Path, err)
	}
	r, err := NewSectionReader(f, sec.Start, sec.End)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// NewSectionReader reads the records owned by the byte range [start, end)
// of the archive behind src at once (Hadoop-style text-split semantics),
// and returns a Reader over them:
//
//   - if start > 0, the line through the first newline belongs to the
//     previous section, which reads past its own end to finish it;
//   - so do continuation sentences (fragment number > 1) right after it:
//     a multi-sentence group is owned by the section of its first sentence;
//   - past end, it reads on to finish the current line and the group it
//     opened. A line starting at exactly end is still owned (the next
//     section's resync discards it), unless end is 0.
func NewSectionReader(src io.ReadSeeker, start, end int64) (*Reader, error) {
	if start < 0 || end < start {
		return nil, fmt.Errorf("feed: bad section range [%d,%d)", start, end)
	}
	if _, err := src.Seek(start, io.SeekStart); err != nil {
		return nil, fmt.Errorf("feed: seek to %d: %w", start, err)
	}
	br := bufio.NewReaderSize(src, 1<<16)
	var owned []byte
	first, resync, open := start > 0, start > 0, false
	for at := start; ; {
		mark := len(owned)
		var err error
		if owned, err = appendLine(br, owned); err != nil && err != io.EOF {
			return nil, fmt.Errorf("feed: read section at %d: %w", at, err)
		}
		line := owned[mark:]
		total, num, tab, ok := fragCounts(bytes.TrimSuffix(line, []byte{'\n'}))
		cont := ok && num > 1
		switch past := at > end || at == end && end == 0; {
		case first || resync && cont:
			first, owned = false, owned[:mark]
		case len(line) == 0 || past && (!open || !cont):
			return NewReader(bytes.NewReader(owned[:mark])), nil
		case tab: // a line with total > num leaves a group open
			resync, open = false, ok && num < total
		default:
			resync = false
		}
		if err == io.EOF {
			return NewReader(bytes.NewReader(owned)), nil
		}
		at += int64(len(line))
	}
}

// appendLine appends the next line of br, through its newline, to dst.
func appendLine(br *bufio.Reader, dst []byte) ([]byte, error) {
	for {
		chunk, err := br.ReadSlice('\n')
		dst = append(dst, chunk...)
		if err != bufio.ErrBufferFull {
			return dst, err
		}
	}
}

// fragCounts reads the total and number fields of a timestamped NMEA line
// ("ts\t!AIVDM,total,num,...") where they stand: ok is false unless both
// are numbers, tab false for a line without the timestamp separator.
func fragCounts(line []byte) (total, num int, tab, ok bool) {
	comma := []byte{','}
	_, rest, tab := bytes.Cut(line, []byte{'\t'})
	_, rest, _ = bytes.Cut(rest, comma)
	t, rest, fields := bytes.Cut(rest, comma)
	n, _, _ := bytes.Cut(rest, comma)
	total, err1 := strconv.Atoi(string(t))
	num, err2 := strconv.Atoi(string(n))
	return total, num, tab, fields && err1 == nil && err2 == nil
}
