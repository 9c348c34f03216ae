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
	if n < 1 {
		n = 1
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("feed: split %s: %w", path, err)
	}
	size := st.Size()
	if int64(n) > size && size > 0 {
		n = int(size)
	}
	if size == 0 {
		n = 1
	}
	out := make([]Section, n)
	for i := 0; i < n; i++ {
		out[i] = Section{
			Path:  path,
			Index: i,
			Start: size * int64(i) / int64(n),
			End:   size * int64(i+1) / int64(n),
		}
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

// NewSectionReader returns a Reader decoding the records owned by the byte
// range [start, end) of the archive behind src (Hadoop-style text-split
// semantics):
//
//   - if start > 0 the stream seeks to start and discards everything up to
//     and including the first newline — that partial (or boundary-aligned)
//     line belongs to the previous section, which reads past its own end to
//     finish it;
//   - continuation sentences of a multi-sentence NMEA group (fragment
//     number > 1) immediately after the resync point are discarded too: the
//     group is owned by the section containing its first sentence;
//   - reading continues through end until the current line — and any
//     continuation lines completing the group it opened — is finished.
func NewSectionReader(src io.ReadSeeker, start, end int64) (*Reader, error) {
	if start < 0 || end < start {
		return nil, fmt.Errorf("feed: bad section range [%d,%d)", start, end)
	}
	if _, err := src.Seek(start, io.SeekStart); err != nil {
		return nil, fmt.Errorf("feed: seek to %d: %w", start, err)
	}
	b := &boundedLineReader{
		br:  bufio.NewReaderSize(src, 1<<16),
		pos: start,
		end: end,
	}
	if start > 0 {
		if err := b.resync(); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return NewReader(b), nil
}

// boundedLineReader is an io.Reader surfacing whole lines of the underlying
// stream while the line start lies within the section, per the ownership
// rule of NewSectionReader. It hands the Reader complete lines only, so the
// downstream scanner never sees a record split at the section boundary.
type boundedLineReader struct {
	br   *bufio.Reader
	pos  int64 // absolute offset of the next unread byte
	end  int64
	line []byte // the current line, reused from line to line
	cur  []byte // the part of line not yet surfaced
	open bool   // the last surfaced line opened a multi-sentence group
	done bool
}

// resync discards the partial line at the section start, plus any
// continuation sentences whose group started in the previous section.
func (b *boundedLineReader) resync() error {
	if err := b.skipLine(); err != nil {
		return err
	}
	for {
		line, err := b.br.Peek(fragPeek)
		if len(line) == 0 {
			return err
		}
		if fragNum(firstLine(line)) <= 1 {
			return nil
		}
		if err := b.skipLine(); err != nil {
			return err
		}
	}
}

// fragPeek is the lookahead needed to parse a line's fragment number: the
// Unix timestamp, the tab, and the first three NMEA fields fit well inside
// it.
const fragPeek = 64

// skipLine consumes one line (through '\n' or EOF), tracking pos.
func (b *boundedLineReader) skipLine() error {
	for {
		chunk, err := b.br.ReadSlice('\n')
		b.pos += int64(len(chunk))
		if err == bufio.ErrBufferFull {
			continue
		}
		return err
	}
}

// firstLine truncates buf at the first newline.
func firstLine(buf []byte) []byte {
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		return buf[:i]
	}
	return buf
}

// fragCounts returns the total and number fields of a timestamped NMEA line
// ("ts\t!AIVDM,total,num,...") where they stand in it. tab is false for a
// line without the timestamp separator, fields with fewer than three fields.
func fragCounts(line []byte) (total, num []byte, tab, fields bool) {
	comma := []byte{','}
	_, rest, tab := bytes.Cut(line, []byte{'\t'})
	_, rest, _ = bytes.Cut(rest, comma)
	total, rest, fields = bytes.Cut(rest, comma)
	num, _, _ = bytes.Cut(rest, comma)
	return total, num, tab, fields
}

// fragNum extracts the fragment number of a line: 1 for standalone or first
// sentences, and for anything unparseable (malformed lines never extend a
// section). (A one-digit count converts to a string without allocating.)
func fragNum(line []byte) int {
	_, num, _, fields := fragCounts(line)
	n, err := strconv.Atoi(string(num))
	if !fields || err != nil || n < 1 {
		return 1
	}
	return n
}

// Read surfaces the next chunk of owned lines.
func (b *boundedLineReader) Read(p []byte) (int, error) {
	for len(b.cur) == 0 {
		if b.done {
			return 0, io.EOF
		}
		if err := b.nextLine(); err != nil {
			b.done = true
			if len(b.cur) == 0 {
				return 0, io.EOF
			}
			break
		}
	}
	n := copy(p, b.cur)
	b.cur = b.cur[n:]
	return n, nil
}

// nextLine loads the next owned line into cur, or flags completion. The
// reader is always at a line start here. A line starting at exactly pos ==
// end is still owned (the next section's resync discards it), mirroring the
// discard-through-first-newline rule on the other side of the boundary.
func (b *boundedLineReader) nextLine() error {
	if b.pos > b.end || (b.pos == b.end && b.end == 0) {
		// Past the range: only continuation lines completing the group the
		// section opened are still owned.
		if !b.open {
			return io.EOF
		}
		line, err := b.br.Peek(fragPeek)
		if len(line) == 0 || fragNum(firstLine(line)) <= 1 {
			b.open = false
			if err != nil && err != io.EOF {
				return err
			}
			return io.EOF
		}
	}
	err := b.readLine()
	if len(b.line) == 0 {
		if err == nil || err == io.EOF {
			return io.EOF
		}
		return err
	}
	// A line with total > num leaves a group open; the line carrying the
	// final fragment closes it.
	if total, num, tab, fields := fragCounts(firstLine(b.line)); tab {
		t, err1 := strconv.Atoi(string(total))
		n, err2 := strconv.Atoi(string(num))
		b.open = fields && err1 == nil && err2 == nil && n < t
	}
	b.cur = b.line
	if err != nil && err != io.EOF {
		return err
	}
	return nil
}

// readLine reads one full line (including '\n' when present) out of the
// bufio window into b.line, which Read has finished surfacing by now.
func (b *boundedLineReader) readLine() error {
	b.line = b.line[:0]
	for {
		chunk, err := b.br.ReadSlice('\n')
		b.pos += int64(len(chunk))
		b.line = append(b.line, chunk...)
		if err != bufio.ErrBufferFull {
			return err
		}
	}
}
