package feed

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/model"
)

// pass is what one driver made of a source: the position records, the
// Reader (for its statics and counters) and the error that ended it.
type pass struct {
	recs []model.PositionRecord
	r    *Reader
	err  error
}

// sequentialRead is the NextItem loop ReadAll must match.
func sequentialRead(src io.Reader) pass {
	p := pass{r: NewReader(src)}
	for {
		it, err := p.r.NextItem()
		if err != nil {
			if err != io.EOF {
				p.err = err
			}
			return p
		}
		if it.Kind == ItemPosition {
			p.recs = append(p.recs, it.Pos)
		}
	}
}

// parallelRead is ReadAll cutting its source into chunks of about size
// bytes.
func parallelRead(src io.Reader, size int) pass {
	p := pass{r: NewReader(src)}
	p.recs, p.err = p.r.readAll(size)
	return p
}

// samePass fails unless got has want's records (floats by their bits),
// statics, counters and error.
func samePass(t *testing.T, what string, want, got pass) {
	t.Helper()
	if len(got.recs) != len(want.recs) || (got.recs == nil) != (want.recs == nil) || recordsDigest(got.recs) != recordsDigest(want.recs) {
		t.Errorf("%s: %d records (digest %s), sequential %d (%s)", what, len(got.recs), recordsDigest(got.recs), len(want.recs), recordsDigest(want.recs))
	}
	if g, w := got.r.Stats(), want.r.Stats(); g != w {
		t.Errorf("%s: stats %+v, sequential %+v", what, g, w)
	}
	// fmt prints a map sorted by key, and a NaN draught as NaN.
	if g, w := fmt.Sprint(got.r.statics), fmt.Sprint(want.r.statics); g != w {
		t.Errorf("%s: statics %s, sequential %s", what, g, w)
	}
	if g, w := fmt.Sprint(got.err), fmt.Sprint(want.err); g != w {
		t.Errorf("%s: error %s, sequential %s", what, g, w)
	}
}

// FuzzReadAll: ReadAll, cutting its source into chunks of a few bytes,
// gives what a NextItem loop gives over the same bytes.
func FuzzReadAll(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, size uint8) {
		want := sequentialRead(bytes.NewReader(data))
		samePass(t, fmt.Sprintf("size %d", 1+int(size)), want, parallelRead(bytes.NewReader(data), 1+int(size)))
	})
}

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

// readAllSeed is one FuzzReadAll input: the bytes and the chunk size less
// one.
type readAllSeed struct {
	data string
	size uint8
}

// fragments rewrites a one-sentence line as the two fragments of a
// multi-sentence message under seq, with the line's timestamp.
func fragments(t *testing.T, line string, seq int) []string {
	t.Helper()
	ts, sentence, _ := strings.Cut(line, "\t")
	var s ais.Sentence
	if err := ais.ParseSentence([]byte(sentence), &s); err != nil {
		t.Fatal(err)
	}
	half := len(s.Payload) / 2
	a, b := s, s
	a.Total, a.Number, a.SeqID, a.Payload, a.FillBits = 2, 1, seq, s.Payload[:half], 0
	b.Total, b.Number, b.SeqID, b.Payload = 2, 2, seq, s.Payload[half:]
	return []string{ts + "\t" + ais.FormatSentence(a), ts + "\t" + ais.FormatSentence(b)}
}

// whole rewrites the fragments of a multi-sentence message as one
// sentence.
func whole(t *testing.T, fragments []string) string {
	t.Helper()
	var s ais.Sentence
	var payload []byte
	for _, line := range fragments {
		_, sentence, _ := strings.Cut(line, "\t")
		if err := ais.ParseSentence([]byte(sentence), &s); err != nil {
			t.Fatal(err)
		}
		payload = append(payload, s.Payload...)
	}
	ts, _, _ := strings.Cut(fragments[0], "\t")
	s.Total, s.Number, s.SeqID, s.Payload = 1, 1, -1, payload
	return ts + "\t" + ais.FormatSentence(s)
}

func readAllSeeds(t *testing.T) map[string]readAllSeed {
	lines := func(ls ...string) string { return strings.Join(ls, "\n") + "\n" }
	pos := positionLine(t, 219000001, 1641038400)
	a := staticLines(t, 219000002, "ALFA", 1, 1641038401)
	b := staticLines(t, 219000003, "BRAVO", 2, 1641038402)
	split := fragments(t, positionLine(t, 219000004, 1641038403), 3)
	bad := strings.Replace(pos, ",A,1", ",A,0", 1)
	seeds := map[string]readAllSeed{
		"interleaved-seq-ids":    {lines(pos, a[0], b[0], a[1], b[1], pos), 39},
		"orphan-out-of-order":    {lines(b[1], pos, a[1], a[0], pos, a[0], b[0], a[0], a[1]), 23},
		"split-position":         {lines(pos, split[0], pos, split[1], pos), 17},
		"split-position-1-chunk": {lines(pos, split[0], pos, split[1], pos, whole(t, a), pos), 255},
		"crlf-blanks-bad-sum":    {strings.ReplaceAll(lines(pos, "", a[0], a[1], bad, "", ""), "\n", "\r\n") + pos, 7},
		"garbage-no-final-line":  {"\n\t\n12\t!AIVDM\n" + pos + "\nx\tx\n" + pos, 0},
	}
	// Ten groups open at once: the assembler holds eight, and evicts the
	// oldest two before their second fragments come.
	var open, closing []string
	for seq := 0; seq < 10; seq++ {
		g := staticLines(t, 219000010+uint32(seq), fmt.Sprintf("V%d", seq), seq, 1641038410)
		open, closing = append(open, g[0]), append(closing, g[1])
	}
	seeds["eviction"] = readAllSeed{lines(append(open, closing...)...), 99}
	// A two-line static straddles the end of the first chunk at every
	// offset of its bytes.
	group := lines(a[0], a[1])
	for k := 0; k <= len(group); k++ {
		seeds[fmt.Sprintf("static-across-chunk-end-%03d", k)] = readAllSeed{group + pos, uint8(k)}
	}
	return seeds
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated and current (go
// test ./internal/feed -run FuzzSeeds -update rewrites it).
func TestFuzzSeedsCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadAll")
	for name, seed := range readAllSeeds(t) {
		path := filepath.Join(dir, name)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbyte(%q)\n", seed.data, seed.size)
		if *updateSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Errorf("%s is missing or stale (run go test ./internal/feed -run FuzzSeeds -update)", path)
		}
	}
}

// TestReadAllLineTooLong: a line of maxLine bytes or more stops both
// drivers at the same line, with the records before it and the same error.
func TestReadAllLineTooLong(t *testing.T) {
	pos := positionLine(t, 219000001, 1641038400) + "\n"
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		for _, tail := range []string{"\n" + pos, ""} {
			data := pos + pos + strings.Repeat("x", n) + tail
			want := sequentialRead(strings.NewReader(data))
			if long := n >= maxLine; long != (fmt.Sprint(want.err) == "feed: scan: bufio.Scanner: token too long") || len(want.recs) < 2 {
				t.Fatalf("line of %d bytes: sequential read %d records, error %v", n, len(want.recs), want.err)
			}
			for _, size := range []int{chunkSize, 4096} {
				samePass(t, fmt.Sprintf("line of %d bytes, tail %q, size %d", n, tail, size), want, parallelRead(strings.NewReader(data), size))
			}
		}
	}
}

// TestReadAllSourceFails: a source failing after any number of bytes gives
// both drivers the same records, the same partial last line and the same
// error.
func TestReadAllSourceFails(t *testing.T) {
	data := interleavedArchive(t, true)
	boom := errors.New("disk gone")
	for n := 0; n <= len(data); n++ {
		src := func() io.Reader { return io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(boom)) }
		want := sequentialRead(src())
		if !errors.Is(want.err, boom) {
			t.Fatalf("failing after %d bytes: sequential error %v", n, want.err)
		}
		for _, size := range []int{chunkSize, 64} {
			samePass(t, fmt.Sprintf("failing after %d bytes, size %d", n, size), want, parallelRead(src(), size))
		}
	}
}

// stalled reads its bytes, then returns (0, nil) forever.
type stalled struct{ r io.Reader }

func (s stalled) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// TestReadAllNoProgress: a source that stops returning bytes without an
// error stops both drivers, with the same records and the same error, after
// a bounded number of empty reads instead of spinning.
func TestReadAllNoProgress(t *testing.T) {
	data := interleavedArchive(t, true)
	for _, n := range []int{0, len(data) / 3, len(data)} {
		want := sequentialRead(stalled{bytes.NewReader(data[:n])})
		if !errors.Is(want.err, io.ErrNoProgress) {
			t.Fatalf("stalled after %d bytes: sequential error %v", n, want.err)
		}
		for _, size := range []int{chunkSize, 64} {
			samePass(t, fmt.Sprintf("stalled after %d bytes, size %d", n, size), want, parallelRead(stalled{bytes.NewReader(data[:n])}, size))
		}
	}
}

// TestReadAllAfterNextItem: ReadAll refuses a Reader whose scanner already
// holds bytes of the source.
func TestReadAllAfterNextItem(t *testing.T) {
	r := NewReader(bytes.NewReader(interleavedArchive(t, true)))
	if _, err := r.NextItem(); err != nil {
		t.Fatal(err)
	}
	if recs, err := r.ReadAll(); !errors.Is(err, ErrReadAllAfterNextItem) || recs != nil {
		t.Fatalf("ReadAll after NextItem: %d records, error %v", len(recs), err)
	}
}
