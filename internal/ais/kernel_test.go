package ais

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Tests that hold the word-at-a-time kernel against the bit-at-a-time
// reference in reference_test.go.

// sameMessage renders a message with its payloads dereferenced, so two
// decodes compare by value (NaN prints as NaN on both sides).
func sameMessage(m Message) string {
	s := fmt.Sprintf("%d %+v", m.Type, m.Position)
	if m.Static != nil {
		s += fmt.Sprintf(" static %+v", *m.Static)
	}
	if m.BaseStation != nil {
		s += fmt.Sprintf(" base %+v", *m.BaseStation)
	}
	if m.StaticB != nil {
		s += fmt.Sprintf(" staticB %+v", *m.StaticB)
	}
	return s
}

// feedLine runs one NMEA line down the path both feed drivers take:
// ParseSentence, then FeedSentence. parsed reports whether the sentence
// parsed, ok whether it completed a supported message, which is then m.
func feedLine(d *Decoder, line []byte) (m Message, parsed, ok bool) {
	var s Sentence
	if ParseSentence(line, &s) != nil {
		return Message{}, false, false
	}
	ok = d.FeedSentence(&s, &m)
	return m, true, ok
}

// FuzzDecoderFeed feeds the lines of the input through ParseSentence and
// FeedSentence, as the feed drivers do, and to the reference: same ok,
// same message and the same five counters after every line (lines and bad
// sentences counted here, the rest by the Decoder), never a panic. Each
// line is read from a buffer that is overwritten as soon as the decode
// returns, as a bufio.Scanner's is.
func FuzzDecoderFeed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, ref := NewDecoder(), newRefDecoder()
		var buf []byte
		bad := 0
		for i, line := range bytes.Split(data, []byte{'\n'}) {
			buf = append(buf[:0], line...)
			got, parsed, ok := feedLine(d, buf)
			gotMsg := sameMessage(got)
			for j := range buf {
				buf[j] = '#'
			}
			if !parsed {
				bad++
			}
			want, wantOK := ref.Feed(string(line))
			if ok != wantOK || ok && gotMsg != sameMessage(want) {
				t.Fatalf("line %d %q: decoded (%v) %s, reference (%v) %s", i, line, ok, gotMsg, wantOK, sameMessage(want))
			}
			if i+1 != ref.Lines || bad != ref.BadSentence || d.BadPayload != ref.BadPayload ||
				d.Skipped != ref.Skipped || d.Decoded != ref.Decoded {
				t.Fatalf("line %d %q: counters %+v and %d bad sentences, reference %+v", i, line, d, bad, ref)
			}
		}
	})
}

// TestFuzzCorpusDecodes keeps the committed corpus meaningful: between
// them the seeds decode every supported message type and move every
// counter, so the differential above starts from both sides of each check.
func TestFuzzCorpusDecodes(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzDecoderFeed/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus: %v", err)
	}
	types := map[int]bool{}
	var total Decoder
	bad := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte corpus file", file)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")\n"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		d := NewDecoder()
		for _, line := range strings.Split(data, "\n") {
			m, parsed, ok := feedLine(d, []byte(line))
			if ok {
				types[m.Type] = true
			}
			if !parsed {
				bad++
			}
		}
		total.BadPayload += d.BadPayload
		total.Skipped += d.Skipped
		total.Decoded += d.Decoded
	}
	for _, typ := range []int{TypePositionA1, TypePositionA3, TypePositionB, TypeBaseStation, TypeStaticB, TypeStatic} {
		if !types[typ] {
			t.Errorf("no corpus line decodes to type %d", typ)
		}
	}
	if total.Decoded == 0 || bad == 0 || total.BadPayload == 0 || total.Skipped == 0 {
		t.Errorf("a counter the corpus never moves: %+v, %d bad sentences", total, bad)
	}
}

// randomBits returns the same random payload as a kernel buffer and a
// reference buffer, with garbage in the storage bits past n.
func randomBits(rng *rand.Rand, n int) (*bitBuf, *refBitBuf) {
	raw := make([]byte, (n+7)/8)
	rng.Read(raw)
	b := newBitBuf(n)
	copy(b.bits, raw)
	return b, &refBitBuf{bits: raw, n: n}
}

// TestBitFieldsMatchReference: over random buffers, every start and every
// width 1-32 — fields that straddle byte and word boundaries, fields that
// run past the end, fields wholly past it — uint, int and setUint equal
// the reference.
func TestBitFieldsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 6, 7, 8, 9, 63, 64, 65, 143, 168, 424} {
		for round := 0; round < 4; round++ {
			b, ref := randomBits(rng, n)
			for start := 0; start <= n+40; start++ {
				for width := 1; width <= 32; width++ {
					if got, want := b.uint(start, width), ref.uint(start, width); got != want {
						t.Fatalf("n=%d uint(%d,%d) = %#x, reference %#x", n, start, width, got, want)
					}
					if got, want := b.int(start, width), ref.int(start, width); got != want {
						t.Fatalf("n=%d int(%d,%d) = %d, reference %d", n, start, width, got, want)
					}
					if start+width > n {
						continue
					}
					v := rng.Uint64()
					b.setUint(start, width, v&(1<<width-1))
					ref.setUint(start, width, v&(1<<width-1))
					if !bytes.Equal(b.bits[:len(ref.bits)], ref.bits) {
						t.Fatalf("n=%d setUint(%d,%d,%#x): bytes %x, reference %x", n, start, width, v, b.bits[:len(ref.bits)], ref.bits)
					}
				}
			}
		}
	}
}

// TestArmorMatchesReference: armor and unarmor agree with the reference on
// every length and fill, and unarmor reuses its buffer across payloads of
// different lengths without carrying bits over.
func TestArmorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var reused bitBuf
	for n := 0; n <= 450; n++ {
		b, ref := randomBits(rng, n)
		payload, fill := b.armor()
		wantPayload, wantFill := ref.armor()
		if string(payload) != wantPayload || fill != wantFill {
			t.Fatalf("n=%d armor = %q/%d, reference %q/%d", n, payload, fill, wantPayload, wantFill)
		}
		// Random characters in the fill positions too, and every fill.
		for i := range payload {
			payload[i] = armorAlphabet[rng.Intn(64)]
		}
		for fill := 0; fill <= 5; fill++ {
			want, wantErr := refUnarmor(string(payload), fill)
			if err := reused.unarmor(payload, fill); err != wantErr {
				t.Fatalf("n=%d fill=%d: unarmor error %v, reference %v", n, fill, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if reused.Len() != want.Len() {
				t.Fatalf("n=%d fill=%d: %d bits, reference %d", n, fill, reused.Len(), want.Len())
			}
			for start := 0; start < want.Len()+12; start += 5 {
				if got, want := reused.uint(start, 30), want.uint(start, 30); got != want {
					t.Fatalf("n=%d fill=%d: uint(%d,30) = %#x, reference %#x", n, fill, start, got, want)
				}
			}
		}
	}
}

// TestSentenceCodecMatchesReference: FormatSentence writes the parent's
// bytes, and ParseSentence fills in the parent's fields or returns the
// parent's error, over well-formed sentences and one-byte mutations of them.
func TestSentenceCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 4000; i++ {
		payload := make([]byte, rng.Intn(62))
		for j := range payload {
			payload[j] = armorAlphabet[rng.Intn(64)]
		}
		s := Sentence{
			Talker: []string{"AIVDM", "AIVDO", "ABVDM"}[rng.Intn(3)], Total: 1 + rng.Intn(10), Number: 1 + rng.Intn(10),
			SeqID: rng.Intn(12) - 1, Channel: []string{"A", "B", "", "12"}[rng.Intn(4)], Payload: payload, FillBits: rng.Intn(7),
		}
		line := FormatSentence(s)
		if want := refFormatSentence(refSentence{s.Talker, s.Total, s.Number, s.SeqID, s.Channel, string(s.Payload), s.FillBits}); line != want {
			t.Fatalf("FormatSentence = %q, reference %q", line, want)
		}
		mutated := []byte(line)
		if i%2 == 1 {
			mutated[rng.Intn(len(mutated))] = "0123456789+-,*!AIVDMO \r_x"[rng.Intn(25)]
		}
		var got Sentence
		err := ParseSentence(mutated, &got)
		want, wantErr := refParseSentence(string(mutated))
		if err != wantErr {
			t.Fatalf("%q: error %v, reference %v", mutated, err, wantErr)
		}
		if err == nil && (got.Talker != want.Talker || got.Total != want.Total || got.Number != want.Number || got.SeqID != want.SeqID ||
			got.Channel != want.Channel || string(got.Payload) != want.Payload || got.FillBits != want.FillBits) {
			t.Fatalf("%q: parsed %+v, reference %+v", mutated, got, want)
		}
	}
}
