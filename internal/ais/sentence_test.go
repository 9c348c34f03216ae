package ais

import (
	"reflect"
	"strings"
	"testing"
)

// parse is ParseSentence into a fresh Sentence.
func parse(line string) (Sentence, error) {
	var s Sentence
	err := ParseSentence([]byte(line), &s)
	return s, err
}

func TestFormatParseRoundTrip(t *testing.T) {
	s := Sentence{
		Talker: "AIVDM", Total: 1, Number: 1, SeqID: -1,
		Channel: "A", Payload: []byte("15M67FC000G?ufbE`FepT@3n00Sa"), FillBits: 0,
	}
	line := FormatSentence(s)
	if !strings.HasPrefix(line, "!AIVDM,1,1,,A,") {
		t.Errorf("wire form %q", line)
	}
	got, err := parse(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip: %+v vs %+v", got, s)
	}
}

func TestParseKnownRealSentence(t *testing.T) {
	// A canonical AIVDM example (type 1 position report).
	line := "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C"
	s, err := parse(line)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.Channel != "B" || s.Total != 1 || s.FillBits != 0 {
		t.Errorf("fields: %+v", s)
	}
	var b bitBuf
	if err := b.unarmor(s.Payload, s.FillBits); err != nil {
		t.Fatal(err)
	}
	var p PositionReport
	if err := decodePosition(&b, &p); err != nil {
		t.Fatal(err)
	}
	if p.Type != 1 {
		t.Errorf("type %d, want 1", p.Type)
	}
	if p.MMSI != 477553000 {
		t.Errorf("MMSI %d, want 477553000", p.MMSI)
	}
	if p.Status != StatusMoored {
		t.Errorf("status %v, want moored", p.Status)
	}
	// Known decode: lat 47.58283°N, lon -122.34583°E, SOG 0.
	if p.Lat < 47.5 || p.Lat > 47.7 {
		t.Errorf("lat %v", p.Lat)
	}
	if p.Lon > -122.2 || p.Lon < -122.5 {
		t.Errorf("lon %v", p.Lon)
	}
	if p.SOG != 0 {
		t.Errorf("SOG %v, want 0", p.SOG)
	}
}

func TestParseRejectsBadChecksum(t *testing.T) {
	line := "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5D"
	if _, err := parse(line); err != ErrBadChecksum {
		t.Errorf("got %v, want ErrBadChecksum", err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"AIVDM,1,1,,B,xx,0*00",  // no '!'
		"!AIVDM,1,1,,B,xx,0",    // no checksum
		"!AIVDM,1,1,B,xx,0*23",  // too few fields
		"!AIVDM,0,1,,B,xx,0*5B", // total 0
		"!AIVDM,1,2,,B,xx,0*58", // number > total
		"!AIVDM,1,1,,B,xx,7*5C", // fill bits 7
		"!XXVDM,1,1,,B,xx,0*42", // wrong talker
		"!AIVDM,1,1,,B,xx,0*GZ", // bad checksum hex
	}
	for _, line := range bad {
		if _, err := parse(line); err == nil {
			t.Errorf("%q must not parse", line)
		}
	}
}

func TestParseToleratesWhitespace(t *testing.T) {
	line := "  !AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C\r\n"
	if _, err := parse(line); err != nil {
		t.Errorf("whitespace-padded line must parse: %v", err)
	}
}

func TestAssemblerSingleSentence(t *testing.T) {
	a := NewAssembler(4)
	payload, fill, done := a.Push(&Sentence{Total: 1, Number: 1, Payload: []byte("ABC"), FillBits: 2})
	if !done || string(payload) != "ABC" || fill != 2 {
		t.Error("single sentence must complete immediately")
	}
}

func TestAssemblerTwoParts(t *testing.T) {
	a := NewAssembler(4)
	_, _, done := a.Push(&Sentence{Total: 2, Number: 1, SeqID: 3, Payload: []byte("AAA")})
	if done {
		t.Fatal("first fragment must not complete")
	}
	payload, fill, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 3, Payload: []byte("BBB"), FillBits: 2})
	if !done || string(payload) != "AAABBB" || fill != 2 {
		t.Fatalf("got %q/%d/%v", payload, fill, done)
	}
}

func TestAssemblerInterleavedGroups(t *testing.T) {
	a := NewAssembler(4)
	a.Push(&Sentence{Total: 2, Number: 1, SeqID: 1, Payload: []byte("A1")})
	a.Push(&Sentence{Total: 2, Number: 1, SeqID: 2, Payload: []byte("B1")})
	p, _, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 2, Payload: []byte("B2")})
	if !done || string(p) != "B1B2" {
		t.Errorf("group 2: %q/%v", p, done)
	}
	p, _, done = a.Push(&Sentence{Total: 2, Number: 2, SeqID: 1, Payload: []byte("A2")})
	if !done || string(p) != "A1A2" {
		t.Errorf("group 1: %q/%v", p, done)
	}
}

func TestAssemblerDropsOutOfOrder(t *testing.T) {
	a := NewAssembler(4)
	// Fragment 2 with no fragment 1 → dropped.
	_, _, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 5, Payload: []byte("X")})
	if done {
		t.Error("orphan fragment must not complete")
	}
	// A fresh group under the same seq id must work.
	a.Push(&Sentence{Total: 2, Number: 1, SeqID: 5, Payload: []byte("Y1")})
	p, _, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 5, Payload: []byte("Y2")})
	if !done || string(p) != "Y1Y2" {
		t.Error("fresh group after drop must complete")
	}
}

func TestAssemblerRestartReplacesStale(t *testing.T) {
	a := NewAssembler(4)
	a.Push(&Sentence{Total: 3, Number: 1, SeqID: 7, Payload: []byte("OLD")})
	// Restart with a 2-part group under the same id.
	a.Push(&Sentence{Total: 2, Number: 1, SeqID: 7, Payload: []byte("N1")})
	p, _, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 7, Payload: []byte("N2")})
	if !done || string(p) != "N1N2" {
		t.Errorf("restart: %q/%v", p, done)
	}
}

func TestAssemblerEvictsBeyondCapacity(t *testing.T) {
	a := NewAssembler(2)
	a.Push(&Sentence{Total: 2, Number: 1, SeqID: 0, Payload: []byte("G0")})
	a.Push(&Sentence{Total: 2, Number: 1, SeqID: 1, Payload: []byte("G1")})
	a.Push(&Sentence{Total: 2, Number: 1, SeqID: 2, Payload: []byte("G2")}) // evicts G0
	_, _, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 0, Payload: []byte("G0B")})
	if done {
		t.Error("evicted group must not complete")
	}
	p, _, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 2, Payload: []byte("G2B")})
	if !done || string(p) != "G2G2B" {
		t.Error("retained group must complete")
	}
}

// TestAssemblerReusesCompletedID: an id whose group completed is free
// again and must not count against the groups opened after it. Receivers
// cycle through ids 0-9, so a merged feed reuses them constantly.
func TestAssemblerReusesCompletedID(t *testing.T) {
	a := NewAssembler(8)
	a.Push(&Sentence{Total: 2, Number: 1, SeqID: 3, Payload: []byte("OLD")})
	if _, _, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 3, Payload: []byte("X")}); !done {
		t.Fatal("first group 3 must complete")
	}
	for _, id := range []int{3, 4, 5, 6, 7, 8, 9, 0} { // 8 pending: at capacity, not over
		a.Push(&Sentence{Total: 2, Number: 1, SeqID: id, Payload: []byte{'A' + byte(id)}})
	}
	p, _, done := a.Push(&Sentence{Total: 2, Number: 2, SeqID: 3, Payload: []byte("Z")})
	if !done || string(p) != "DZ" {
		t.Errorf("group 3, the oldest of 8 live groups, was evicted by its own stale id: %q %v", p, done)
	}
}

func TestEncodeSentencesSplitsLongPayloads(t *testing.T) {
	b := newBitBuf(staticBits) // 424 bits → 71 chars → 2 sentences
	lines := EncodeSentences(b, "A", 4)
	if len(lines) != 2 {
		t.Fatalf("want 2 sentences, got %d", len(lines))
	}
	for i, line := range lines {
		s, err := parse(line)
		if err != nil {
			t.Fatalf("sentence %d: %v", i, err)
		}
		if s.Total != 2 || s.Number != i+1 || s.SeqID != 4 {
			t.Errorf("sentence %d: %+v", i, s)
		}
	}
}

func BenchmarkParseSentence(b *testing.B) {
	line := []byte("!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C")
	var s Sentence
	for i := 0; i < b.N; i++ {
		if err := ParseSentence(line, &s); err != nil {
			b.Fatal(err)
		}
	}
}
