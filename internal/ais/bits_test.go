package ais

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitBufSetGetUint(t *testing.T) {
	b := newBitBuf(64)
	b.setUint(0, 6, 1)
	b.setUint(8, 30, 227006560)
	b.setUint(50, 10, 1023)
	if got := b.uint(0, 6); got != 1 {
		t.Errorf("type field = %d, want 1", got)
	}
	if got := b.uint(8, 30); got != 227006560 {
		t.Errorf("MMSI field = %d, want 227006560", got)
	}
	if got := b.uint(50, 10); got != 1023 {
		t.Errorf("SOG field = %d, want 1023", got)
	}
	// Neighbouring bits must be untouched.
	if got := b.uint(6, 2); got != 0 {
		t.Errorf("repeat field = %d, want 0", got)
	}
	if got := b.uint(38, 12); got != 0 {
		t.Errorf("bits 38-49 = %d, want 0", got)
	}
}

func TestBitBufOverwrite(t *testing.T) {
	b := newBitBuf(32)
	b.setUint(4, 8, 0xFF)
	b.setUint(4, 8, 0x0A)
	if got := b.uint(4, 8); got != 0x0A {
		t.Errorf("overwrite: got %#x, want 0x0A", got)
	}
	if got := b.uint(0, 4); got != 0 {
		t.Error("overwrite must clear old 1-bits only within the field")
	}
}

func TestBitBufSignedRoundTrip(t *testing.T) {
	cases := []struct {
		width int
		v     int64
	}{
		{28, 0}, {28, 1}, {28, -1},
		{28, 108600000},  // lon 181° in 1/10000 min
		{28, -108000000}, // lon -180°
		{27, 54600000},   // lat 91°
		{27, -54000000},
		{8, 127}, {8, -128},
	}
	for _, c := range cases {
		b := newBitBuf(64)
		b.setInt(3, c.width, c.v)
		if got := b.int(3, c.width); got != c.v {
			t.Errorf("width %d: wrote %d, read %d", c.width, c.v, got)
		}
	}
}

func TestBitBufRandomRoundTrip(t *testing.T) {
	f := func(start, width uint8, v uint64) bool {
		s := int(start) % 100
		w := int(width)%57 + 1 // 1..57
		b := newBitBuf(s + w + 8)
		want := v & (1<<w - 1)
		b.setUint(s, w, want)
		return b.uint(s, w) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBitBufReadPastEnd(t *testing.T) {
	b := newBitBuf(10)
	b.setUint(0, 10, 1023)
	// Reading 16 bits from offset 0 pads with zeros.
	if got := b.uint(0, 16); got != 1023<<6 {
		t.Errorf("read past end = %d, want %d", got, 1023<<6)
	}
}

func TestSixBitTextRoundTrip(t *testing.T) {
	names := []string{
		"EVER GIVEN", "MAERSK ALABAMA", "A", "", "SHIP 123", "X?!",
		"TWENTYCHARACTERNAME!",
	}
	for _, name := range names {
		b := newBitBuf(160)
		b.setText(0, 20, name)
		if got := b.text(0, 20); got != name {
			t.Errorf("text round trip: wrote %q, read %q", name, got)
		}
	}
}

func TestSixBitTextLowercaseFolds(t *testing.T) {
	b := newBitBuf(160)
	b.setText(0, 20, "rotterdam")
	if got := b.text(0, 20); got != "ROTTERDAM" {
		t.Errorf("lowercase must fold to uppercase: %q", got)
	}
}

func TestSixBitTextTruncatesAndPads(t *testing.T) {
	b := newBitBuf(42)
	b.setText(0, 7, "CALLSIGN9") // truncated to 7
	if got := b.text(0, 7); got != "CALLSIG" {
		t.Errorf("truncation: %q", got)
	}
	b2 := newBitBuf(42)
	b2.setText(0, 7, "AB")
	if got := b2.text(0, 7); got != "AB" {
		t.Errorf("padding must trim: %q", got)
	}
}

func TestSixBitTextInvalidCharsBecomePadding(t *testing.T) {
	b := newBitBuf(120)
	b.setText(0, 20, "AB\x01CD") // control char → '@' terminates on read
	if got := b.text(0, 20); got != "AB" {
		t.Errorf("invalid char handling: %q", got)
	}
}

func TestArmorUnarmorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, nBits := range []int{6, 8, 60, 167, 168, 424} {
		b := newBitBuf(nBits)
		for i := 0; i < nBits; i++ {
			if rng.Intn(2) == 1 {
				b.setUint(i, 1, 1)
			}
		}
		payload, fill := b.armor()
		var got bitBuf
		err := got.unarmor(payload, fill)
		if err != nil {
			t.Fatalf("nBits=%d: %v", nBits, err)
		}
		if got.Len() != nBits {
			t.Fatalf("nBits=%d: round trip length %d", nBits, got.Len())
		}
		for i := 0; i < nBits; i++ {
			if got.uint(i, 1) != b.uint(i, 1) {
				t.Fatalf("nBits=%d: bit %d differs", nBits, i)
			}
		}
	}
}

func TestArmorAlphabet(t *testing.T) {
	// All armored characters must be in the legal AIS payload alphabet.
	b := newBitBuf(168)
	for i := 0; i < 168; i += 2 {
		b.setUint(i, 1, 1)
	}
	payload, _ := b.armor()
	for i := 0; i < len(payload); i++ {
		c := payload[i]
		legal := (c >= 48 && c <= 87) || (c >= 96 && c <= 119)
		if !legal {
			t.Errorf("illegal payload char %q", c)
		}
	}
}

func TestUnarmorRejectsBadInput(t *testing.T) {
	if err := new(bitBuf).unarmor([]byte("abc"), 6); err == nil {
		t.Error("fill bits 6 must fail")
	}
	if err := new(bitBuf).unarmor([]byte("ab~"), 0); err == nil {
		t.Error("illegal character must fail")
	}
	if err := new(bitBuf).unarmor([]byte("\x00"), 0); err == nil {
		t.Error("control character must fail")
	}
}
