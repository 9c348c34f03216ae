package ais

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestDecoderNeverPanicsOnGarbage streams random byte salad, mutated real
// sentences and truncations through the decoder: everything must be
// rejected gracefully, never panic.
func TestDecoderNeverPanicsOnGarbage(t *testing.T) {
	d := NewDecoder()
	bad := 0
	rng := rand.New(rand.NewSource(99))
	real := "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C"
	for i := 0; i < 5000; i++ {
		var line string
		switch i % 4 {
		case 0: // pure noise
			b := make([]byte, rng.Intn(80))
			rng.Read(b)
			line = string(b)
		case 1: // mutated real sentence
			b := []byte(real)
			for j := 0; j < 1+rng.Intn(4); j++ {
				b[rng.Intn(len(b))] = byte(rng.Intn(256))
			}
			line = string(b)
		case 2: // truncated real sentence
			line = real[:rng.Intn(len(real))]
		default: // random printable AIVDM-ish frame
			payload := make([]byte, rng.Intn(30))
			for j := range payload {
				payload[j] = byte(48 + rng.Intn(72))
			}
			line = "!AIVDM,1,1,,A," + string(payload) + ",0*00"
		}
		if _, parsed, _ := feedLine(d, []byte(line)); !parsed { // must not panic
			bad++
		}
	}
	if bad == 0 || d.Decoded == 5000 {
		t.Errorf("garbage went through: %d bad sentences, %+v", bad, d)
	}
}

// TestUnarmorFuzz checks the armoring decoder against arbitrary payload
// strings and fill bits.
func TestUnarmorFuzz(t *testing.T) {
	f := func(payload string, fill uint8) bool {
		// Must not panic; errors are fine.
		var b bitBuf
		if err := b.unarmor([]byte(payload), int(fill%8)); err != nil {
			return true
		}
		return b.Len() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodePayloadFuzz drives the message decoders with random legal
// armored payloads of assorted lengths.
func TestDecodePayloadFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := "0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVW`abcdefghijklmnopqrstuvw"
	var d Decoder
	var m Message
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(90)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		// Must never panic regardless of decoded type and field garbage.
		d.decodePayload([]byte(sb.String()), rng.Intn(6), &m)
	}
}
