package deflate

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// roundTrip holds a Deflate stream to both decoders and to its size
// bound: Inflate and compress/flate's reader give raw back, the reader
// ends the stream on its last byte, and the stream is at most
// len + len/1000 + 10 bytes.
func roundTrip(t testing.TB, raw, out []byte) {
	t.Helper()
	if limit := len(raw) + len(raw)/1000 + 10; len(out) > limit {
		t.Fatalf("%d bytes deflate to %d, over the %d the stored fallback allows", len(raw), len(out), limit)
	}
	got := make([]byte, len(raw))
	if err := Inflate(got, out); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("%d bytes: Inflate does not give them back (%v)", len(raw), err)
	}
	br := bytes.NewReader(out)
	if got, err := io.ReadAll(flate.NewReader(br)); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("%d bytes: compress/flate does not give them back (%v)", len(raw), err)
	}
	if br.Len() != 0 {
		t.Fatalf("%d bytes: %d bytes follow the final block", len(raw), br.Len())
	}
}

func random(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// repeatAt is 64 random bytes, random filler, and the 64 bytes again at
// distance d: its only repeat.
func repeatAt(d int) []byte {
	b := random(d+64, int64(d))
	copy(b[d:], b[:64])
	return b
}

func TestDeflateEdges(t *testing.T) {
	run := func(n int, c byte) []byte {
		return append(append([]byte("ab"), bytes.Repeat([]byte{c}, n)...), "ab"...)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"empty", nil},
		{"one byte", []byte{'x'}},
		{"run of 257", run(257, 'z')},
		{"run of 258", run(258, 'z')},
		{"run of 259", run(259, 'z')},
		{"repeat at distance 32768", repeatAt(32768)},
		{"repeat at distance 32769", repeatAt(32769)},
		{"past the block split", sample(300 << 10)},
	} {
		out := Deflate(nil, tc.raw)
		roundTrip(t, tc.raw, out)
		if single := len(tc.raw) < blockTokens; single != (out[0]&1 == 1) {
			t.Errorf("%s: the first block's BFINAL is %d", tc.name, out[0]&1)
		}
	}

	// The repeat at the window's edge is a match, the one past it is not.
	if near, far := len(Deflate(nil, repeatAt(32768))), len(Deflate(nil, repeatAt(32769))); near+50 > far {
		t.Errorf("repeats at distance 32768 and 32769 deflate to %d and %d bytes: the first is not a match", near, far)
	}

	// 1 MiB of zeros: the ratio ParseIndex and the shuffle hold a claimed
	// length to.
	zeros := make([]byte, 1<<20)
	out := Deflate(nil, zeros)
	roundTrip(t, zeros, out)
	if len(zeros) > MaxRatio*len(out) {
		t.Errorf("1 MiB of zeros deflates to %d bytes, past MaxRatio", len(out))
	}

	// 200 KB of noise: stored blocks of at most 65 535 bytes, the last one
	// final.
	noise := random(200_000, 1)
	out = Deflate(nil, noise)
	roundTrip(t, noise, out)
	blocks := 0
	for i, final := 0, false; !final; blocks++ {
		if i+5 > len(out) || out[i]&6 != 0 {
			t.Fatalf("block %d at byte %d is not stored", blocks, i)
		}
		final = out[i]&1 == 1
		i += 5 + int(binary.LittleEndian.Uint16(out[i+1:]))
		if final != (i == len(out)) {
			t.Fatalf("block %d: final %v, ends at %d of %d bytes", blocks, final, i, len(out))
		}
	}
	if blocks < 2 {
		t.Errorf("200 KB of noise in %d stored block", blocks)
	}
}

// deflateSeeds: text, noise, a long run, nothing, and a block split:
// almost a block of literals (printable, so the seed file stays small),
// then long, far repeats, each ended by a byte the literals never use, so
// the split falls among them. At this length the block after it opens
// with a repeat, the pending lazy match.
func deflateSeeds() [][]byte {
	split := random(blockTokens-63, 3)
	for i, c := range split {
		split[i] = '0' + c&63
	}
	for i := range 64 {
		off := i * 211 % 4000
		split = append(append(split, split[off:off+227+i%31]...), '!')
	}
	return [][]byte{sample(2000)[:700], random(300, 2), bytes.Repeat([]byte{7}, 600), {}, split}
}

// FuzzDeflate holds Deflate to both decoders and to its size bound (see
// roundTrip), and its output to its input alone: encoding another input
// — the same bytes rotated, so the hash chains the pool keeps point at
// look-alike data — and then the first again gives the same stream.
func FuzzDeflate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		out := Deflate(nil, data)
		roundTrip(t, data, out)
		h := len(data) / 2
		Deflate(nil, append(append([]byte{}, data[h:]...), data[:h]...))
		if again := Deflate(nil, data); !bytes.Equal(again, out) {
			t.Fatalf("%d bytes deflate differently after another input", len(data))
		}
	})
}

// TestBlockStartsWithFarMatch writes streams whose third block opens with
// a long, far match — the lazy match pending at the second split — right
// after a dynamic header of any length. That first token carries the most
// bits a token can (a length of 227–257, a distance past 16 384, each with
// a rare and so long code) on top of what the header left in the bit
// buffer. The tail is skewed literals and short repeats at many distances,
// so the block is dynamic and its codes are long.
func TestBlockStartsWithFarMatch(t *testing.T) {
	for seed := range 256 {
		// 2·blockTokens bytes of noise are two blocks of literals.
		raw := random(2*blockTokens, int64(seed))
		l, d := 227+seed%31, 16385+seed*523%16000
		raw = append(raw, raw[len(raw)-d:][:l]...)
		raw = append(raw, ^raw[len(raw)-d])
		rng := rand.New(rand.NewSource(int64(seed)))
		for end := len(raw) + 8000 + seed*97%8000; len(raw) < end; {
			if rng.Intn(6) == 0 {
				d := 1 + int(rng.ExpFloat64()*300)%8000
				raw = append(raw, raw[len(raw)-d:][:5]...)
			} else {
				raw = append(raw, byte(rng.ExpFloat64()*12))
			}
		}
		roundTrip(t, raw, Deflate(nil, raw))
	}
}
