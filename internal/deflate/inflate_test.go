package deflate

import (
	"bytes"
	"compress/flate"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// ref is compress/flate's reader under InflatePrefix's whole-stream
// contract — exactly
// len(dst) bytes, then the end of the stream — the oracle the kernel is
// held to.
func ref(dst, src []byte) error {
	fr := flate.NewReader(bytes.NewReader(src))
	if _, err := io.ReadFull(fr, dst); err != nil {
		return err
	}
	if n, err := fr.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		return fmt.Errorf("stream continues past %d bytes", len(dst))
	}
	return nil
}

// refLen is how many bytes compress/flate yields from src before the
// stream ends or fails, up to limit.
func refLen(src []byte, limit int) int {
	n, _ := io.Copy(io.Discard, io.LimitReader(flate.NewReader(bytes.NewReader(src)), int64(limit)))
	return int(n)
}

// same holds InflatePrefix, with no need, to ref on src at length n and reports whether both
// accepted.
func same(t *testing.T, src []byte, n int) bool {
	t.Helper()
	want, got := make([]byte, n), make([]byte, n)
	_, gerr := InflatePrefix(got, src, nil)
	werr := ref(want, src)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%d-byte stream into %d bytes: compress/flate says %v, InflatePrefix %v", len(src), n, werr, gerr)
	}
	if werr == nil && !bytes.Equal(want, got) {
		t.Fatalf("%d-byte stream into %d bytes: output differs from compress/flate's", len(src), n)
	}
	return gerr == nil
}

// flateAt compresses raw at level, flushing halfway so the stream has
// more than one block and an empty stored one between them. Writers are
// kept per level: a new one costs more than a fuzz input.
func flateAt(t testing.TB, raw []byte, level int) []byte {
	var buf bytes.Buffer
	w := writers[level+2]
	if w == nil {
		var err error
		if w, err = flate.NewWriter(&buf, level); err != nil {
			t.Fatal(err)
		}
		writers[level+2] = w
	}
	w.Reset(&buf)
	w.Write(raw[:len(raw)/2])
	w.Flush()
	w.Write(raw[len(raw)/2:])
	w.Close()
	return buf.Bytes()
}

var writers [12]*flate.Writer // levels −2…9

// sample is text-like with long repeats, then noise: every block type
// and match distance up to the window's.
func sample(n int) []byte {
	rng := rand.New(rand.NewSource(1))
	b := make([]byte, 0, n)
	for len(b) < n/2 {
		b = fmt.Appendf(b, "cell %d vessel %d speed %.1f; ", rng.Intn(50), rng.Intn(9), rng.Float64()*20)
	}
	for len(b) < n {
		b = append(b, byte(rng.Intn(256)))
	}
	return b
}

func TestMatchesFlateAtEveryLevel(t *testing.T) {
	for _, n := range []int{0, 1, 300, 100 << 10} {
		raw := sample(n)
		for level := -2; level <= 9; level++ {
			src := flateAt(t, raw, level)
			if !same(t, src, n) || n > 0 && same(t, src, n-1) || same(t, src, n+1) {
				t.Fatalf("level %d, %d bytes: the exact length must be the only one accepted", level, n)
			}
		}
	}
}

// TestTornAndFlipped: every truncation and every single-bit flip of a
// small stream of each block type.
func TestTornAndFlipped(t *testing.T) {
	raw := sample(600)
	for _, level := range []int{flate.NoCompression, flate.HuffmanOnly, flate.BestSpeed, flate.BestCompression} {
		src := flateAt(t, raw, level)
		for i := range src {
			same(t, src[:i], len(raw))
			same(t, src[:i], refLen(src[:i], 1<<16))
		}
		for bit := range 8 * len(src) {
			src[bit/8] ^= 1 << (bit % 8)
			same(t, src, len(raw))
			same(t, src, refLen(src, 1<<16))
			src[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// handWriter writes a stream by hand, for the codes compress/flate's
// writer never emits.
type handWriter struct {
	b []byte
	n uint
}

func (w *handWriter) put(v uint32, n uint) *handWriter { // low bit first
	for i := range n {
		if w.n%8 == 0 {
			w.b = append(w.b, 0)
		}
		w.b[len(w.b)-1] |= byte(v>>i&1) << (w.n % 8)
		w.n++
	}
	return w
}

func (w *handWriter) code(c []uint32, l []uint8, sym int) *handWriter { // Huffman codes go high bit first
	return w.put(bits.Reverse32(c[sym])>>(32-l[sym]), uint(l[sym]))
}

// refCanonical returns the canonical code of each symbol for lengths.
func refCanonical(lengths []uint8) []uint32 {
	var count, next [16]uint32
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	c := make([]uint32, len(lengths))
	for s, l := range lengths {
		if l != 0 {
			c[s], next[l] = next[l], next[l]+1
		}
	}
	return c
}

// dynamic starts a final dynamic block with the given literal/length and
// distance code lengths, sent through a 4-bit code for lengths 0–15.
func dynamic(lit, dist []uint8) *handWriter {
	w := new(handWriter).put(1, 1).put(2, 2).put(uint32(len(lit)-257), 5).put(uint32(len(dist)-1), 5).put(15, 4)
	for _, s := range clOrder {
		w.put(uint32(4*(1-s/16)), 3) // 4 for 0–15, none for the repeat codes
	}
	for _, l := range append(append([]uint8{}, lit...), dist...) {
		w.put(uint32(bits.Reverse8(l)>>4), 4)
	}
	return w
}

func TestHandBuiltCodes(t *testing.T) {
	lens := func(n int, set map[int]uint8) []uint8 {
		l := make([]uint8, n)
		for s, v := range set {
			l[s] = v
		}
		return l
	}
	// 'a' and end of block one bit each; length 257 (3 bytes) beside them.
	litAB := lens(257, map[int]uint8{'a': 1, 256: 1})
	lit3 := lens(258, map[int]uint8{'a': 1, 256: 2, 257: 2})
	one := lens(1, map[int]uint8{0: 1}) // a single one-bit distance code
	none := lens(1, nil)                // no distance code at all
	for _, tc := range []struct {
		name string
		w    *handWriter
		n    int
		ok   bool
	}{
		{"one-bit codes", dynamic(litAB, one).code(refCanonical(litAB), litAB, 'a').code(refCanonical(litAB), litAB, 256), 1, true},
		{"empty distance tree, literals only", dynamic(lit3, none).code(refCanonical(lit3), lit3, 'a').code(refCanonical(lit3), lit3, 256), 1, true},
		{"empty distance tree used", dynamic(lit3, none).code(refCanonical(lit3), lit3, 'a').code(refCanonical(lit3), lit3, 257), 4, false},
		{"one distance code", dynamic(lit3, one).code(refCanonical(lit3), lit3, 'a').code(refCanonical(lit3), lit3, 257).put(0, 1).code(refCanonical(lit3), lit3, 256), 4, true},
		{"the unused half of a one-bit code", dynamic(lit3, one).code(refCanonical(lit3), lit3, 'a').code(refCanonical(lit3), lit3, 257).put(1, 1), 4, false},
		{"distance past the output", dynamic(lit3, one).code(refCanonical(lit3), lit3, 257).put(0, 1), 3, false},
		{"end of block alone", dynamic(lens(257, map[int]uint8{256: 1}), none).put(0, 1), 0, true},
		{"over-subscribed", dynamic(lens(257, map[int]uint8{'a': 1, 'b': 1, 256: 1}), none), 0, false},
		{"incomplete", dynamic(lens(257, map[int]uint8{'a': 1, 256: 2}), none), 0, false},
		{"a single two-bit code", dynamic(lens(257, map[int]uint8{256: 2}), none).put(0, 2), 0, false},
		{"fixed length 286", new(handWriter).put(3, 3).put(bits.Reverse32(0xc6)>>24, 8), 0, false},
		{"fixed distance 30", new(handWriter).put(3, 3).put(bits.Reverse32(0x30+'a')>>24, 8).put(bits.Reverse32(1)>>25, 7).put(bits.Reverse32(30)>>27, 5), 4, false},
		{"fixed distance 0", new(handWriter).put(3, 3).put(bits.Reverse32(0x30+'a')>>24, 8).put(bits.Reverse32(1)>>25, 7).put(0, 5).put(0, 7), 4, true},
		{"stored NLEN mismatch", new(handWriter).put(1, 3).put(0, 5).put(1, 16).put(0xfffe^1, 16).put('a', 8), 1, false},
		{"stored", new(handWriter).put(1, 3).put(0, 5).put(1, 16).put(0xfffe, 16).put('a', 8), 1, true},
		{"reserved block type", new(handWriter).put(7, 3).put(0, 16), 0, false},
	} {
		if got := same(t, tc.w.b, tc.n); got != tc.ok {
			t.Errorf("%s: accepted %v, want %v", tc.name, got, tc.ok)
		}
	}
}

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

// fuzzSeeds: content for the deflate half (level byte first) and streams
// for the other — each block type, a multi-block stream, a torn one.
func fuzzSeeds(t testing.TB) [][]byte {
	raw := sample(2000)
	text := append([]byte{byte(6 + 2)}, raw[:700]...)
	return [][]byte{
		text,
		append([]byte{byte(0 + 2)}, raw[1200:1500]...),
		flateAt(t, raw[:900], flate.BestCompression),
		flateAt(t, raw, flate.HuffmanOnly),
		flateAt(t, raw[:300], flate.NoCompression),
		flateAt(t, raw[:900], flate.BestSpeed)[:200],
	}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated and current (go
// test ./internal/deflate -run FuzzSeeds -update rewrites it).
func TestFuzzSeedsCommitted(t *testing.T) {
	for target, seeds := range map[string][][]byte{"FuzzInflate": fuzzSeeds(t), "FuzzDeflate": deflateSeeds()} {
		dir := filepath.Join("testdata", "fuzz", target)
		for i, seed := range seeds {
			path, want := filepath.Join(dir, fmt.Sprintf("seed-%d", i)), fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if *updateSeeds {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Errorf("%s is missing or stale (run go test ./internal/deflate -run FuzzSeeds -update)", path)
			}
		}
	}
}

// samePrefix holds InflatePrefix on src, into n bytes, to compress/flate:
// stopped at need, then asked once more, for again. Where
// compress/flate accepts the stream at n, the prefix must be accepted,
// reach the need it was last given and be flate's bytes; wherever it is
// accepted, its bytes must be those flate yields as far as flate goes.
func samePrefix(t *testing.T, src []byte, n, need, again int) {
	t.Helper()
	want, got := make([]byte, n), make([]byte, n)
	werr := ref(want, src)
	asked := 0
	m, err := InflatePrefix(got, src, func(pre []byte) int {
		if asked++; !bytes.Equal(pre, got[:len(pre)]) {
			t.Fatalf("need was given bytes other than dst's")
		}
		return [...]int{need, again, 0, 0}[min(asked-1, 2)]
	})
	last := need
	if asked > 1 {
		last = max(need, again)
	}
	switch {
	case werr == nil && (err != nil || m < min(last, n) || m > n || !bytes.Equal(got[:m], want[:m])):
		t.Fatalf("%d-byte stream into %d bytes, need %d then %d: %d bytes, %v; compress/flate accepts it", len(src), n, need, again, m, err)
	case err == nil:
		yielded, _ := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(src)), int64(m)))
		if !bytes.Equal(got[:len(yielded)], yielded) {
			t.Fatalf("%d-byte stream, need %d then %d: the prefix differs from compress/flate's bytes", len(src), need, again)
		}
	}
}

// FuzzInflate holds InflatePrefix to compress/flate: the input read as a stream,
// and deflated at level input[0]%12-2 (−2…9, stored blocks at 0); each at
// the length compress/flate yields, one byte shorter and one longer. The
// two must accept the same inputs with the same bytes, and InflatePrefix
// must not panic. Each stream is also stopped early (samePrefix), at a need
// and a further one that the input's last two bytes pick.
func FuzzInflate(f *testing.F) {
	const limit = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		tryAll := func(src []byte, n int) {
			for _, m := range []int{n, n - 1, n + 1} {
				if m >= 0 {
					same(t, src, m)
				}
			}
			if len(data) >= 2 {
				need := n * int(data[len(data)-1]) / 255
				samePrefix(t, src, n, need, need+(n-need)*int(data[len(data)-2])/255)
			}
		}
		tryAll(data, refLen(data, limit))
		if len(data) > 0 {
			tryAll(flateAt(t, data[1:], int(data[0])%12-2), len(data)-1)
		}
	})
}

// TestPrefixAtEveryCut: every need and further need on a stream of each
// block type, as FuzzInflate tries one.
func TestPrefixAtEveryCut(t *testing.T) {
	raw := sample(600)
	for _, level := range []int{flate.NoCompression, flate.HuffmanOnly, flate.BestSpeed, flate.BestCompression} {
		src := flateAt(t, raw, level)
		for need := 0; need <= len(raw)+1; need += 7 {
			samePrefix(t, src, len(raw), need, need+41)
			samePrefix(t, src[:len(src)/2], len(raw), need, need)
		}
	}
}
