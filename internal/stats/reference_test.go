package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The fixed-width codec of format version 1 — the helper pairs and every
// sketch encoder as they stood at commit 8fbacfc, moved here verbatim and
// renamed ref*/Ref* — kept as the reference the dense codec is held
// against: a sketch decoded from its new bytes must re-encode, through
// these, to the bytes these give the original. Nothing outside tests can
// write or read this form any more. differential_test.go (package
// stats_test, which may import the inventory) runs the same comparison over
// whole fixtures.

func refAppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func refAppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func refAppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func refReadU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrCorrupt
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

func refReadU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrCorrupt
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

func refReadF64(b []byte) (float64, []byte, error) {
	v, rest, err := refReadU64(b)
	if err != nil {
		return 0, nil, err
	}
	return math.Float64frombits(v), rest, nil
}

// Occupied returns the number of non-zero registers: what version 1 chose
// its layout by, and what the tests count.
func (h *HyperLogLog) Occupied() int {
	if !h.dense {
		return h.sparseLen()
	}
	n := 0
	for _, r := range h.regs {
		if r != 0 {
			n++
		}
	}
	return n
}

// RefAppendBinary is version 1's HyperLogLog.AppendBinary.
func (h *HyperLogLog) RefAppendBinary(buf []byte) []byte {
	buf = append(buf, h.p)
	n := h.numRegisters()
	// RLE costs 5 bytes per occupied register (plus a terminator); raw
	// costs one byte per register.
	if h.Occupied()*5+5 >= n {
		buf = append(buf, hllModeRaw)
		if h.dense {
			return append(buf, h.regs...)
		}
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		for i := range h.sparseLen() {
			idx, rank := h.sparseAt(i)
			buf[start+int(idx)] = rank
		}
		return buf
	}
	buf = append(buf, hllModeRLE)
	next := uint32(0)
	if h.dense {
		for i, r := range h.regs {
			if r != 0 {
				buf = append(refAppendU32(buf, uint32(i)-next), r)
				next = uint32(i) + 1
			}
		}
	} else {
		for i := range h.sparseLen() {
			idx, rank := h.sparseAt(i)
			buf = append(refAppendU32(buf, idx-next), rank)
			next = idx + 1
		}
	}
	if next < uint32(n) {
		// Trailing zero run, closed by a zero value.
		buf = append(refAppendU32(buf, uint32(n)-next), 0)
	}
	return buf
}

// RefAppendBinary is version 1's AngularHistogram.AppendBinary.
func (h *AngularHistogram) RefAppendBinary(buf []byte) []byte {
	buf = refAppendU32(buf, uint32(h.bins))
	for _, c := range h.counts[:h.bins] {
		buf = refAppendU64(buf, c)
	}
	return buf
}

// RefAppendBinary is version 1's CircularMean.AppendBinary.
func (c *CircularMean) RefAppendBinary(buf []byte) []byte {
	buf = refAppendF64(buf, c.sumSin)
	buf = refAppendF64(buf, c.sumCos)
	buf = refAppendF64(buf, c.weight)
	return buf
}

// RefAppendBinary is version 1's Welford.AppendBinary.
func (a *Welford) RefAppendBinary(buf []byte) []byte {
	buf = refAppendF64(buf, a.w)
	buf = refAppendF64(buf, a.mean)
	buf = refAppendF64(buf, a.m2)
	buf = refAppendF64(buf, a.min)
	buf = refAppendF64(buf, a.max)
	return buf
}

// RefAppendBinary is version 1's TDigest.AppendBinary.
func (t *TDigest) RefAppendBinary(buf []byte) []byte {
	t.process()
	buf = refAppendF64(buf, t.compression)
	buf = refAppendF64(buf, t.min)
	buf = refAppendF64(buf, t.max)
	buf = refAppendU32(buf, uint32(len(t.centroids)))
	for _, c := range t.centroids {
		buf = refAppendF64(buf, c.mean)
		buf = refAppendF64(buf, c.weight)
	}
	return buf
}

// RefAppendBinary is version 1's TopN.AppendBinary.
func (t *TopN) RefAppendBinary(buf []byte) []byte {
	buf = refAppendU32(buf, uint32(t.capacity))
	buf = refAppendU32(buf, uint32(len(t.counters)))
	var ranked [16]TopEntry
	for _, e := range t.appendEntries(ranked[:0]) { // sorted for deterministic bytes
		buf = refAppendU64(buf, e.Key)
		buf = refAppendU64(buf, e.Count)
		buf = refAppendU64(buf, e.Error)
	}
	return buf
}

// TestPrimitivesRoundTripEdges: at every width boundary of the varint and
// every class of float, the dense pair returns the value the fixed-width
// pair returns, consumes exactly what it wrote, and refuses every proper
// prefix of it.
func TestPrimitivesRoundTripEdges(t *testing.T) {
	cut := func(t *testing.T, enc []byte, read func([]byte) error) {
		t.Helper()
		for n := 0; n < len(enc); n++ {
			if err := read(enc[:n]); err == nil {
				t.Errorf("%x: the %d-byte prefix decodes", enc, n)
			}
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		enc := append(appendU64(nil, v), 0xa5)
		got, rest, err := readU64(enc)
		want, _, _ := refReadU64(refAppendU64(nil, v))
		if err != nil || got != want || got != v || !bytes.Equal(rest, []byte{0xa5}) {
			t.Errorf("u64 %d: read %d, rest %x, err %v", v, got, rest, err)
		}
		cut(t, enc[:len(enc)-1], func(b []byte) error { _, _, err := readU64(b); return err })
		if v > math.MaxUint32 {
			if _, _, err := readU32(enc); err == nil {
				t.Errorf("readU32 accepts %d", v)
			}
			continue
		}
		enc = append(appendU32(nil, uint32(v)), 0xa5)
		got32, rest, err := readU32(enc)
		want32, _, _ := refReadU32(refAppendU32(nil, uint32(v)))
		if err != nil || got32 != want32 || uint64(got32) != v || !bytes.Equal(rest, []byte{0xa5}) {
			t.Errorf("u32 %d: read %d, rest %x, err %v", v, got32, rest, err)
		}
	}
	if n := len(appendU64(nil, 127)); n != 1 {
		t.Errorf("127 takes %d bytes", n)
	}
	// An eleven-byte varint overflows 64 bits.
	if _, _, err := readU64(bytes.Repeat([]byte{0xff}, 11)); err == nil {
		t.Error("readU64 accepts an overflowing varint")
	}

	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 86400, 2048, 1e-3, math.Pi,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // subnormals: smallest, largest
		math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN, lowest payload bit
		math.Float64frombits(0xfff8dead0000beef), // negative quiet NaN with a payload
	}
	for _, v := range floats {
		enc := append(appendF64(nil, v), 0xa5)
		got, rest, err := readF64(enc)
		want, _, _ := refReadF64(refAppendF64(nil, v))
		if err != nil || math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(v) || !bytes.Equal(rest, []byte{0xa5}) {
			t.Errorf("f64 %v (%016x): read %016x, rest %x, err %v", v, math.Float64bits(v), math.Float64bits(got), rest, err)
		}
		cut(t, enc[:len(enc)-1], func(b []byte) error { _, _, err := readF64(b); return err })
	}
	for v, want := range map[float64]int{0: 1, 1: 3, 2048: 3, 86400: 3} {
		if n := len(appendF64(nil, v)); n != want {
			t.Errorf("%v takes %d bytes, want %d", v, n, want)
		}
	}
}

// TestSketchesMatchReference: random sketches of every kind, on both sides
// of each representation switch — decode(new bytes) re-encodes through the
// reference to the reference's bytes for the original, bit for bit, and the
// new bytes are themselves a fixed point of decode∘encode.
func TestSketchesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(name string, enc, ref []byte, decode func([]byte) (again, reref []byte, rest []byte, err error)) {
		t.Helper()
		again, reref, rest, err := decode(append(enc[:len(enc):len(enc)], 0xa5))
		if err != nil || !bytes.Equal(rest, []byte{0xa5}) {
			t.Fatalf("%s: decode: %v (rest %x)", name, err, rest)
		}
		if !bytes.Equal(reref, ref) {
			t.Fatalf("%s: reference encoding of the decoded sketch differs from the original's", name)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("%s: decode∘encode changed the bytes", name)
		}
	}
	for round := 0; round < 200; round++ {
		n := []int{0, 1, 3, 40, 127, 129, 700, 5000}[round%8]

		h := NewHyperLogLog([]uint8{4, 8, HLLPrecision, 14}[round%4])
		for i := 0; i < n; i++ {
			h.AddHash(rng.Uint64())
		}
		check("hll", h.AppendBinary(nil), h.RefAppendBinary(nil), func(b []byte) ([]byte, []byte, []byte, error) {
			d, rest, err := DecodeHyperLogLog(b)
			if err != nil {
				return nil, nil, nil, err
			}
			return d.AppendBinary(nil), d.RefAppendBinary(nil), rest, nil
		})

		ah := NewAngularHistogram(12)
		var cm CircularMean
		var w Welford
		td := NewTDigest(100)
		tn := NewTopN(8)
		for i := 0; i < n; i++ {
			deg := 360 * rng.Float64()
			ah.Add(deg)
			cm.Add(deg)
			v := float64(rng.Intn(4e5)) // integer seconds, like ETO/ATA
			if round%2 == 0 {
				v = 25 * rng.Float64() // full-mantissa, like SOG
			}
			w.Add(v)
			td.Add(v)
			tn.Add(rng.Uint64() >> uint(rng.Intn(64)))
		}
		check("angular", ah.AppendBinary(nil), ah.RefAppendBinary(nil), func(b []byte) ([]byte, []byte, []byte, error) {
			d, rest, err := DecodeAngularHistogram(b)
			if err != nil {
				return nil, nil, nil, err
			}
			return d.AppendBinary(nil), d.RefAppendBinary(nil), rest, nil
		})
		check("circular", cm.AppendBinary(nil), cm.RefAppendBinary(nil), func(b []byte) ([]byte, []byte, []byte, error) {
			d, rest, err := DecodeCircularMean(b)
			return d.AppendBinary(nil), d.RefAppendBinary(nil), rest, err
		})
		check("welford", w.AppendBinary(nil), w.RefAppendBinary(nil), func(b []byte) ([]byte, []byte, []byte, error) {
			d, rest, err := DecodeWelford(b)
			return d.AppendBinary(nil), d.RefAppendBinary(nil), rest, err
		})
		check("tdigest", td.AppendBinary(nil), td.RefAppendBinary(nil), func(b []byte) ([]byte, []byte, []byte, error) {
			d, rest, err := DecodeTDigest(b)
			if err != nil {
				return nil, nil, nil, err
			}
			return d.AppendBinary(nil), d.RefAppendBinary(nil), rest, nil
		})
		check("topn", tn.AppendBinary(nil), tn.RefAppendBinary(nil), func(b []byte) ([]byte, []byte, []byte, error) {
			d, rest, err := DecodeTopN(b)
			if err != nil {
				return nil, nil, nil, err
			}
			return d.AppendBinary(nil), d.RefAppendBinary(nil), rest, nil
		})
	}
}

// TestDecodersBoundAllocationByInput: an element count the remaining bytes
// cannot hold, at one byte per varint, is refused before anything but the
// sketch's own header is made.
func TestDecodersBoundAllocationByInput(t *testing.T) {
	huge := appendU32(nil, 1<<20)
	td := appendU32(appendF64(appendF64(appendF64(nil, 100), 0), 1), 1<<30)
	for name, tc := range map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"angular": {appendU32(nil, 3600), func(b []byte) error { _, _, err := DecodeAngularHistogram(b); return err }},
		"tdigest": {td, func(b []byte) error { _, _, err := DecodeTDigest(b); return err }},
		"topn":    {append(huge[:len(huge):len(huge)], huge...), func(b []byte) error { _, _, err := DecodeTopN(b); return err }},
	} {
		enc := append(tc.enc, make([]byte, 64)...)
		var err error
		if allocs := testing.AllocsPerRun(10, func() { err = tc.decode(enc) }); err == nil || allocs > 1 {
			t.Errorf("%s: count beyond the input: err %v, %.0f allocations", name, err, allocs)
		}
	}
}
