package stats

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// register returns one register value regardless of representation.
func (h *HyperLogLog) register(idx uint32) uint8 {
	if h.dense {
		return h.regs[idx]
	}
	for i := range h.sparseLen() {
		if at, rank := h.sparseAt(i); at == idx {
			return rank
		}
	}
	return 0
}

// appendBinaryByRegisterWalk is the reference for AppendBinary's layout: it
// visits all 2^p registers through register(), knows nothing about the
// representation, and writes both layouts out to choose the shorter.
func (h *HyperLogLog) appendBinaryByRegisterWalk(buf []byte) []byte {
	n := uint32(h.numRegisters())
	var raw, rle []byte
	for i := uint32(0); i < n; i++ {
		raw = append(raw, h.register(i))
	}
	i := uint32(0)
	for i < n {
		run := uint32(0)
		for i < n && h.register(i) == 0 {
			i++
			run++
		}
		if i >= n {
			rle = appendU32(rle, run)
			rle = append(rle, 0)
			break
		}
		rle = appendU32(rle, run)
		rle = append(rle, h.register(i))
		i++
	}
	if len(rle) < len(raw) {
		return append(append(buf, h.p, hllModeRLE), rle...)
	}
	return append(append(buf, h.p, hllModeRaw), raw...)
}

func TestHLLEmpty(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	if got := h.Estimate(); got != 0 {
		t.Errorf("empty estimate %d, want 0", got)
	}
}

func TestHLLSmallExact(t *testing.T) {
	// Linear counting keeps small cardinalities near-exact.
	h := NewHyperLogLog(HLLPrecision)
	for i := uint64(0); i < 100; i++ {
		h.AddUint64(i)
	}
	got := h.Estimate()
	if got < 90 || got > 110 {
		t.Errorf("estimate %d, want ≈ 100", got)
	}
}

func TestHLLDuplicatesDontCount(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	for rep := 0; rep < 50; rep++ {
		for i := uint64(0); i < 200; i++ {
			h.AddUint64(i)
		}
	}
	got := h.Estimate()
	if got < 190 || got > 210 {
		t.Errorf("estimate %d, want ≈ 200 despite duplicates", got)
	}
}

func TestHLLAccuracyAcrossScales(t *testing.T) {
	for _, n := range []uint64{1000, 10000, 100000} {
		h := NewHyperLogLog(HLLPrecision)
		for i := uint64(0); i < n; i++ {
			h.AddUint64(i * 2654435761)
		}
		got := float64(h.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		if relErr > 0.08 { // ~3.5 sigma at p=11
			t.Errorf("n=%d: estimate %.0f, rel err %.3f", n, got, relErr)
		}
	}
}

func TestHLLMergeEqualsUnion(t *testing.T) {
	a := NewHyperLogLog(HLLPrecision)
	b := NewHyperLogLog(HLLPrecision)
	union := NewHyperLogLog(HLLPrecision)
	for i := uint64(0); i < 3000; i++ {
		a.AddUint64(i)
		union.AddUint64(i)
	}
	for i := uint64(2000); i < 6000; i++ { // overlaps 2000..2999
		b.AddUint64(i)
		union.AddUint64(i)
	}
	a.Merge(b)
	if a.Estimate() != union.Estimate() {
		t.Errorf("merged estimate %d != union estimate %d", a.Estimate(), union.Estimate())
	}
}

func TestHLLMergeCommutative(t *testing.T) {
	mk := func(lo, hi uint64) *HyperLogLog {
		h := NewHyperLogLog(HLLPrecision)
		for i := lo; i < hi; i++ {
			h.AddUint64(i)
		}
		return h
	}
	ab := mk(0, 1000)
	ab.Merge(mk(500, 1500))
	ba := mk(500, 1500)
	ba.Merge(mk(0, 1000))
	if ab.Estimate() != ba.Estimate() {
		t.Error("merge must be commutative")
	}
}

func TestHLLMergeMismatchedPrecisionIgnored(t *testing.T) {
	a := NewHyperLogLog(11)
	b := NewHyperLogLog(12)
	b.AddUint64(1)
	a.Merge(b)
	if a.Estimate() != 0 {
		t.Error("mismatched precision merge must be ignored")
	}
	a.Merge(nil)
}

func TestHLLPrecisionClamp(t *testing.T) {
	if got := NewHyperLogLog(1).numRegisters(); got != 16 {
		t.Errorf("precision clamps to 4: %d registers", got)
	}
	if got := NewHyperLogLog(20).numRegisters(); got != 65536 {
		t.Errorf("precision clamps to 16: %d registers", got)
	}
}

func TestHLLSparseToDensePromotion(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	// Below the limit the sketch stays sparse.
	for i := uint64(0); i < 50; i++ {
		h.AddUint64(i)
	}
	if h.dense {
		t.Fatal("sketch with 50 values should still be sparse")
	}
	sparseEstimate := h.Estimate()
	// Push past the promotion threshold.
	for i := uint64(50); i < 5000; i++ {
		h.AddUint64(i)
	}
	if !h.dense {
		t.Fatal("sketch with 5000 values must be dense")
	}
	if len(h.regs) != h.numRegisters() {
		t.Fatal("dense sketch must hold exactly its registers")
	}
	_ = sparseEstimate
}

func TestHLLSparseAndDenseAgree(t *testing.T) {
	// The same values inserted into a sparse sketch and a pre-densified
	// sketch must produce identical registers and estimates.
	sparse := NewHyperLogLog(HLLPrecision)
	dense := NewHyperLogLog(HLLPrecision)
	dense.densify()
	for i := uint64(0); i < 100; i++ {
		sparse.AddUint64(i * 7919)
		dense.AddUint64(i * 7919)
	}
	if sparse.dense {
		t.Fatal("fixture assumes sparse stays sparse at 100 values")
	}
	if sparse.Estimate() != dense.Estimate() {
		t.Errorf("estimates differ: sparse %d, dense %d", sparse.Estimate(), dense.Estimate())
	}
	if sparse.Occupied() != dense.Occupied() {
		t.Errorf("occupied differ: %d vs %d", sparse.Occupied(), dense.Occupied())
	}
	for idx := uint32(0); idx < uint32(sparse.numRegisters()); idx++ {
		if sparse.register(idx) != dense.register(idx) {
			t.Fatalf("register %d differs", idx)
		}
	}
	// Binary encodings are identical too (the format is representation
	// independent).
	sb := sparse.AppendBinary(nil)
	db := dense.AppendBinary(nil)
	if string(sb) != string(db) {
		t.Error("binary encodings differ between representations")
	}
}

func TestHLLMergeAcrossRepresentations(t *testing.T) {
	mk := func(lo, hi uint64, denseFirst bool) *HyperLogLog {
		h := NewHyperLogLog(HLLPrecision)
		if denseFirst {
			h.densify()
		}
		for i := lo; i < hi; i++ {
			h.AddUint64(i)
		}
		return h
	}
	want := mk(0, 2000, true).Estimate()
	// sparse ← dense
	a := mk(0, 100, false)
	a.Merge(mk(100, 2000, true))
	if a.Estimate() != want {
		t.Errorf("sparse←dense merge: %d, want %d", a.Estimate(), want)
	}
	// dense ← sparse
	b := mk(0, 1900, true)
	b.Merge(mk(1900, 2000, false))
	if b.Estimate() != want {
		t.Errorf("dense←sparse merge: %d, want %d", b.Estimate(), want)
	}
	// sparse ← sparse staying sparse
	c := mk(0, 30, false)
	c.Merge(mk(30, 60, false))
	if c.dense {
		t.Error("small sparse merge must stay sparse")
	}
	if c.Occupied() == 0 {
		t.Error("merge lost values")
	}
}

func TestHLLBinaryRoundTrip(t *testing.T) {
	for _, n := range []uint64{0, 1, 50, 20000} {
		h := NewHyperLogLog(HLLPrecision)
		for i := uint64(0); i < n; i++ {
			h.AddUint64(i)
		}
		buf := h.AppendBinary(nil)
		got, rest, err := DecodeHyperLogLog(buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rest) != 0 {
			t.Errorf("n=%d: %d trailing bytes", n, len(rest))
		}
		if got.Estimate() != h.Estimate() {
			t.Errorf("n=%d: estimate %d after round trip, want %d", n, got.Estimate(), h.Estimate())
		}
	}
}

func TestHLLBinarySparseIsSmall(t *testing.T) {
	h := NewHyperLogLog(HLLPrecision)
	h.AddUint64(7)
	if size := len(h.AppendBinary(nil)); size > 64 {
		t.Errorf("sparse sketch encodes to %d bytes, want small", size)
	}
}

func TestHLLDecodeCorrupt(t *testing.T) {
	if _, _, err := DecodeHyperLogLog(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, _, err := DecodeHyperLogLog([]byte{3}); err == nil {
		t.Error("bad precision must fail")
	}
	h := NewHyperLogLog(HLLPrecision)
	h.AddUint64(1)
	buf := h.AppendBinary(nil)
	if _, _, err := DecodeHyperLogLog(buf[:len(buf)-2]); err == nil {
		t.Error("truncated input must fail")
	}
}

func TestMix64Distribution(t *testing.T) {
	// Consecutive integers must hash to well-spread values: check bucket
	// uniformity over 256 buckets.
	const n = 100000
	var buckets [256]int
	for i := uint64(0); i < n; i++ {
		buckets[Mix64(i)>>56]++
	}
	want := n / 256
	for i, c := range buckets {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d has %d values, want ≈ %d", i, c, want)
		}
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := NewHyperLogLog(HLLPrecision)
	for i := 0; i < b.N; i++ {
		h.AddUint64(uint64(i))
	}
}

func BenchmarkHLLEstimate(b *testing.B) {
	h := NewHyperLogLog(HLLPrecision)
	for i := uint64(0); i < 100000; i++ {
		h.AddUint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Estimate()
	}
}

func BenchmarkHLLMerge(b *testing.B) {
	x := NewHyperLogLog(HLLPrecision)
	y := NewHyperLogLog(HLLPrecision)
	for i := uint64(0); i < 10000; i++ {
		x.AddUint64(i)
		y.AddUint64(i + 5000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := NewHyperLogLog(HLLPrecision)
		z.Merge(x)
		z.Merge(y)
	}
}

// TestHLLEncodingMatchesRegisterWalk: for random sketches on both sides of
// the sparse→dense promotion and of the RLE→raw size crossover, at several
// precisions, the encoder's bytes equal the reference register walk's, the
// two representations of one register file encode alike, and decode∘encode
// is the identity on the bytes.
func TestHLLEncodingMatchesRegisterWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []uint8{4, 8, HLLPrecision, 14} {
		m := 1 << p
		counts := []int{0, 1, 2, m / 5, sparseLimit - 1, sparseLimit, sparseLimit + 1, 3 * sparseLimit, m, 8 * m}
		for i := 0; i < 40; i++ {
			counts = append(counts, rng.Intn(4*sparseLimit))
		}
		for _, n := range counts {
			h, dense := NewHyperLogLog(p), NewHyperLogLog(p)
			dense.densify()
			for i := 0; i < n; i++ {
				v := rng.Uint64()
				h.AddHash(v)
				dense.AddHash(v)
			}
			if i := rng.Intn(m); n > 0 && rng.Intn(2) == 0 {
				// Pin the last register too: the run list then ends without
				// a terminator.
				h.setRegister(uint32(m-1), uint8(1+i%7))
				dense.setRegister(uint32(m-1), uint8(1+i%7))
			}
			got, want := h.AppendBinary(nil), h.appendBinaryByRegisterWalk(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("p=%d n=%d (dense=%v): encoder and register walk disagree\n got %x\nwant %x", p, n, h.dense, got, want)
			}
			if d := dense.AppendBinary(nil); !bytes.Equal(d, want) {
				t.Fatalf("p=%d n=%d: dense representation encodes differently", p, n)
			}
			back, rest, err := DecodeHyperLogLog(got)
			if err != nil || len(rest) != 0 {
				t.Fatalf("p=%d n=%d: decode: %v (%d trailing)", p, n, err, len(rest))
			}
			if again := back.AppendBinary(nil); !bytes.Equal(again, got) {
				t.Fatalf("p=%d n=%d: decode∘encode changed the bytes", p, n)
			}
		}
	}
}

// TestHLLEncodeDoesNotMutate: a checkpoint encodes summaries that API
// readers are querying, so AppendBinary must leave the receiver alone —
// including a sparse sketch small enough (low precision) to take the raw
// layout, which used to densify it. Run with -race.
func TestHLLEncodeDoesNotMutate(t *testing.T) {
	for _, p := range []uint8{4, HLLPrecision} {
		h := NewHyperLogLog(p)
		for i := uint64(0); i < 16; i++ {
			h.AddUint64(i)
		}
		if h.dense {
			t.Fatalf("p=%d: fixture must be sparse", p)
		}
		want, estimate, occupied := h.AppendBinary(nil), h.Estimate(), h.Occupied()
		if p == 4 && want[1] != hllModeRaw {
			t.Fatal("p=4 fixture must take the raw layout")
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if !bytes.Equal(h.AppendBinary(nil), want) {
						t.Error("concurrent encodes disagree")
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if h.Estimate() != estimate || h.Occupied() != occupied {
					t.Error("reader saw the sketch change under an encode")
					return
				}
			}
		}()
		wg.Wait()
		if h.dense {
			t.Fatalf("p=%d: encoding converted the sketch to dense", p)
		}
	}
}

// decodeHLLBySetRegister is the decoder the one-pass form replaced, kept
// as its reference: each occupied register of the run-length layout goes
// through setRegister, which keeps the sparse entries sorted and densifies
// past sparseLimit.
func decodeHLLBySetRegister(data []byte) (HyperLogLog, []byte, error) {
	if len(data) < 2 || data[0] < 4 || data[0] > 16 {
		return HyperLogLog{}, nil, ErrCorrupt
	}
	h := HyperLogLog{p: data[0]}
	mode, n := data[1], uint32(h.numRegisters())
	data = data[2:]
	switch mode {
	case hllModeRaw:
		if uint32(len(data)) < n {
			return HyperLogLog{}, nil, ErrCorrupt
		}
		h.regs, h.dense = bytes.Clone(data[:n]), true
		return h, data[n:], nil
	case hllModeRLE:
		i := uint32(0)
		for i < n {
			run, rest, err := readU32(data)
			if err != nil || len(rest) < 1 {
				return HyperLogLog{}, nil, ErrCorrupt
			}
			v := rest[0]
			data = rest[1:]
			if i+run > n || (v != 0 && i+run >= n) {
				return HyperLogLog{}, nil, ErrCorrupt
			}
			i += run
			if v != 0 {
				h.setRegister(i, v)
				i++
			} else if i != n {
				return HyperLogLog{}, nil, ErrCorrupt
			}
		}
		return h, data, nil
	}
	return HyperLogLog{}, nil, ErrCorrupt
}

// TestHLLDecodeMatchesSetRegister holds the one-pass decoder to the
// reference on sketches of exactly 127–130 occupied registers (either side
// of the sparse limit; at p=8 they take the raw layout) and on random
// sketches: the same dense flag, registers and remaining bytes, and the
// same refusals of every truncation and of single-byte corruptions. A
// sparse result holds exactly its entries.
func TestHLLDecodeMatchesSetRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	check := func(name string, data []byte) {
		t.Helper()
		got, gotRest, gotErr := DecodeHyperLogLog(data)
		want, wantRest, wantErr := decodeHLLBySetRegister(data)
		skipRest, skipErr := SkipHyperLogLog(data)
		if (gotErr == nil) != (wantErr == nil) || (skipErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: decode %v, skip %v, reference %v", name, gotErr, skipErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.p != want.p || got.dense != want.dense || !bytes.Equal(got.regs, want.regs) || len(gotRest) != len(wantRest) || len(skipRest) != len(wantRest) {
			t.Fatalf("%s: decoded dense=%v %d regs %d left, reference dense=%v %d regs %d left",
				name, got.dense, len(got.regs), len(gotRest), want.dense, len(want.regs), len(wantRest))
		}
		if !got.dense && cap(got.regs) != len(got.regs) {
			t.Fatalf("%s: sparse capacity %d for %d bytes of entries", name, cap(got.regs), len(got.regs))
		}
	}
	var sketches []*HyperLogLog
	for _, p := range []uint8{4, 8, HLLPrecision, 14} {
		m := 1 << p
		for k := sparseLimit - 1; k <= sparseLimit+2 && k <= m; k++ {
			h := NewHyperLogLog(p)
			for _, idx := range rng.Perm(m)[:k] {
				h.setRegister(uint32(idx), uint8(1+rng.Intn(20)))
			}
			sketches = append(sketches, h)
		}
		for i := 0; i < 20; i++ {
			h := NewHyperLogLog(p)
			for n := rng.Intn(3 * sparseLimit); n > 0; n-- {
				h.AddHash(rng.Uint64())
			}
			sketches = append(sketches, h)
		}
	}
	for si, h := range sketches {
		enc := append(h.AppendBinary(nil), 0xAA) // a trailing byte that is not the sketch's
		check(fmt.Sprintf("sketch %d (p=%d)", si, h.p), enc)
		for cut := 0; cut < len(enc)-1; cut++ {
			check(fmt.Sprintf("sketch %d cut at %d", si, cut), enc[:cut])
		}
		for i := 0; i < 50; i++ {
			bad := bytes.Clone(enc)
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			check(fmt.Sprintf("sketch %d corruption %d", si, i), bad)
		}
	}
	// The one input the two part on: a run that wraps the uint32 register
	// index, which the reference accepted and the decoder refuses.
	wrap := binary.AppendUvarint([]byte{4, hllModeRLE, 5, 1}, math.MaxUint32-2)
	wrap = append(wrap, 1, 12, 0)
	if _, _, err := decodeHLLBySetRegister(wrap); err != nil {
		t.Fatalf("the reference refuses the wrapping run: %v", err)
	}
	if _, _, err := DecodeHyperLogLog(wrap); err == nil {
		t.Error("a run that wraps the register index decoded")
	}
}
