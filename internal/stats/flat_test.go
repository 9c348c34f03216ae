package stats

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The flat layout against the sketches it replaced (refsketch_test.go):
// seeded streams of Add, Merge and encode → decode, applied to a new sketch
// and its reference twin, must leave both encoding to the same bytes after
// every step.

// sameBytes fails the test when the two encodings differ.
func sameBytes(t *testing.T, what string, step int, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s, step %d: flat and reference encodings differ\n got %x\nwant %x", what, step, got, want)
	}
}

// TestFlatTopNMatchesReference: keys drawn from a range about twice the
// capacity, mostly at weight 1, so evictions keep meeting equal counts and
// the smallest-key tie break decides; merges of unions within and past
// capacity.
func TestFlatTopNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 300; round++ {
		capacity := []int{1, 2, 3, 8, 16}[round%5]
		keys := 1 + rng.Intn(2*capacity+2)
		mk := func() (*TopN, *RefTopN) { return NewTopN(capacity), NewRefTopN(capacity) }
		a, ra := mk()
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				k, w := uint64(rng.Intn(keys)), uint64(1)
				if rng.Intn(4) == 0 {
					w = uint64(rng.Intn(3))
				}
				a.AddWeighted(k, w)
				ra.AddWeighted(k, w)
			case op < 9:
				b, rb := mk()
				if rng.Intn(3) == 0 {
					c := 1 + rng.Intn(2*capacity)
					b, rb = NewTopN(c), NewRefTopN(c)
				}
				for i := rng.Intn(3 * capacity); i > 0; i-- {
					k := uint64(rng.Intn(keys))
					b.Add(k)
					rb.Add(k)
				}
				a.Merge(b)
				ra.Merge(rb)
			default:
				d, rest, err := DecodeTopN(a.AppendBinary(nil))
				rd, _, rerr := DecodeRefTopN(ra.AppendBinary(nil))
				if err != nil || rerr != nil || len(rest) != 0 {
					t.Fatalf("round %d: decode: %v / %v", round, err, rerr)
				}
				a, ra = &d, rd
			}
			sameBytes(t, "topn", step, a.AppendBinary(nil), ra.AppendBinary(nil))
		}
	}
}

// TestFlatTDigestMatchesReference: values from a handful of means, so
// sorting keeps meeting equal means and pdqsort's tie order decides which
// centroids merge; streams long enough to cross the 8×compression buffer;
// merges between digests of equal and of different compression, and of
// digests that crossed the codec.
func TestFlatTDigestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 120; round++ {
		comp := []float64{20, 100, 37.5}[round%3]
		value := func() float64 {
			if round%2 == 0 {
				return float64(rng.Intn(6)) // ties
			}
			return rng.NormFloat64() * 100
		}
		a, ra := NewTDigest(comp), NewRefTDigest(comp)
		for step := 0; step < 12; step++ {
			switch op := rng.Intn(6); {
			case op < 3:
				for i := rng.Intn(1200); i > 0; i-- {
					x, w := value(), float64(1+rng.Intn(2))
					a.AddWeighted(x, w)
					ra.AddWeighted(x, w)
				}
			case op < 5:
				c := comp
				if rng.Intn(3) == 0 {
					c = []float64{20, 100, 37.5}[rng.Intn(3)]
				}
				b, rb := NewTDigest(c), NewRefTDigest(c)
				for i := rng.Intn(900); i > 0; i-- {
					x := value()
					b.Add(x)
					rb.Add(x)
				}
				if rng.Intn(2) == 0 {
					a.Merge(b)
					ra.Merge(rb)
				} else { // into the other side, or into an empty digest
					if rng.Intn(2) == 0 {
						b, rb = NewTDigest(comp), NewRefTDigest(comp)
					}
					b.Merge(a)
					rb.Merge(ra)
					a, ra = b, rb
				}
			default:
				d, _, err := DecodeTDigest(a.AppendBinary(nil))
				rd, _, rerr := DecodeRefTDigest(ra.AppendBinary(nil))
				if err != nil || rerr != nil {
					t.Fatalf("round %d: decode: %v / %v", round, err, rerr)
				}
				a, ra = &d, rd
			}
			if math.Float64bits(a.Count()) != math.Float64bits(ra.Count()) {
				t.Fatalf("round %d, step %d: count %v, reference %v", round, step, a.Count(), ra.Count())
			}
			sameBytes(t, "tdigest", step, a.AppendBinary(nil), ra.AppendBinary(nil))
		}
	}
}

// TestFlatAngularMatchesReference: every bin count the array holds.
func TestFlatAngularMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for bins := 1; bins <= DefaultAngularBins; bins++ {
		a, ra := NewAngularHistogram(bins), NewRefAngularHistogram(bins)
		b, rb := NewAngularHistogram(bins), NewRefAngularHistogram(bins)
		for i := 0; i < 500; i++ {
			x := rng.NormFloat64() * 400
			if i%50 == 0 {
				x = 360 - math.SmallestNonzeroFloat64 // the floating edge
			}
			a.Add(x)
			ra.Add(x)
			b.AddWeighted(x, uint64(i))
			rb.AddWeighted(x, uint64(i))
		}
		a.Merge(b)
		ra.Merge(rb)
		sameBytes(t, "angular", bins, a.AppendBinary(nil), ra.AppendBinary(nil))
		d, _, err := DecodeAngularHistogram(a.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "angular decoded", bins, d.AppendBinary(nil), ra.AppendBinary(nil))
	}
}

// TestFlatHLLMatchesReference: sketches on both sides of the sparse limit,
// merged sparse into sparse (crossing it), dense into sparse and into
// empty, and through the codec.
func TestFlatHLLMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for round := 0; round < 200; round++ {
		p := []uint8{4, 8, HLLPrecision, 14}[round%4]
		a, ra := NewHyperLogLog(p), NewRefHyperLogLog(p)
		for step := 0; step < 8; step++ {
			switch rng.Intn(3) {
			case 0:
				for i := rng.Intn(2 * sparseLimit); i > 0; i-- {
					v := rng.Uint64()
					a.AddHash(v)
					ra.AddHash(v)
				}
			case 1:
				b, rb := NewHyperLogLog(p), NewRefHyperLogLog(p)
				for i := rng.Intn(3 * sparseLimit / 2); i > 0; i-- {
					v := rng.Uint64()
					b.AddHash(v)
					rb.AddHash(v)
				}
				if rng.Intn(2) == 0 {
					a.Merge(b)
					ra.Merge(rb)
				} else {
					if rng.Intn(2) == 0 {
						b, rb = NewHyperLogLog(p), NewRefHyperLogLog(p)
					}
					b.Merge(a)
					rb.Merge(ra)
					a, ra = b, rb
				}
			default:
				d, _, err := DecodeHyperLogLog(a.AppendBinary(nil))
				rd, _, rerr := DecodeRefHyperLogLog(ra.AppendBinary(nil))
				if err != nil || rerr != nil {
					t.Fatalf("round %d: decode: %v / %v", round, err, rerr)
				}
				a, ra = &d, rd
			}
			if a.dense != (ra.registers != nil) || a.Estimate() != ra.Estimate() {
				t.Fatalf("round %d, step %d: dense %v / %v, estimate %d / %d", round, step, a.dense, ra.registers != nil, a.Estimate(), ra.Estimate())
			}
			sameBytes(t, "hll", step, a.AppendBinary(nil), ra.AppendBinary(nil))
		}
	}
}

// TestScaleBoundMatchesK: bound's band decides k(q)−k(q0) ≤ 1 as k itself
// does, at and around the bound, for the compressions the codec accepts
// and every kind of q0, clamped or not a number.
func TestScaleBoundMatchesK(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, comp := range []float64{20, 37.5, 100, 1000, 1e6} {
		d := NewTDigest(comp)
		sinC, cosC := math.Sincos(2 * math.Pi / comp)
		for i := 0; i < 3000; i++ {
			q0 := rng.Float64()
			switch i % 10 {
			case 0:
				q0 = 0
			case 1:
				q0 = 1 - rng.Float64()*1e-6
			case 2:
				q0 = -rng.Float64()
			case 3:
				q0 = math.NaN()
			}
			lo, hi := bound(q0, cosC, sinC)
			k0 := d.k(q0)
			// The q where k crosses k0+1, found by k itself.
			a, b := 0.0, 1.0
			for range 80 {
				if m := (a + b) / 2; d.k(m)-k0 <= 1 {
					a = m
				} else {
					b = m
				}
			}
			for _, q := range []float64{a, b, a - 1e-12, b + 1e-12, a - 2e-9, b + 2e-9,
				math.Nextafter(lo, -1), lo, hi, math.Nextafter(hi, 2), rng.Float64(), 1, 1 + 1e-15, 2, -1,
				math.Inf(1), math.Inf(-1), math.NaN()} {
				want := d.k(q)-k0 <= 1
				got := q < lo || (q <= hi && want)
				if got != want {
					t.Fatalf("δ=%v q0=%v q=%v: band says %v, k says %v (lo %v hi %v)", comp, q0, q, got, want, lo, hi)
				}
			}
		}
	}
}

// TestMergeIntoRoomAllocatesNothing: a TopN merge, within capacity or past
// it, and a TDigest merge allocate nothing once the receiver's slice has
// room for the union.
func TestMergeIntoRoomAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, fresh := range []int{3, 12} { // within capacity 16, past it
		a, o := NewTopN(16), NewTopN(16)
		for i := 0; i < 8; i++ {
			a.AddWeighted(uint64(i), uint64(1+rng.Intn(5)))
		}
		for i := 0; i < fresh; i++ {
			o.AddWeighted(uint64(4+i), uint64(1+rng.Intn(5)))
		}
		saved, room := a.counters, make([]TopEntry, 0, 16)
		if allocs := testing.AllocsPerRun(100, func() {
			a.counters = append(room[:0], saved...)
			a.Merge(o)
		}); allocs != 0 {
			t.Errorf("TopN.Merge of %d fresh keys into room: %.0f allocations", fresh, allocs)
		}
	}

	a, o := NewTDigest(DefaultCompression), NewTDigest(DefaultCompression)
	for i := 0; i < 2000; i++ {
		a.Add(rng.NormFloat64())
		o.Add(rng.NormFloat64() + 1)
	}
	a.process()
	o.process()
	saved, totalW := a.centroids, a.totalW
	room := make([]centroid, 0, len(a.centroids)+len(o.centroids))
	if allocs := testing.AllocsPerRun(100, func() {
		a.centroids, a.sorted, a.totalW = append(room[:0], saved...), len(saved), totalW
		a.Merge(o)
	}); allocs != 0 {
		t.Errorf("TDigest.Merge into room: %.0f allocations", allocs)
	}
}
