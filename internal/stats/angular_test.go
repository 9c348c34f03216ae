package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAngularHistogramBinning(t *testing.T) {
	h := NewAngularHistogram(DefaultAngularBins)
	if w := 360 / float64(h.bins); w != 30 {
		t.Fatalf("bin width %v, want 30", w)
	}
	h.Add(0)     // bin 0
	h.Add(29.99) // bin 0
	h.Add(30)    // bin 1
	h.Add(359.9) // bin 11
	h.Add(360)   // wraps to bin 0
	h.Add(-15)   // wraps to 345 → bin 11
	h.Add(720.5) // wraps to 0.5 → bin 0
	bins := h.Bins()
	if bins[0] != 4 {
		t.Errorf("bin 0 = %d, want 4", bins[0])
	}
	if bins[1] != 1 {
		t.Errorf("bin 1 = %d, want 1", bins[1])
	}
	if bins[11] != 2 {
		t.Errorf("bin 11 = %d, want 2", bins[11])
	}
	if binTotal(h) != 7 {
		t.Errorf("total %d, want 7", binTotal(h))
	}
}

func TestAngularHistogramIgnoresNaN(t *testing.T) {
	h := NewAngularHistogram(12)
	h.Add(math.NaN())
	h.AddWeighted(10, 0)
	if binTotal(h) != 0 {
		t.Error("NaN and zero weight must be ignored")
	}
}

func TestAngularHistogramMerge(t *testing.T) {
	a := NewAngularHistogram(12)
	b := NewAngularHistogram(12)
	a.AddWeighted(45, 3)
	b.AddWeighted(45, 2)
	b.AddWeighted(200, 7)
	a.Merge(b)
	if a.Bins()[1] != 5 {
		t.Errorf("merged bin 1 = %d, want 5", a.Bins()[1])
	}
	if a.Bins()[6] != 7 {
		t.Errorf("merged bin 6 = %d, want 7", a.Bins()[6])
	}
	mismatched := NewAngularHistogram(6)
	a.Merge(mismatched) // ignored
	a.Merge(nil)        // ignored
	if binTotal(a) != 12 {
		t.Error("mismatched/nil merges must be no-ops")
	}
}

func TestAngularHistogramBinsClamp(t *testing.T) {
	h := NewAngularHistogram(0)
	h.Add(123)
	if len(h.Bins()) != 1 || h.Bins()[0] != 1 {
		t.Error("bin count clamps to 1")
	}
}

func TestAngularHistogramBinaryRoundTrip(t *testing.T) {
	h := NewAngularHistogram(12)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 1000; i++ {
		h.Add(rng.Float64() * 360)
	}
	buf := h.AppendBinary(nil)
	got, rest, err := DecodeAngularHistogram(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
	want := h.Bins()
	have := got.Bins()
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("bin %d: %d vs %d", i, have[i], want[i])
		}
	}
	if _, _, err := DecodeAngularHistogram(buf[:6]); err == nil {
		t.Error("truncated input must fail")
	}
}

func TestCircularMeanWrapAround(t *testing.T) {
	// The arithmetic mean of 359° and 1° is 180°; the circular mean must be 0°.
	var c CircularMean
	c.Add(359)
	c.Add(1)
	got := c.Mean()
	if math.Min(got, 360-got) > 1e-9 {
		t.Errorf("circular mean of 359° and 1° = %v, want 0", got)
	}
}

func TestCircularMeanSimple(t *testing.T) {
	var c CircularMean
	c.Add(80)
	c.Add(100)
	if math.Abs(c.Mean()-90) > 1e-9 {
		t.Errorf("mean %v, want 90", c.Mean())
	}
	if math.Abs(c.Resultant()-math.Cos(10*math.Pi/180)) > 1e-9 {
		t.Errorf("resultant %v", c.Resultant())
	}
}

func TestCircularMeanEmpty(t *testing.T) {
	var c CircularMean
	if !math.IsNaN(c.Mean()) {
		t.Error("empty mean must be NaN")
	}
	if c.Resultant() != 0 {
		t.Error("empty resultant must be 0")
	}
}

func TestCircularMeanOpposed(t *testing.T) {
	var c CircularMean
	c.Add(0)
	c.Add(180)
	if !math.IsNaN(c.Mean()) {
		t.Errorf("perfectly opposed angles have no mean direction, got %v", c.Mean())
	}
	if c.Resultant() > 1e-9 {
		t.Errorf("opposed resultant %v, want 0", c.Resultant())
	}
}

func TestCircularMeanConcentration(t *testing.T) {
	var tight, spread CircularMean
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 1000; i++ {
		tight.Add(45 + rng.NormFloat64()*2)
		spread.Add(rng.Float64() * 360)
	}
	if tight.Resultant() < 0.99 {
		t.Errorf("tight resultant %v, want ≈ 1", tight.Resultant())
	}
	if spread.Resultant() > 0.1 {
		t.Errorf("uniform resultant %v, want ≈ 0", spread.Resultant())
	}
	if math.Abs(tight.Mean()-45) > 1 {
		t.Errorf("tight mean %v, want ≈ 45", tight.Mean())
	}
}

func TestCircularMeanMergeEqualsSequential(t *testing.T) {
	f := func(angles []float64, split uint8) bool {
		if len(angles) < 2 {
			return true
		}
		for i, a := range angles {
			angles[i] = math.Mod(math.Abs(a), 360)
		}
		k := int(split) % len(angles)
		var whole, left, right CircularMean
		for _, a := range angles {
			whole.Add(a)
		}
		for _, a := range angles[:k] {
			left.Add(a)
		}
		for _, a := range angles[k:] {
			right.Add(a)
		}
		left.Merge(&right)
		wm, lm := whole.Mean(), left.Mean()
		if math.IsNaN(wm) != math.IsNaN(lm) {
			return false
		}
		if math.IsNaN(wm) {
			return true
		}
		d := math.Abs(wm - lm)
		if d > 180 {
			d = 360 - d
		}
		return d < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCircularMeanBinaryRoundTrip(t *testing.T) {
	var c CircularMean
	c.Add(10)
	c.Add(350)
	c.AddWeighted(20, 3)
	buf := c.AppendBinary(nil)
	got, rest, err := DecodeCircularMean(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || got != c {
		t.Errorf("round trip mismatch")
	}
	if _, _, err := DecodeCircularMean(buf[:8]); err == nil {
		t.Error("truncated input must fail")
	}
}

func BenchmarkAngularHistogramAdd(b *testing.B) {
	h := NewAngularHistogram(12)
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 360))
	}
}

func BenchmarkCircularMeanAdd(b *testing.B) {
	var c CircularMean
	for i := 0; i < b.N; i++ {
		c.Add(float64(i % 360))
	}
}

// binTotal is the histogram's total observed weight.
func binTotal(h *AngularHistogram) uint64 {
	var t uint64
	for _, c := range h.counts {
		t += c
	}
	return t
}
