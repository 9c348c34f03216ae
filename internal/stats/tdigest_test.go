package stats

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// exactQuantile returns the true quantile of xs by sorting.
func exactQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	idx := q * float64(len(s)-1)
	lo := int(idx)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := idx - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func TestTDigestEmpty(t *testing.T) {
	d := NewTDigest(DefaultCompression)
	if !math.IsNaN(d.Quantile(0.5)) {
		t.Error("empty digest quantile must be NaN")
	}
	if d.Count() != 0 {
		t.Error("empty digest count must be 0")
	}
}

func TestTDigestSingleValue(t *testing.T) {
	d := NewTDigest(DefaultCompression)
	d.Add(42)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got := d.Quantile(q); got != 42 {
			t.Errorf("q=%v: got %v, want 42", q, got)
		}
	}
}

func TestTDigestUniformQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewTDigest(DefaultCompression)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
		d.Add(xs[i])
	}
	// Paper percentiles: 10th, 50th, 90th.
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := d.Quantile(q)
		want := exactQuantile(xs, q)
		if math.Abs(got-want) > 10 { // 1% of range
			t.Errorf("q=%v: got %.2f, want %.2f", q, got, want)
		}
	}
}

func TestTDigestNormalQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewTDigest(DefaultCompression)
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*15 + 100 // like a speed distribution
		d.Add(xs[i])
	}
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		got := d.Quantile(q)
		want := exactQuantile(xs, q)
		if math.Abs(got-want) > 1.5 {
			t.Errorf("q=%v: got %.3f, want %.3f", q, got, want)
		}
	}
}

func TestTDigestExtremes(t *testing.T) {
	d := NewTDigest(DefaultCompression)
	for i := 1; i <= 1000; i++ {
		d.Add(float64(i))
	}
	if got := d.Quantile(0); got != 1 {
		t.Errorf("q=0 must be min: got %v", got)
	}
	if got := d.Quantile(1); got != 1000 {
		t.Errorf("q=1 must be max: got %v", got)
	}
	if got := d.Quantile(-0.5); got != 1 {
		t.Errorf("q<0 clamps to min: got %v", got)
	}
	if got := d.Quantile(1.5); got != 1000 {
		t.Errorf("q>1 clamps to max: got %v", got)
	}
}

func TestTDigestQuantileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewTDigest(50)
	for i := 0; i < 10000; i++ {
		d.Add(rng.ExpFloat64() * 100)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.01 {
		v := d.Quantile(q)
		if v < prev-1e-9 {
			t.Fatalf("quantile not monotonic at q=%.2f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestTDigestMergePreservesQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	whole := NewTDigest(DefaultCompression)
	parts := make([]*TDigest, 8)
	for i := range parts {
		parts[i] = NewTDigest(DefaultCompression)
	}
	var xs []float64
	for i := 0; i < 40000; i++ {
		x := rng.NormFloat64() * 50
		xs = append(xs, x)
		whole.Add(x)
		parts[i%8].Add(x)
	}
	merged := NewTDigest(DefaultCompression)
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != 40000 {
		t.Errorf("merged count %v, want 40000", merged.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		exact := exactQuantile(xs, q)
		if math.Abs(merged.Quantile(q)-exact) > 2.5 {
			t.Errorf("merged q=%v: got %.3f, exact %.3f", q, merged.Quantile(q), exact)
		}
	}
}

func TestTDigestCompressionBound(t *testing.T) {
	d := NewTDigest(100)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100000; i++ {
		d.Add(rng.Float64())
	}
	if n := d.Centroids(); n > 250 {
		t.Errorf("centroid count %d exceeds compression bound", n)
	}
}

func TestTDigestWeighted(t *testing.T) {
	d := NewTDigest(DefaultCompression)
	d.AddWeighted(10, 90)
	d.AddWeighted(100, 10)
	// With two centroids interpolation smears between them; low quantiles
	// must sit at the heavy value and high quantiles at the light one.
	if got := d.Quantile(0.3); math.Abs(got-10) > 5 {
		t.Errorf("q=0.3 of 90%% tens should be ~10, got %v", got)
	}
	if got := d.Quantile(0.99); got < 80 {
		t.Errorf("q=0.99 should approach 100, got %v", got)
	}
	if got := d.Count(); got != 100 {
		t.Errorf("count %v, want 100", got)
	}
	d.AddWeighted(5, 0)
	d.AddWeighted(5, -3)
	d.Add(math.NaN())
	if got := d.Count(); got != 100 {
		t.Error("zero/negative weight and NaN must be ignored")
	}
}

func TestTDigestBinaryRoundTrip(t *testing.T) {
	d := NewTDigest(DefaultCompression)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		d.Add(rng.ExpFloat64() * 10)
	}
	buf := d.AppendBinary(nil)
	got, rest, err := DecodeTDigest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
	if got.Count() != d.Count() {
		t.Errorf("count %v vs %v", got.Count(), d.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if math.Abs(got.Quantile(q)-d.Quantile(q)) > 1e-9 {
			t.Errorf("q=%v differs after round trip", q)
		}
	}
	if _, _, err := DecodeTDigest(buf[:5]); err == nil {
		t.Error("truncated input must fail")
	}
	if _, _, err := DecodeTDigest(nil); err == nil {
		t.Error("empty input must fail")
	}
}

func TestTDigestMergeNil(t *testing.T) {
	d := NewTDigest(DefaultCompression)
	d.Add(1)
	d.Merge(nil)
	if d.Count() != 1 {
		t.Error("merging nil must be a no-op")
	}
}

func BenchmarkTDigestAdd(b *testing.B) {
	d := NewTDigest(DefaultCompression)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(xs[i%1024])
	}
}

func BenchmarkTDigestQuantile(b *testing.B) {
	d := NewTDigest(DefaultCompression)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		d.Add(rng.Float64())
	}
	d.Quantile(0.5) // force process
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Quantile(0.9)
	}
}

func BenchmarkTDigestMerge(b *testing.B) {
	mk := func(seed int64) *TDigest {
		d := NewTDigest(DefaultCompression)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			d.Add(rng.Float64())
		}
		d.Quantile(0.5)
		return d
	}
	x, y := mk(1), mk(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := NewTDigest(DefaultCompression)
		z.Merge(x)
		z.Merge(y)
	}
}

// TestTDigestMergeGrowsExactly: a receiver without room for the merge
// grows to exactly len(t)+len(o) centroids, not append's double — a fold
// decodes a master digest at exact size and merges a period into it once —
// and the merge gives the bits it gives into a digest with room.
func TestTDigestMergeGrowsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 30, 5000} {
		master, period := NewTDigest(DefaultCompression), NewTDigest(DefaultCompression)
		for i := 0; i < n; i++ {
			master.Add(rng.NormFloat64())
			period.Add(rng.NormFloat64() + 1)
		}
		dec, _, err := DecodeTDigest(master.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		need := len(dec.centroids) + period.Centroids()
		roomy := dec
		roomy.centroids = append(make([]centroid, 0, 4*need), dec.centroids...)
		dec.Merge(period)
		roomy.Merge(period)
		if cap(dec.centroids) > need {
			t.Errorf("n=%d: capacity %d after a merge of %d centroids", n, cap(dec.centroids), need)
		}
		if !bytes.Equal(dec.AppendBinary(nil), roomy.AppendBinary(nil)) {
			t.Errorf("n=%d: the exact-grown merge differs from one with room", n)
		}
	}
}

// Merging into an empty digest of the same compression takes a copying
// shortcut; it must give the bits the compression pass it skips would.
func TestTDigestMergeIntoEmptyIsRecompression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 50, 799, 800, 5000, 40000} {
		src := NewTDigest(DefaultCompression)
		for i := 0; i < n; i++ {
			src.AddWeighted(rng.NormFloat64()*30+rng.Float64(), 1+float64(rng.Intn(3)))
		}
		fast := NewTDigest(DefaultCompression)
		fast.Merge(src)
		// The pass the shortcut skips: src's centroids through process.
		slow := NewTDigest(DefaultCompression)
		slow.min, slow.max = src.min, src.max
		slow.centroids = slices.Clone(src.centroids)
		slow.compress(src.totalW)
		if !bytes.Equal(fast.AppendBinary(nil), slow.AppendBinary(nil)) || !bytes.Equal(fast.AppendBinary(nil), src.AppendBinary(nil)) {
			t.Fatalf("n=%d: copy, recompression and source differ", n)
		}
		if fast.Count() != src.Count() || &fast.centroids[0] == &src.centroids[0] {
			t.Fatalf("n=%d: count %v want %v, or centroids shared with the source", n, fast.Count(), src.Count())
		}
	}
	// A different compression is a real recompression, not a copy.
	src, coarse := NewTDigest(200), NewTDigest(20)
	for i := 0; i < 5000; i++ {
		src.Add(rng.Float64())
	}
	coarse.Merge(src)
	if coarse.Centroids() >= src.Centroids() {
		t.Fatalf("merge into compression 20 kept %d of %d centroids", coarse.Centroids(), src.Centroids())
	}
}
