package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordBasic(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Weight() != 8 {
		t.Errorf("weight %v, want 8", w.Weight())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean %v, want 5", w.Mean())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Errorf("std %v, want 2", w.Std())
	}
	if w.min != 2 || w.max != 9 {
		t.Errorf("min/max %v/%v, want 2/9", w.min, w.max)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Std()) {
		t.Error("empty accumulator must report NaN")
	}
	if w.Weight() != 0 {
		t.Error("empty weight must be 0")
	}
}

func TestWelfordIgnoresBadInput(t *testing.T) {
	var w Welford
	w.Add(math.NaN())
	w.AddWeighted(5, 0)
	w.AddWeighted(5, -1)
	if w.Weight() != 0 {
		t.Error("NaN and non-positive weights must be ignored")
	}
}

func TestWelfordWeighted(t *testing.T) {
	var a, b Welford
	a.AddWeighted(10, 3)
	a.AddWeighted(20, 1)
	for _, x := range []float64{10, 10, 10, 20} {
		b.Add(x)
	}
	if math.Abs(a.Mean()-b.Mean()) > 1e-12 || math.Abs(a.Variance()-b.Variance()) > 1e-9 {
		t.Errorf("weighted (mean %v var %v) must equal repeated (mean %v var %v)",
			a.Mean(), a.Variance(), b.Mean(), b.Variance())
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		k := int(split) % len(clean)
		var whole, left, right Welford
		for _, x := range clean {
			whole.Add(x)
		}
		for _, x := range clean[:k] {
			left.Add(x)
		}
		for _, x := range clean[k:] {
			right.Add(x)
		}
		left.Merge(&right)
		return math.Abs(left.Mean()-whole.Mean()) < 1e-6 &&
			math.Abs(left.Variance()-whole.Variance()) < 1e-3 &&
			left.min == whole.min && left.max == whole.max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, b Welford
	b.Add(3)
	b.Add(5)
	a.Merge(&b) // empty <- full
	if a.Mean() != 4 {
		t.Errorf("merge into empty: mean %v, want 4", a.Mean())
	}
	var empty Welford
	a.Merge(&empty) // full <- empty
	if a.Mean() != 4 || a.Weight() != 2 {
		t.Error("merging an empty accumulator must be a no-op")
	}
}

func TestWelfordMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a1, b1, a2, b2 Welford
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64() * 10
		a1.Add(x)
		a2.Add(x)
	}
	for i := 0; i < 50; i++ {
		x := rng.NormFloat64()*5 + 3
		b1.Add(x)
		b2.Add(x)
	}
	a1.Merge(&b1) // a+b
	b2.Merge(&a2) // b+a
	if math.Abs(a1.Mean()-b2.Mean()) > 1e-9 || math.Abs(a1.Variance()-b2.Variance()) > 1e-6 {
		t.Error("merge must be commutative")
	}
}

func TestWelfordBinaryRoundTrip(t *testing.T) {
	var w Welford
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		w.Add(rng.NormFloat64() * 42)
	}
	buf := w.AppendBinary(nil)
	got, rest, err := DecodeWelford(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
	if got != w {
		t.Errorf("round trip mismatch: %+v vs %+v", got, w)
	}
	if _, _, err := DecodeWelford(buf[:10]); err == nil {
		t.Error("truncated input must fail")
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i % 100))
	}
}

func BenchmarkWelfordMerge(b *testing.B) {
	var x, y Welford
	for i := 0; i < 1000; i++ {
		x.Add(float64(i))
		y.Add(float64(i) * 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := x
		z.Merge(&y)
	}
}
