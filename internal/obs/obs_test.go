package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact exposition text for a registry with
// one of each metric kind — the format a Prometheus scraper parses.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Help("pol_requests_total", "requests served")
	reg.Counter("pol_requests_total", Labels{"endpoint": "/v1/cell", "class": "2xx"}).Add(3)
	reg.Counter("pol_requests_total", Labels{"endpoint": "/v1/cell", "class": "5xx"}).Inc()
	reg.Gauge("pol_queue_depth", nil).Set(7.5)
	h := reg.Histogram("pol_latency_seconds", Labels{"endpoint": "/v1/cell"}, 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)

	want := strings.Join([]string{
		`# TYPE pol_latency_seconds histogram`,
		`pol_latency_seconds_bucket{endpoint="/v1/cell",le="0.1"} 1`,
		`pol_latency_seconds_bucket{endpoint="/v1/cell",le="1"} 3`,
		`pol_latency_seconds_bucket{endpoint="/v1/cell",le="+Inf"} 4`,
		`pol_latency_seconds_sum{endpoint="/v1/cell"} 6.05`,
		`pol_latency_seconds_count{endpoint="/v1/cell"} 4`,
		`# TYPE pol_queue_depth gauge`,
		`pol_queue_depth 7.5`,
		`# HELP pol_requests_total requests served`,
		`# TYPE pol_requests_total counter`,
		`pol_requests_total{class="2xx",endpoint="/v1/cell"} 3`,
		`pol_requests_total{class="5xx",endpoint="/v1/cell"} 1`,
		``,
	}, "\n")
	if got := reg.Expose(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestGetOrCreateReturnsSameInstance(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", Labels{"x": "1"})
	b := reg.Counter("c", Labels{"x": "1"})
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	if reg.Counter("c", Labels{"x": "2"}) == a {
		t.Error("different labels must return a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind conflict must panic")
		}
	}()
	reg.Gauge("c", Labels{"x": "1"})
}

func TestFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	v := 41.0
	reg.GaugeFunc("pol_g", nil, func() float64 { return v })
	reg.CounterFunc("pol_c", nil, func() float64 { return 2 * v })
	v = 42
	out := reg.Expose()
	if !strings.Contains(out, "pol_g 42") || !strings.Contains(out, "pol_c 84") {
		t.Errorf("func metrics not sampled at exposition:\n%s", out)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram() // DefLatencyBuckets
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile must be NaN")
	}
	// 100 observations uniform in (0, 1s]: quantiles should roughly track.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if math.Abs(h.Sum()-50.5) > 1e-9 {
		t.Errorf("sum %v", h.Sum())
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 > 0.3 && p50 < 0.7) {
		t.Errorf("p50 %v", p50)
	}
	if !(p90 >= p50 && p99 >= p90) {
		t.Errorf("quantiles unordered: %v %v %v", p50, p90, p99)
	}
	if p99 > 1.01 {
		t.Errorf("p99 %v beyond max observation bucket", p99)
	}
	// Observations beyond the largest bound must NOT cap at the last
	// finite bound: the overflow bucket interpolates toward the observed
	// maximum (regression: silent p99 capping defeated a p99 gate).
	over := NewHistogram(0.1, 1)
	over.Observe(100)
	if q := over.Quantile(0.5); !(q > 1 && q <= 100) {
		t.Errorf("overflow quantile %v, want in (1, 100]", q)
	}
}

// TestHistogramOverflowQuantile is the regression test for the overflow
// bucket: tail quantiles whose rank lands past the last finite bound
// interpolate between that bound and the observed maximum instead of
// silently reporting the bound itself.
func TestHistogramOverflowQuantile(t *testing.T) {
	h := NewHistogram(0.1, 1) // overflow bucket is (1, +Inf)
	// 90 in-range observations, 10 way past the last bound.
	for i := 0; i < 90; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 10; i++ {
		h.Observe(30)
	}
	if got := h.Max(); got != 30 {
		t.Fatalf("max %v, want 30", got)
	}
	// p50 is still in-range...
	if q := h.Quantile(0.5); q > 0.1 {
		t.Errorf("p50 %v, want <= 0.1", q)
	}
	// ...but p99 lands in the overflow bucket: the buggy behavior
	// reported 1.0 (the last bound); the fix reports a value between the
	// bound and the max, so an SLO gate at e.g. 2s trips.
	p99 := h.Quantile(0.99)
	if !(p99 > 1 && p99 <= 30) {
		t.Errorf("overflow p99 %v, want in (1, 30]", p99)
	}
	// q=1 reaches the max exactly.
	if q := h.Quantile(1); math.Abs(q-30) > 1e-9 {
		t.Errorf("p100 %v, want 30", q)
	}
	// All-overflow histograms interpolate across the whole bucket.
	all := NewHistogram(0.1, 1)
	for i := 0; i < 100; i++ {
		all.Observe(10)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if v := all.Quantile(q); !(v > 1 && v <= 10) {
			t.Errorf("all-overflow quantile(%v) = %v, want in (1, 10]", q, v)
		}
	}
}

// TestHistogramExemplars checks that traced observations surface as
// OpenMetrics exemplar suffixes on their bucket lines, and untraced
// histograms render the classic format untouched.
func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("pol_test_seconds", nil)
	h.Observe(0.01)
	if got := reg.Expose(); strings.Contains(got, "# {") {
		t.Fatalf("untraced histogram rendered an exemplar:\n%s", got)
	}
	h.ObserveExemplar(0.3, "cafe1234cafe1234cafe1234cafe1234")
	out := reg.Expose()
	want := `pol_test_seconds_bucket{le="0.5"} 2 # {trace_id="cafe1234cafe1234cafe1234cafe1234"} 0.3 `
	if !strings.Contains(out, want) {
		t.Fatalf("exemplar suffix missing:\nwant fragment %q\ngot:\n%s", want, out)
	}
}

// TestRegistryConcurrency hammers the registry from many goroutines while
// exposition runs — meaningful under `go test -race`.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	const workers, iters = 8, 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("pol_c", Labels{"w": string(rune('a' + w%4))}).Inc()
				reg.Gauge("pol_g", nil).Set(float64(i))
				reg.Histogram("pol_h", nil).Observe(float64(i) / iters)
				reg.GaugeFunc("pol_f", nil, func() float64 { return float64(i) })
				if i%50 == 0 {
					_ = reg.Expose()
				}
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, l := range []string{"a", "b", "c", "d"} {
		total += reg.Counter("pol_c", Labels{"w": l}).Value()
	}
	if total != workers*iters {
		t.Errorf("lost increments: %d, want %d", total, workers*iters)
	}
	if reg.Histogram("pol_h", nil).Count() != workers*iters {
		t.Errorf("histogram lost observations")
	}
}
