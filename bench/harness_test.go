package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for polbench when the harness
// starts its child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		if err := sutMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "polbench sut:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n int
		q float64
	}{
		{39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		q, v := tailPercentile(seq(tc.n))
		if q != tc.q {
			t.Errorf("n=%d: reported p%g, want p%g", tc.n, q*100, tc.q*100)
		}
		if beyond := math.Round(float64(tc.n) * (1 - q)); q > 0.5 && beyond < 10 {
			t.Errorf("n=%d: p%g has only %.1f samples beyond it", tc.n, q*100, beyond)
		}
		if want := quantile(seq(tc.n), q); v != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("ten values: got %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q3 = quartiles([]float64{40, 10, 20})
	if q1 != 10 || q3 != 40 {
		t.Errorf("three values: got %v %v, want 10 40", q1, q3)
	}
}

func TestPaceKeepsScheduleAndReportsLateness(t *testing.T) {
	start := time.Now()
	var dues []time.Time
	// A sleep that oversleeps by 3 ms stands in for a descheduled pacer.
	over := func(d time.Duration) { time.Sleep(d + 3*time.Millisecond) }
	late := pace(start, 100, 20, over, func(i int, due time.Time) { dues = append(dues, due) })
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); due != want {
			t.Fatalf("item %d due %v, want %v: the schedule must not drift with the pacer", i, due.Sub(start), want.Sub(start))
		}
	}
	if med := median(late); med < 3000 {
		t.Errorf("median lateness %.0f us, want at least the 3000 us the sleep adds", med)
	}
}

func TestOpenLoopTimesFromDueUnderStall(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(300 * time.Millisecond) // one stalled request
		}
		fmt.Fprintln(w, "{}")
	}))
	defer srv.Close()
	reqs := []request{{route: "cell", path: "/", check: func([]byte) error { return nil }}}
	res := openLoop(strings.TrimPrefix(srv.URL, "http://"), reqs, 200, time.Second, 1, false, nil, time.Sleep)
	if res.attempted != 200 || res.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 200 and 0", res.attempted, res.failed)
	}
	// The stall delays the ~60 requests due during it. Timed from when each
	// was sent they would all read ~0 ms; timed from when each was due they
	// carry the wait.
	waited := 0
	for _, ms := range res.latMs {
		if ms > 50 {
			waited++
		}
	}
	if waited < 30 {
		t.Errorf("%d requests show the stall, want at least 30 (latency must run from the due time)", waited)
	}
	if p50 := median(res.latMs); p50 > 50 {
		t.Errorf("median %v ms: the stall should not reach the median", p50)
	}
	if res.elapsed > 1500*time.Millisecond {
		t.Errorf("open loop took %v: the pacer must not wait for answers", res.elapsed)
	}
}

func TestFreshnessJoin(t *testing.T) {
	sent := &sendLog{}
	base := int64(1_000_000_000)
	for i := 1; i <= 10; i++ { // reports 1..100 in chunks of ten, 10 ms apart
		sent.upTo = append(sent.upTo, i*10)
		sent.at = append(sent.at, base+int64(i)*10e6)
	}
	primary := []publish{
		{Raw: 25, Used: 7},  // burst phase: left out
		{Raw: 48, Used: 15}, // last report 48 went out with chunk 5 at +50 ms
		{Raw: 48, Used: 15}, // republish of the same content
		{Raw: 90, Used: 40}, // chunk 9 at +90 ms
	}
	replica := []publish{
		{At: base + 40e6, Used: 7},
		{At: base + 62e6, Used: 15},
		{At: base + 70e6, Used: 15}, // second publish of the same merge: not a sample
		{At: base + 95e6, Used: 40},
		{At: base + 99e6, Used: 41}, // no primary publish with these trip records
	}
	got := freshness(primary, replica, sent, 30)
	want := []float64{12, 5}
	if len(got) != len(want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("sample %d = %v ms, want %v", i, got[i], want[i])
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "decode", Start: 10, End: 40, Parent: 0},
		{Name: "build", Start: 30, End: 70, Parent: 0}, // overlaps decode by 10
		{Name: "inner", Start: 35, End: 45, Parent: 2},
		{Name: "late", Start: 90, End: 130, Parent: 0}, // clipped to the parent
	}
	self, count := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"round": 100 - (60 + 10), "decode": 30, "build": 30, "inner": 10, "late": 40,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	if count["round"] != 1 || count["inner"] != 1 {
		t.Errorf("counts %v", count)
	}
	var tr *tracer // the untraced run
	tr.end(tr.start("x", -1))
	if tr.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   verdict
	}{
		{"same", steady, steady, "lower", vOK},
		{"within bound", steady, []float64{108, 109, 107, 108, 110}, "lower", vOK},
		{"slower", steady, []float64{120, 121, 119, 120, 122}, "lower", vWorse},
		{"faster is never worse", steady, []float64{50, 51, 49, 50, 52}, "lower", vOK},
		{"throughput drop", steady, []float64{80, 81, 79, 80, 82}, "higher", vWorse},
		{"throughput gain", steady, []float64{130, 131, 129, 130, 132}, "higher", vOK},
		{"spread wider than bound", steady, []float64{90, 140, 100, 160, 95}, "lower", vUnresolved},
	} {
		if got := judge(tc.a, tc.b, tc.better, 0.10).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	rec := func(wl string, v float64) runRecord {
		return runRecord{Workload: wl, Metrics: map[string]metricValue{"throughput_per_s": {Value: v, Unit: "1/s"}}}
	}
	a := []runRecord{rec("serve-heap", 1000), rec("serve-heap", 1010), rec("serve-heap", 990)}
	b := []runRecord{rec("serve-heap", 700), rec("serve-heap", 710), rec("serve-heap", 690)}
	dir := t.TempDir()
	for name, recs := range map[string][]runRecord{"a.jsonl": a, "b.jsonl": b} {
		for i := range recs {
			if err := appendRecord(filepath.Join(dir, name), &recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	worse, err := compareFiles(&out, resultsPath(filepath.Join(dir, "a.jsonl")), resultsPath(filepath.Join(dir, "b.jsonl")))
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30%% throughput drop must be reported worse:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in
// spec.go from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %s/%s/%s", kind, i, g, w.name, w.unit, w.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound) {
				t.Errorf("%s %s: bound differs from spec.go's %v", kind, w.name, w.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestSmokeAllWorkloads runs the five workloads at a small scale, untraced
// and traced, through their correctness gates.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	dir := t.TempDir()
	run := func(workload string, traced bool) *runRecord {
		rec, err := runWorkload(runArgs{
			workload: workload, seed: 3, seconds: 1, traced: traced,
			shape: fleetShape{vessels: liveVessels, days: baseDays}, clones: 24, setups: 1,
			buildDir: filepath.Join(dir, "build"), outDir: filepath.Join(dir, "out"),
		})
		if err != nil {
			t.Fatalf("%s traced=%v: %v", workload, traced, err)
		}
		if rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s traced=%v: attempted %d failed %d", workload, traced, rec.Attempted, rec.Failed)
		}
		return rec
	}
	// A traced run carries the end-to-end numbers it produced as info, so
	// one run per workload shows both tables.
	for _, w := range workloads {
		rec := run(w.name, true)
		if len(rec.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(rec.Metrics), len(perLayer))
		}
		for _, s := range perLayer {
			if v, ok := rec.Metrics[s.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.name, s.name, v.Value, ok)
			}
		}
		for _, s := range endToEnd {
			if v := rec.Info[s.name]; !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, s.name, v.Value)
			}
		}
		isolation(t, w.name, rec.Metrics)
	}
	// The untraced run reports exactly the end-to-end metrics.
	rec := run("serve-segment-cold", false)
	if len(rec.Metrics) != len(endToEnd) {
		t.Errorf("untraced run: %d metrics, want %d", len(rec.Metrics), len(endToEnd))
	}
	for _, s := range endToEnd {
		if v, ok := rec.Metrics[s.name]; !ok || !(v.Value > 0) {
			t.Errorf("untraced run: %s = %v (present %v)", s.name, v.Value, ok)
		}
	}
}

// isolation checks that layers a workload bypasses read zero on it.
func isolation(t *testing.T, workload string, m map[string]metricValue) {
	zeroOn := map[string][]string{
		"archive-build":      {"cluster.", "ingest.", "replica.", "api.", "segment.get_", "segment.cache_hit_ratio"},
		"cluster-build":      {"ingest.", "replica.", "api.", "dataflow.", "segment.get_"},
		"live-ingest":        {"dataflow.", "cluster.", "feed.", "segment."},
		"serve-heap":         {"dataflow.", "cluster.", "feed.", "ingest.", "replica.", "segment."},
		"serve-segment-cold": {"dataflow.", "cluster.", "feed.", "ingest.", "replica.", "inventory."},
	}
	for name, v := range m {
		for _, prefix := range zeroOn[workload] {
			if strings.HasPrefix(name, prefix) && v.Value != 0 {
				t.Errorf("%s: %s = %v, want 0 (the workload bypasses that layer)", workload, name, v.Value)
			}
		}
	}
	nonZero := map[string][]string{
		"archive-build":      {"feed.decode_ns_per_record", "pipeline.clean_ns_per_record", "dataflow.reduce_merge_ns_per_row", "segment.write_ns_per_group"},
		"cluster-build":      {"cluster.task_s_sum", "cluster.shuffle_bytes_wire", "cluster.overhead_frac"},
		"live-ingest":        {"ingest.submit_ns_per_record", "ingest.merges", "replica.apply_records_per_s", "inventory.observe_ns_per_obs"},
		"serve-heap":         {"api.handler_us_p50.cell", "api.handler_us_p50.info", "inventory.get_ns", "net.http_overhead_us_p50"},
		"serve-segment-cold": {"segment.get_us_miss", "segment.cache_hit_ratio", "segment.pinned_mb", "api.handler_us_p50.eta"},
	}
	for _, name := range nonZero[workload] {
		if m[name].Value <= 0 {
			t.Errorf("%s: %s = %v, want a positive reading", workload, name, m[name].Value)
		}
	}
}
