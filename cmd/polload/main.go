// Command polload is an open-loop HTTP load generator for the serving
// tier: it fires requests at a fixed arrival rate against one or more
// polserve nodes (round-robin), draws endpoints from a
// weighted mix, and reports per-endpoint latency quantiles (p50/p90/
// p99/p999) suitable for SLO checks.
//
// Targets are health-checked passively: a transport failure or 5xx
// marks the target unhealthy and the round-robin skips it while a
// background prober polls its /readyz with jittered backoff; the first
// 200 puts it back in rotation. Requests that still fail count as
// errors — polload measures availability, it does not hide it. There is
// deliberately no replication-term routing here (targets may mix
// primaries, replicas and disk-backed servers, where "highest term"
// is meaningless for read traffic); health is the only signal.
//
// Open-loop means the arrival schedule is absolute: request i is
// dispatched at start + i/rate regardless of how fast earlier responses
// came back, so a slow server shows up as tail latency (and eventually
// shed requests) instead of silently throttling the generator — the
// coordinated-omission-free way to measure a serving SLO.
//
// Usage:
//
//	polload -targets http://localhost:8080 -rate 500 -duration 30s
//	polload -targets http://r1:8081,http://r2:8082 \
//	        -mix "info=1,cell=6,destinations=2,eta=1"
//
// The summary is printed as JSON. -max-p99 turns the run into a gate:
// exit 1 when the overall p99 exceeds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
)

// sloBuckets are finer than obs.DefLatencyBuckets at the fast end so
// sub-millisecond local serving still quantizes meaningfully.
var sloBuckets = []float64{
	0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02,
	0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10,
}

// endpointStats aggregates one endpoint's outcomes across the run.
type endpointStats struct {
	hist     *obs.Histogram
	requests atomic.Int64
	errors   atomic.Int64
}

// EndpointSummary is the per-endpoint block of the JSON report.
type EndpointSummary struct {
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	MeanMs   float64 `json:"mean_ms"`
	P50Ms    float64 `json:"p50_ms"`
	P90Ms    float64 `json:"p90_ms"`
	P99Ms    float64 `json:"p99_ms"`
	P999Ms   float64 `json:"p999_ms"`
}

// Summary is the full JSON report.
type Summary struct {
	Targets       []string                   `json:"targets"`
	RateTarget    float64                    `json:"rate_target"`
	RateAchieved  float64                    `json:"rate_achieved"`
	DurationSecs  float64                    `json:"duration_seconds"`
	Sent          int64                      `json:"sent"`
	Errors        int64                      `json:"errors"`
	Dropped       int64                      `json:"dropped"`
	Overall       EndpointSummary            `json:"overall"`
	Endpoints     map[string]EndpointSummary `json:"endpoints"`
	GeneratedUnix int64                      `json:"generated_unix"`
}

func main() {
	var (
		targets  = flag.String("targets", "http://localhost:8080", "comma-separated base URLs, round-robin")
		rate     = flag.Float64("rate", 200, "total request arrival rate (req/s, open loop)")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		mix      = flag.String("mix", "info=1,cell=6,destinations=2,eta=1", "endpoint weight mix: name=weight,...")
		bbox     = flag.String("bbox", "45,-10,60,10", "latMin,lngMin,latMax,lngMax box for random cell queries")
		origin   = flag.String("origin", "Rotterdam", "origin port for eta/odcells queries")
		dest     = flag.String("dest", "Hamburg", "destination port for eta/odcells queries")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		seed     = flag.Int64("seed", 1, "random seed (query coordinates and endpoint draw)")
		inflight = flag.Int("max-inflight", 4096, "cap on concurrently outstanding requests; arrivals past it count as dropped")
		maxP99   = flag.Duration("max-p99", 0, "exit 1 when overall p99 exceeds this (0 disables the gate)")
	)
	flag.Parse()

	tlist := splitNonEmpty(*targets)
	if len(tlist) == 0 || *rate <= 0 {
		fmt.Fprintln(os.Stderr, "polload: need -targets and a positive -rate")
		os.Exit(2)
	}
	picker, err := newEndpointPicker(*mix, *bbox, *origin, *dest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polload:", err)
		os.Exit(2)
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *inflight,
			MaxIdleConnsPerHost: *inflight,
		},
	}
	rng := rand.New(rand.NewSource(*seed))
	ts := newTargetSet(tlist, *timeout)
	defer ts.stop()

	// Every request roots a fresh trace and carries its W3C traceparent,
	// so any latency outlier in the server's histograms has an exemplar
	// pointing at a queryable /v1/traces entry.
	tr := trace.New(trace.Options{Service: "polload"})

	stats := make(map[string]*endpointStats, len(picker.names()))
	for _, name := range picker.names() {
		stats[name] = &endpointStats{hist: obs.NewHistogram(sloBuckets...)}
	}
	overall := &endpointStats{hist: obs.NewHistogram(sloBuckets...)}

	var (
		wg      sync.WaitGroup
		sent    atomic.Int64
		dropped atomic.Int64
		slots   = make(chan struct{}, *inflight)
	)
	interval := time.Duration(float64(time.Second) / *rate)
	start := time.Now()
	deadline := start.Add(*duration)
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.After(deadline) {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		name, path := picker.draw(rng)
		ti := ts.pick()
		u := tlist[ti] + path
		select {
		case slots <- struct{}{}:
		default:
			dropped.Add(1)
			continue
		}
		sent.Add(1)
		wg.Add(1)
		go func(name, u string, ti int) {
			defer wg.Done()
			defer func() { <-slots }()
			es := stats[name]
			es.requests.Add(1)
			span := tr.StartRoot("polload." + strings.TrimPrefix(name, "/v1/"))
			span.SetAttr("url", u)
			t0 := time.Now()
			ok := fire(client, u, span)
			el := time.Since(t0).Seconds()
			if !ok {
				ts.markDown(ti)
				span.MarkError()
				span.Finish()
				es.errors.Add(1)
				overall.errors.Add(1)
				return
			}
			span.Finish()
			es.hist.Observe(el)
			overall.hist.Observe(el)
		}(name, u, ti)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := Summary{
		Targets:       tlist,
		RateTarget:    *rate,
		RateAchieved:  float64(sent.Load()) / elapsed.Seconds(),
		DurationSecs:  elapsed.Seconds(),
		Sent:          sent.Load(),
		Errors:        overall.errors.Load(),
		Dropped:       dropped.Load(),
		Overall:       summarize(overall, sent.Load()),
		Endpoints:     map[string]EndpointSummary{},
		GeneratedUnix: time.Now().Unix(),
	}
	for name, es := range stats {
		if es.requests.Load() > 0 {
			sum.Endpoints[name] = summarize(es, es.requests.Load())
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "polload:", err)
		os.Exit(1)
	}
	if *maxP99 > 0 && sum.Overall.P99Ms > float64(*maxP99)/float64(time.Millisecond) {
		fmt.Fprintf(os.Stderr, "polload: SLO violated: overall p99 %.2fms > %s\n",
			sum.Overall.P99Ms, *maxP99)
		os.Exit(1)
	}
}

// targetSet round-robins over the targets that currently look healthy.
// fire outcomes drive the health bit (any transport failure or 5xx
// marks a target down); a background prober per down target polls its
// /readyz with jittered doubling backoff and restores the target on the
// first 200. When every target is down the full list is used — the
// generator keeps measuring rather than stalling, and the first target
// to answer heals itself through the same fire path.
type targetSet struct {
	bases   []string
	healthy []atomic.Bool
	probing []atomic.Bool
	next    atomic.Int64
	client  *http.Client
	done    chan struct{}
	wg      sync.WaitGroup
}

func newTargetSet(bases []string, timeout time.Duration) *targetSet {
	ts := &targetSet{
		bases:   bases,
		healthy: make([]atomic.Bool, len(bases)),
		probing: make([]atomic.Bool, len(bases)),
		client:  &http.Client{Timeout: timeout},
		done:    make(chan struct{}),
	}
	for i := range ts.healthy {
		ts.healthy[i].Store(true)
	}
	return ts
}

func (ts *targetSet) pick() int {
	n := len(ts.bases)
	start := int(ts.next.Add(1)-1) % n
	for off := 0; off < n; off++ {
		if i := (start + off) % n; ts.healthy[i].Load() {
			return i
		}
	}
	return start
}

func (ts *targetSet) markDown(i int) {
	if !ts.healthy[i].CompareAndSwap(true, false) {
		return
	}
	if !ts.probing[i].CompareAndSwap(false, true) {
		return
	}
	ts.wg.Add(1)
	go func() {
		defer ts.wg.Done()
		defer ts.probing[i].Store(false)
		delay := 100 * time.Millisecond
		for {
			select {
			case <-ts.done:
				return
			case <-time.After(delay/2 + time.Duration(rand.Int63n(int64(delay)))):
			}
			resp, err := ts.client.Get(ts.bases[i] + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ts.healthy[i].Store(true)
					return
				}
			}
			if delay *= 2; delay > 2*time.Second {
				delay = 2 * time.Second
			}
		}
	}()
}

func (ts *targetSet) stop() {
	close(ts.done)
	ts.wg.Wait()
}

// fire issues one GET and reports whether the server answered it: any
// status below 500 counts (a 404 for an empty ocean cell is a correctly
// served request whose latency belongs in the SLO); transport failures
// and 5xx are errors. The body is drained so connections can be reused.
func fire(client *http.Client, u string, span *trace.Span) bool {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return false
	}
	trace.Inject(req, span)
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	return resp.StatusCode < 500
}

func summarize(es *endpointStats, requests int64) EndpointSummary {
	s := EndpointSummary{Requests: requests, Errors: es.errors.Load()}
	if n := es.hist.Count(); n > 0 {
		ms := func(q float64) float64 { return es.hist.Quantile(q) * 1000 }
		s.MeanMs = es.hist.Sum() / float64(n) * 1000
		s.P50Ms, s.P90Ms, s.P99Ms, s.P999Ms = ms(0.5), ms(0.9), ms(0.99), ms(0.999)
	}
	return s
}

// endpointPicker draws a weighted endpoint kind and renders its query
// path with randomized parameters.
type endpointPicker struct {
	kinds   []string
	weights []float64
	total   float64

	latMin, latMax float64
	lngMin, lngMax float64
	origin, dest   string
}

func newEndpointPicker(mix, bbox, origin, dest string) (*endpointPicker, error) {
	p := &endpointPicker{origin: origin, dest: dest}
	box := splitNonEmpty(bbox)
	if len(box) != 4 {
		return nil, fmt.Errorf("bad -bbox %q: want latMin,lngMin,latMax,lngMax", bbox)
	}
	vals := make([]float64, 4)
	for i, s := range box {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -bbox %q: %w", bbox, err)
		}
		vals[i] = v
	}
	p.latMin, p.lngMin, p.latMax, p.lngMax = vals[0], vals[1], vals[2], vals[3]
	if p.latMax <= p.latMin || p.lngMax <= p.lngMin {
		return nil, fmt.Errorf("bad -bbox %q: empty box", bbox)
	}
	for _, part := range splitNonEmpty(mix) {
		name, wstr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q: want name=weight", part)
		}
		w, err := strconv.ParseFloat(wstr, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -mix weight %q", part)
		}
		switch name {
		case "info", "cell", "destinations", "eta", "odcells":
		default:
			return nil, fmt.Errorf("unknown -mix endpoint %q (have info, cell, destinations, eta, odcells)", name)
		}
		p.kinds = append(p.kinds, name)
		p.weights = append(p.weights, w)
		p.total += w
	}
	if len(p.kinds) == 0 {
		return nil, fmt.Errorf("empty -mix")
	}
	return p, nil
}

func (p *endpointPicker) names() []string {
	out := map[string]bool{}
	for _, k := range p.kinds {
		out["/v1/"+k] = true
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// draw picks a kind by weight and returns (stats name, query path).
func (p *endpointPicker) draw(rng *rand.Rand) (string, string) {
	r := rng.Float64() * p.total
	kind := p.kinds[len(p.kinds)-1]
	for i, w := range p.weights {
		if r < w {
			kind = p.kinds[i]
			break
		}
		r -= w
	}
	lat := p.latMin + rng.Float64()*(p.latMax-p.latMin)
	lng := p.lngMin + rng.Float64()*(p.lngMax-p.lngMin)
	switch kind {
	case "info":
		return "/v1/info", "/v1/info"
	case "cell":
		return "/v1/cell", fmt.Sprintf("/v1/cell?lat=%.4f&lng=%.4f", lat, lng)
	case "destinations":
		return "/v1/destinations", fmt.Sprintf("/v1/destinations?lat=%.4f&lng=%.4f&n=5", lat, lng)
	case "eta":
		return "/v1/eta", "/v1/eta?origin=" + url.QueryEscape(p.origin) + "&dest=" + url.QueryEscape(p.dest)
	default: // odcells
		return "/v1/odcells", "/v1/odcells?origin=" + url.QueryEscape(p.origin) + "&dest=" + url.QueryEscape(p.dest)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if t := strings.TrimSpace(part); t != "" {
			out = append(out, t)
		}
	}
	return out
}
