package obs

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestInstrumentRecordsStatusAndLatency(t *testing.T) {
	reg := NewRegistry()
	h := Instrument(reg, "/v1/cell", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		switch r.URL.Query().Get("mode") {
		case "missing":
			http.Error(w, "no cell", http.StatusNotFound)
		case "boom":
			w.WriteHeader(http.StatusInternalServerError)
		default:
			_, _ = w.Write([]byte("ok")) // implicit 200
		}
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, q := range []string{"", "", "?mode=missing", "?mode=boom"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	get := func(class string) int64 {
		return reg.Counter(MetricHTTPRequests, Labels{"endpoint": "/v1/cell", "class": class}).Value()
	}
	if get("2xx") != 2 || get("4xx") != 1 || get("5xx") != 1 {
		t.Errorf("class counts 2xx=%d 4xx=%d 5xx=%d", get("2xx"), get("4xx"), get("5xx"))
	}
	hist := reg.Histogram(MetricHTTPRequestSeconds, Labels{"endpoint": "/v1/cell"})
	if hist.Count() != 4 {
		t.Errorf("latency observations %d, want 4", hist.Count())
	}
	// Every request slept 2ms, so the recorded latency must exceed that.
	if q := hist.Quantile(0.5); !(q >= 0.001) {
		t.Errorf("p50 latency %v implausibly small", q)
	}
	if fl := reg.Gauge(MetricHTTPInFlight, nil).Value(); fl != 0 {
		t.Errorf("in-flight gauge %v after completion", fl)
	}
	// The scrape output carries the per-endpoint series.
	out := reg.Expose()
	for _, want := range []string{
		`pol_http_requests_total{class="2xx",endpoint="/v1/cell"} 2`,
		`pol_http_request_seconds_count{endpoint="/v1/cell"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestAccessLogEmitsStructuredLine(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := AccessLog(logger, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	}))
	req := httptest.NewRequest("GET", "/v1/eta?lat=1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/v1/eta", "status=418"} {
		if !strings.Contains(line, want) {
			t.Errorf("access log missing %q: %s", want, line)
		}
	}
}

func TestHealthAndReadiness(t *testing.T) {
	status := func(h http.Handler) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		return rec.Code
	}
	if s := status(HealthzHandler()); s != http.StatusOK {
		t.Errorf("healthz %d", s)
	}
	ready := false
	h := ReadyzDetailHandler(func() (bool, string) { return ready, "" })
	if s := status(h); s != http.StatusServiceUnavailable {
		t.Errorf("readyz before ready: %d, want 503", s)
	}
	ready = true
	if s := status(h); s != http.StatusOK {
		t.Errorf("readyz after ready: %d, want 200", s)
	}
}

func TestReadyzDetail(t *testing.T) {
	probe := func(h http.Handler) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		return rec.Code, rec.Body.String()
	}
	ok, detail := true, ""
	h := ReadyzDetailHandler(func() (bool, string) { return ok, detail })
	if code, body := probe(h); code != http.StatusOK || body != "ready\n" {
		t.Errorf("healthy: %d %q", code, body)
	}
	detail = "degraded: journal broken"
	if code, body := probe(h); code != http.StatusOK || body != "ready (degraded: journal broken)\n" {
		t.Errorf("ready-degraded: %d %q — probes must still get 200", code, body)
	}
	ok, detail = false, "loading checkpoint"
	if code, body := probe(h); code != http.StatusServiceUnavailable || body != "not ready: loading checkpoint\n" {
		t.Errorf("not-ready: %d %q", code, body)
	}
}

func TestShedRejectsOverInFlightLimit(t *testing.T) {
	reg := NewRegistry()
	entered := make(chan struct{})
	release := make(chan struct{})
	h := Shed(reg, 1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		_, _ = w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// First request occupies the single slot.
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered

	// Second request must be shed immediately with 429 + Retry-After.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}
	if v := reg.Counter(MetricHTTPShed, nil).Value(); v != 1 {
		t.Errorf("%s = %d, want 1", MetricHTTPShed, v)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Slot released: a fresh request succeeds (release is closed, so the
	// handler no longer blocks; just drain its entered signal).
	go func() { <-entered }()
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d, want 200", resp.StatusCode)
	}
	if v := reg.Counter(MetricHTTPShed, nil).Value(); v != 1 {
		t.Errorf("shed counter moved to %d after release, want still 1", v)
	}
}
