package obs

import (
	"log/slog"
	"net/http"
	"time"

	"github.com/patternsoflife/pol/internal/obs/trace"
)

// Metric names recorded by the HTTP middleware.
const (
	MetricHTTPRequests       = "pol_http_requests_total"
	MetricHTTPRequestSeconds = "pol_http_request_seconds"
	MetricHTTPInFlight       = "pol_http_in_flight_requests"
	MetricHTTPShed           = "pol_http_shed_total"
)

// statusWriter captures the response status code and byte count.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush passes through streaming flushes when the underlying writer
// supports them.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// statusClass buckets a status code into "2xx".."5xx".
func statusClass(status int) string {
	switch {
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// Instrument wraps one endpoint's handler, recording request counts per
// status class and a latency histogram under the given endpoint label.
// Wrap each route at registration time so the label set stays bounded by
// the routing table, never by client-supplied paths.
func Instrument(reg *Registry, endpoint string, next http.Handler) http.Handler {
	hist := reg.Histogram(MetricHTTPRequestSeconds, Labels{"endpoint": endpoint})
	inFlight := reg.Gauge(MetricHTTPInFlight, nil)
	// Pre-create the common classes so scrapes show zeros from the start.
	counters := map[string]*Counter{
		"2xx": reg.Counter(MetricHTTPRequests, Labels{"endpoint": endpoint, "class": "2xx"}),
		"3xx": reg.Counter(MetricHTTPRequests, Labels{"endpoint": endpoint, "class": "3xx"}),
		"4xx": reg.Counter(MetricHTTPRequests, Labels{"endpoint": endpoint, "class": "4xx"}),
		"5xx": reg.Counter(MetricHTTPRequests, Labels{"endpoint": endpoint, "class": "5xx"}),
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		inFlight.Add(1)
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		// When a tracing middleware wrapped this endpoint, the ambient
		// span links the latency bucket to the trace as an exemplar.
		if s := trace.FromContext(r.Context()); s != nil {
			hist.ObserveExemplar(time.Since(t0).Seconds(), s.Trace.String())
		} else {
			hist.ObserveSince(t0)
		}
		inFlight.Add(-1)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		counters[statusClass(sw.status)].Inc()
	})
}

// InstrumentTraced composes the tracing and metrics middleware for one
// endpoint: the server span (joining a propagated traceparent when
// present) wraps the metrics layer, whose histogram observation carries
// the span's trace ID as an OpenMetrics exemplar. A nil tracer degrades
// to plain Instrument.
func InstrumentTraced(reg *Registry, tr *trace.Tracer, endpoint string, next http.Handler) http.Handler {
	instrumented := Instrument(reg, endpoint, next)
	if tr == nil {
		return instrumented
	}
	return tr.Middleware(endpoint, instrumented)
}

// AccessLog wraps a handler with structured request logging: one slog
// line per request with method, path, status, bytes and duration.
func AccessLog(logger *slog.Logger, next http.Handler) http.Handler {
	if logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		logger.Info("http",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur", time.Since(t0).Round(time.Microsecond),
			"remote", r.RemoteAddr,
		)
	})
}

// HealthzHandler answers liveness probes: 200 whenever the process can
// serve HTTP at all.
func HealthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// ReadyzDetailHandler is ReadyzHandler with an operator-facing detail
// string: a ready-but-degraded daemon answers 200 "ready (degraded: …)"
// so probes keep routing to it while dashboards and humans see the
// condition at a glance.
func ReadyzDetailHandler(ready func() (bool, string)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ok, detail := true, ""
		if ready != nil {
			ok, detail = ready()
		}
		if ok {
			w.WriteHeader(http.StatusOK)
			if detail != "" {
				_, _ = w.Write([]byte("ready (" + detail + ")\n"))
			} else {
				_, _ = w.Write([]byte("ready\n"))
			}
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		if detail != "" {
			_, _ = w.Write([]byte("not ready: " + detail + "\n"))
			return
		}
		_, _ = w.Write([]byte("not ready\n"))
	})
}

// Shed bounds the requests concurrently inside next: request number
// maxInFlight+1 is answered immediately with 429 and a Retry-After hint
// instead of queueing, so overload degrades into fast rejections rather
// than a latency pile-up. Shed requests are counted in
// pol_http_shed_total.
func Shed(reg *Registry, maxInFlight int, next http.Handler) http.Handler {
	if maxInFlight <= 0 {
		return next
	}
	var shed *Counter
	if reg != nil {
		shed = reg.Counter(MetricHTTPShed, nil)
	}
	slots := make(chan struct{}, maxInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slots <- struct{}{}:
			defer func() { <-slots }()
			next.ServeHTTP(w, r)
		default:
			if shed != nil {
				shed.Inc()
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded, retry later", http.StatusTooManyRequests)
		}
	})
}
