package trace

import (
	"encoding/hex"
	"net/http"
	"strconv"
)

// Header is the W3C trace-context propagation header.
const Header = "traceparent"

// ResponseHeader echoes the request's trace ID back to the caller so
// curl users can look the trace up without generating their own IDs.
const ResponseHeader = "X-Pol-Trace-Id"

// FormatTraceparent renders a W3C traceparent value:
// version 00, 32-hex trace ID, 16-hex parent span ID, flags 01 (sampled —
// every propagated span here is recorded).
func FormatTraceparent(sc SpanContext) string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent decodes a traceparent value. ok is false on any
// malformed input — wrong length, bad hex, zero IDs, unsupported
// version — and callers are expected to fall back to a fresh root span,
// never to fail the request.
func ParseTraceparent(v string) (SpanContext, bool) {
	// "00-" + 32-hex trace id + "-" + 16-hex span id + "-" + 2-hex flags.
	// Only version 00, the version we emit, is accepted, and only the W3C
	// grammar's lowercase hex: hex.Decode alone would also admit
	// uppercase, breaking the parse → format round trip.
	var sc SpanContext
	if len(v) != 55 || v[:3] != "00-" || v[35] != '-' || v[52] != '-' ||
		!isHex(v[3:35]) || !isHex(v[36:52]) || !isHex(v[53:]) {
		return sc, false
	}
	_, _ = hex.Decode(sc.TraceID[:], []byte(v[3:35])) // cannot fail: isHex
	_, _ = hex.Decode(sc.SpanID[:], []byte(v[36:52]))
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// Inject stamps the span's context onto an outgoing request. Nil spans
// and nil requests are no-ops.
func Inject(req *http.Request, s *Span) {
	if req == nil || s == nil {
		return
	}
	if tp := s.TraceParent(); tp != "" {
		req.Header.Set(Header, tp)
	}
}

// Extract reads the incoming request's propagated span context; ok is
// false when the header is absent or malformed.
func Extract(req *http.Request) (SpanContext, bool) {
	if req == nil {
		return SpanContext{}, false
	}
	return ParseTraceparent(req.Header.Get(Header))
}

// Middleware wraps an HTTP handler in a server span named after the
// endpoint: the incoming traceparent (when present and well-formed)
// parents the span so cross-process traces join; otherwise the request
// roots a fresh trace. The span records method, path, status, and
// response size, and 5xx responses mark it failed. A nil tracer returns
// next unchanged.
func (t *Tracer) Middleware(endpoint string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := Extract(r)
		span := t.StartRemote("http."+endpoint, parent)
		span.SetAttr("http.method", r.Method)
		span.SetAttr("http.path", r.URL.Path)
		w.Header().Set(ResponseHeader, span.Trace.String())
		sw := &traceStatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ContextWith(r.Context(), span)))
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		span.SetAttr("http.status", strconv.Itoa(status))
		if status >= 500 {
			span.MarkError()
		}
		span.Finish()
	})
}

// traceStatusWriter captures the response status for span attributes
// while passing streaming flushes through.
type traceStatusWriter struct {
	http.ResponseWriter
	status int
}

func (w *traceStatusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *traceStatusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *traceStatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
