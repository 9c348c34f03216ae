package trace

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMiddlewareContinuity drives a two-hop chain — client span →
// frontend middleware → outbound request → backend middleware — and
// asserts every hop records spans under the one trace ID, with parent
// links crossing both process boundaries.
func TestMiddlewareContinuity(t *testing.T) {
	backendTr := New(Options{Service: "backend"})
	backend := httptest.NewServer(backendTr.Middleware("inner", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, "pong")
		})))
	defer backend.Close()

	frontendTr := New(Options{Service: "frontend"})
	frontend := httptest.NewServer(frontendTr.Middleware("outer", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			// Proxy hop: child span of the server span, injected outbound.
			span := frontendTr.StartChild(FromContext(r.Context()), "proxy.fetch")
			req, _ := http.NewRequest("GET", backend.URL, nil)
			Inject(req, span)
			resp, err := http.DefaultClient.Do(req)
			span.SetError(err)
			span.Finish()
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(w, resp.Body)
		})))
	defer frontend.Close()

	clientTr := New(Options{Service: "client"})
	clientSpan := clientTr.StartRoot("client.request")
	req, _ := http.NewRequest("GET", frontend.URL, nil)
	Inject(req, clientSpan)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	clientSpan.Finish()
	if string(body) != "pong" {
		t.Fatalf("body %q, want pong", body)
	}

	traceID := clientSpan.Trace
	if got := resp.Header.Get(ResponseHeader); got != traceID.String() {
		t.Fatalf("response header trace id %q, want %q", got, traceID.String())
	}

	// Frontend: server span parented to client span, proxy child under it.
	fSpans := frontendTr.Spans(traceID)
	if len(fSpans) != 2 {
		t.Fatalf("frontend retained %d spans of the trace, want 2", len(fSpans))
	}
	var server, proxy *Span
	for _, s := range fSpans {
		switch s.Name {
		case "http.outer":
			server = s
		case "proxy.fetch":
			proxy = s
		}
	}
	if server == nil || proxy == nil {
		t.Fatalf("frontend spans missing: %+v", fSpans)
	}
	if server.Parent != clientSpan.ID {
		t.Fatal("frontend server span not parented to the client span")
	}
	if proxy.Parent != server.ID {
		t.Fatal("proxy span not parented to the server span")
	}

	// Backend: one server span parented to the proxy span, same trace.
	bSpans := backendTr.Spans(traceID)
	if len(bSpans) != 1 {
		t.Fatalf("backend retained %d spans of the trace, want 1", len(bSpans))
	}
	if bSpans[0].Name != "http.inner" || bSpans[0].Parent != proxy.ID {
		t.Fatalf("backend span not joined to the proxy span: %+v", bSpans[0])
	}
}

// TestMiddlewareMalformedHeaders sends a battery of malformed and
// truncated traceparent headers: every request must still succeed (200)
// and record a fresh root span rather than erroring or joining a bogus
// trace.
func TestMiddlewareMalformedHeaders(t *testing.T) {
	tr := New(Options{Service: "test"})
	srv := httptest.NewServer(tr.Middleware("q", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, "ok") })))
	defer srv.Close()

	cases := []string{
		"",
		"garbage",
		"00-zz-zz-zz",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("0", 16) + "-01",
		strings.Repeat("a", 54),
		strings.Repeat("-", 55),
		"00-" + strings.Repeat("1", 31) + "-" + strings.Repeat("2", 17) + "-01",
		"01-" + strings.Repeat("1", 32) + "-" + strings.Repeat("2", 16) + "-01",
	}
	before := tr.SpanCount()
	for _, h := range cases {
		req, _ := http.NewRequest("GET", srv.URL, nil)
		if h != "" {
			req.Header.Set(Header, h)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("header %q: %v", h, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("header %q: status %d", h, resp.StatusCode)
		}
		if resp.Header.Get(ResponseHeader) == "" {
			t.Fatalf("header %q: no trace id on response", h)
		}
	}
	if got := tr.SpanCount() - before; got != int64(len(cases)) {
		t.Fatalf("recorded %d spans for %d requests", got, len(cases))
	}
	// All spans are fresh roots (no parent) since no header was valid.
	for _, s := range tr.all() {
		if !s.Parent.IsZero() {
			t.Fatalf("malformed header produced a parented span: %+v", s)
		}
	}
}

// TestTraceHTTPHandler exercises the /v1/traces query surface over
// httptest: listing, single-trace tree, malformed id, unknown id.
func TestTraceHTTPHandler(t *testing.T) {
	tr := New(Options{Service: "test"})
	root := tr.StartRoot("job")
	tr.StartChild(root, "step").Finish()
	root.Finish()

	mux := http.NewServeMux()
	tr.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	code, body := get("/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("list status %d: %s", code, body)
	}
	var list struct {
		Service string         `json:"service"`
		Traces  []TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Service != "test" || len(list.Traces) != 1 || list.Traces[0].Spans != 2 {
		t.Fatalf("bad listing: %s", body)
	}

	code, body = get("/v1/traces/" + root.Trace.String())
	if code != http.StatusOK {
		t.Fatalf("tree status %d: %s", code, body)
	}
	var tree struct {
		Spans []*SpanJSON `json:"spans"`
	}
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatal(err)
	}
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "job" || len(tree.Spans[0].Children) != 1 {
		t.Fatalf("bad tree: %s", body)
	}

	if code, _ = get("/v1/traces/nothex"); code != http.StatusBadRequest {
		t.Fatalf("malformed id status %d, want 400", code)
	}
	if code, _ = get("/v1/traces/" + NewTraceID().String()); code != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", code)
	}
}
