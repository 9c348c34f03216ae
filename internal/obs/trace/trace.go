// Package trace is a stdlib-only distributed tracing subsystem for the
// Patterns-of-Life daemons. It propagates W3C traceparent identifiers
// across every HTTP surface (query API, replication fetches) and the
// cluster's gob frames, so one request — a polquery lookup, a replica WAL
// fetch, a coordinator job — is followable across process boundaries.
//
// Finished spans land in a fixed-size lock-free ring buffer per process
// (bounded memory, oldest overwritten) plus a tail-sampled keep store:
// error spans and the slowest N locally-rooted spans per name survive
// ring churn. Both are queryable over HTTP (GET /v1/traces and
// /v1/traces/{id}) on every daemon, and the same ring backs the flight
// recorder: anomalous transitions dump the last-K spans to a timestamped
// JSON file for post-mortem analysis.
//
// The package depends only on the standard library and is imported by
// internal/obs (never the reverse), so metrics and traces stay linked
// through exemplars without an import cycle.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end trace (16 bytes, hex-encoded on the
// wire per W3C trace-context).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zeros value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zeros value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 32-char lowercase hex form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String returns the 16-char lowercase hex form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes a 32-char hex trace ID; ok is false on malformed
// or all-zero input.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// SpanContext is the propagated portion of a span: enough to parent a
// remote child to it.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context carries usable identifiers.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// ID generation: a process-global splitmix64 stream seeded once from
// crypto/rand. Advancing the state is a single atomic add, so span
// creation never takes a lock or a syscall.
var (
	idSeedOnce sync.Once
	idSeed     uint64
	idCounter  atomic.Uint64
)

func nextRand() uint64 {
	idSeedOnce.Do(func() {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			idSeed = binary.LittleEndian.Uint64(b[:])
		} else {
			idSeed = uint64(time.Now().UnixNano())
		}
	})
	z := idSeed + idCounter.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewTraceID returns a fresh random trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		binary.BigEndian.PutUint64(t[:8], nextRand())
		binary.BigEndian.PutUint64(t[8:], nextRand())
	}
	return t
}

// NewSpanID returns a fresh random span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		binary.BigEndian.PutUint64(s[:], nextRand())
	}
	return s
}

// Attr is one key/value span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a timestamped point annotation inside a span.
type Event struct {
	UnixNano int64  `json:"unixNano"`
	Name     string `json:"name"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// Span is one timed operation within a trace. A span is built by one
// goroutine and becomes immutable (and safe to publish to the ring) once
// Finish is called. All methods are nil-safe so instrumented code needs
// no tracer-enabled checks.
type Span struct {
	tracer *Tracer

	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for local roots
	Name   string
	Start  time.Time
	End    time.Time // zero until Finish
	Attrs  []Attr
	Events []Event
	Err    bool

	remote bool // parented to a span in another process
	done   atomic.Bool
}

// Context returns the span's propagation context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.Trace, SpanID: s.ID}
}

// TraceParent renders the span's context as a W3C traceparent value,
// ready to inject into an outgoing request or frame. Empty for nil
// spans.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.Context())
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.done.Load() {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// AddEvent records a timestamped point annotation.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil || s.done.Load() {
		return
	}
	s.Events = append(s.Events, Event{UnixNano: time.Now().UnixNano(), Name: name, Attrs: attrs})
}

// SetError marks the span failed and records the error as an attribute.
func (s *Span) SetError(err error) {
	if s == nil || err == nil || s.done.Load() {
		return
	}
	s.Err = true
	s.Attrs = append(s.Attrs, Attr{Key: "error", Value: err.Error()})
}

// MarkError flags the span failed without an error value (HTTP 5xx).
func (s *Span) MarkError() {
	if s == nil || s.done.Load() {
		return
	}
	s.Err = true
}

// Duration returns the span's elapsed time (against the clock while
// unfinished).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.End.IsZero() {
		return time.Since(s.Start)
	}
	return s.End.Sub(s.Start)
}

// Finish seals the span, publishes it to the tracer's ring, and returns
// its duration. Finishing twice is a no-op; finishing a nil span returns
// zero.
func (s *Span) Finish() time.Duration {
	if s == nil {
		return 0
	}
	if !s.done.CompareAndSwap(false, true) {
		return s.End.Sub(s.Start)
	}
	s.End = time.Now()
	if s.tracer != nil {
		s.tracer.record(s)
	}
	return s.End.Sub(s.Start)
}

// Options configures a Tracer.
type Options struct {
	// Service names this process in span JSON ("primary", "replica",
	// "worker").
	Service string
	// RingSize bounds the finished-span ring (default 4096 spans).
	RingSize int
	// ErrorKeep bounds the always-kept error-span ring (default 256).
	ErrorKeep int
	// SlowestPerRoot is the N in "keep the slowest N per root span name"
	// tail-sampling policy (default 8).
	SlowestPerRoot int
	// FlightDir, when set, enables the flight recorder: anomaly dumps are
	// written as timestamped JSON files in this directory.
	FlightDir string
	// FlightLast bounds the spans included in one flight dump (default
	// 512).
	FlightLast int
	// FlightMinGap rate-limits dumps per reason (default 30s) so a
	// flapping fault cannot fill the disk with dump files.
	FlightMinGap time.Duration
}

func (o Options) withDefaults() Options {
	if o.Service == "" {
		o.Service = "pol"
	}
	if o.RingSize <= 0 {
		o.RingSize = 4096
	}
	if o.ErrorKeep <= 0 {
		o.ErrorKeep = 256
	}
	if o.SlowestPerRoot <= 0 {
		o.SlowestPerRoot = 8
	}
	if o.FlightLast <= 0 {
		o.FlightLast = 512
	}
	if o.FlightMinGap <= 0 {
		o.FlightMinGap = 30 * time.Second
	}
	return o
}

// Tracer creates spans and retains finished ones in bounded memory. A
// nil *Tracer is a valid no-op: every method returns nil spans that
// accept the full Span API.
type Tracer struct {
	opt Options

	ring  *spanRing // most recent finished spans, any kind
	errs  *spanRing // error spans, kept past ring churn
	spans atomic.Int64

	mu      sync.Mutex
	slowest map[string][]*Span // root name -> up to SlowestPerRoot, ascending duration
	flights map[string]time.Time
}

// New builds a tracer.
func New(opt Options) *Tracer {
	opt = opt.withDefaults()
	return &Tracer{
		opt:     opt,
		ring:    newSpanRing(opt.RingSize),
		errs:    newSpanRing(opt.ErrorKeep),
		slowest: make(map[string][]*Span),
		flights: make(map[string]time.Time),
	}
}

// Service returns the configured service name ("pol" for the zero
// options, "" for a nil tracer).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.opt.Service
}

// StartRoot begins a new trace rooted in this process.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		tracer: t,
		Trace:  NewTraceID(),
		ID:     NewSpanID(),
		Name:   name,
		Start:  time.Now(),
	}
}

// StartRemote begins a span continuing a trace propagated from another
// process. An invalid parent context falls back to a fresh root trace,
// so malformed traceparent input degrades to a new trace rather than an
// error.
func (t *Tracer) StartRemote(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(name)
	}
	return &Span{
		tracer: t,
		Trace:  parent.TraceID,
		ID:     NewSpanID(),
		Parent: parent.SpanID,
		Name:   name,
		Start:  time.Now(),
		remote: true,
	}
}

// StartChild begins a child span of parent; a nil parent starts a fresh
// root.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		return t.StartRoot(name)
	}
	return &Span{
		tracer: t,
		Trace:  parent.Trace,
		ID:     NewSpanID(),
		Parent: parent.ID,
		Name:   name,
		Start:  time.Now(),
	}
}

// record publishes a finished span into the ring and applies the
// tail-sampling keep policy.
func (t *Tracer) record(s *Span) {
	t.spans.Add(1)
	t.ring.add(s)
	if s.Err {
		t.errs.add(s)
	}
	// Tail sampling applies to local roots: spans that began a trace or
	// continued one from another process. Only those take the lock, so
	// the child-span fast path stays lock-free.
	if !s.Parent.IsZero() && !s.remote {
		return
	}
	d := s.End.Sub(s.Start)
	t.mu.Lock()
	keep := t.slowest[s.Name]
	if len(keep) < t.opt.SlowestPerRoot {
		keep = append(keep, s)
	} else if d > keep[0].End.Sub(keep[0].Start) {
		keep[0] = s
	} else {
		t.mu.Unlock()
		return
	}
	// Re-sort ascending by duration; the slice is at most SlowestPerRoot
	// long, so this is a handful of comparisons.
	sort.Slice(keep, func(i, j int) bool {
		return keep[i].End.Sub(keep[i].Start) < keep[j].End.Sub(keep[j].Start)
	})
	t.slowest[s.Name] = keep
	t.mu.Unlock()
}

// SpanCount returns the total finished spans recorded.
func (t *Tracer) SpanCount() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// all returns every retained span — ring, error keeps, and slowest keeps
// — deduplicated by span ID.
func (t *Tracer) all() []*Span {
	if t == nil {
		return nil
	}
	seen := make(map[SpanID]struct{}, t.opt.RingSize)
	var out []*Span
	add := func(spans []*Span) {
		for _, s := range spans {
			if _, ok := seen[s.ID]; ok {
				continue
			}
			seen[s.ID] = struct{}{}
			out = append(out, s)
		}
	}
	add(t.ring.snapshot())
	add(t.errs.snapshot())
	t.mu.Lock()
	for _, keep := range t.slowest {
		add(keep)
	}
	t.mu.Unlock()
	return out
}

// Spans returns the retained spans of one trace, unordered.
func (t *Tracer) Spans(id TraceID) []*Span {
	var out []*Span
	for _, s := range t.all() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}
