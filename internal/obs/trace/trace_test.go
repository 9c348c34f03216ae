package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDGeneration(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("zero trace id generated")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
	}
	if NewSpanID().IsZero() {
		t.Fatal("zero span id generated")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tp := FormatTraceparent(sc)
	if len(tp) != 55 {
		t.Fatalf("traceparent length %d, want 55: %q", len(tp), tp)
	}
	got, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("round-trip parse failed for %q", tp)
	}
	if got != sc {
		t.Fatalf("round trip changed context: %+v != %+v", got, sc)
	}
}

// TestTraceparentMalformedProperty fuzzes the parser with random
// mutations of valid values plus random garbage: no input may parse into
// a context that formats differently from itself, and mutations that
// break the grammar must be rejected rather than panic.
func TestTraceparentMalformedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := "0123456789abcdefABCDEF-xyz !\x00\xff"
	valid := FormatTraceparent(SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()})
	for i := 0; i < 5000; i++ {
		var input string
		switch rng.Intn(4) {
		case 0: // random garbage of random length
			n := rng.Intn(80)
			b := make([]byte, n)
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			input = string(b)
		case 1: // valid value with one byte mutated
			b := []byte(valid)
			b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			input = string(b)
		case 2: // truncated valid value
			input = valid[:rng.Intn(len(valid))]
		case 3: // valid value with junk appended
			input = valid + string(alphabet[rng.Intn(len(alphabet))])
		}
		sc, ok := ParseTraceparent(input)
		if !ok {
			continue
		}
		// Anything accepted must be internally consistent.
		if !sc.Valid() {
			t.Fatalf("parser accepted %q but produced invalid context", input)
		}
		// Accepted inputs must round-trip through format; only the flags
		// byte may normalize (to 01).
		if reformatted := FormatTraceparent(sc); reformatted[:53] != input[:53] {
			t.Fatalf("accepted %q reformats to %q", input, reformatted)
		}
	}
	// Explicit rejects.
	for _, bad := range []string{
		"",
		"00",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("1", 16) + "-01", // zero trace id
		"00-" + strings.Repeat("1", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		"ff-" + strings.Repeat("1", 32) + "-" + strings.Repeat("1", 16) + "-01", // forbidden version
		"01-" + strings.Repeat("1", 32) + "-" + strings.Repeat("1", 16) + "-01", // unsupported version
		"00-" + strings.Repeat("G", 32) + "-" + strings.Repeat("1", 16) + "-01", // bad hex
		strings.Repeat("a", 54),
		strings.Repeat("a", 56),
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("parser accepted malformed %q", bad)
		}
	}
}

func TestSpanLifecycleAndNilSafety(t *testing.T) {
	// The full span API must be a no-op on nil spans (nil tracer).
	var nilTracer *Tracer
	s := nilTracer.StartRoot("x")
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	s.SetAttr("k", "v")
	s.AddEvent("e")
	s.SetError(errors.New("boom"))
	s.MarkError()
	if d := s.Finish(); d != 0 {
		t.Fatalf("nil span finish returned %v", d)
	}
	if s.TraceParent() != "" {
		t.Fatal("nil span produced a traceparent")
	}

	tr := New(Options{Service: "test"})
	root := tr.StartRoot("root")
	root.SetAttr("k", "v")
	child := tr.StartChild(root, "child")
	if child.Trace != root.Trace || child.Parent != root.ID {
		t.Fatal("child span not parented to root")
	}
	child.Finish()
	root.Finish()
	// Double finish keeps the first end time.
	end := root.End
	root.Finish()
	if !root.End.Equal(end) {
		t.Fatal("double finish moved End")
	}
	spans := tr.Spans(root.Trace)
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
}

func TestRingWraparoundBoundsMemory(t *testing.T) {
	tr := New(Options{RingSize: 32, ErrorKeep: 4, SlowestPerRoot: 2})
	for i := 0; i < 1000; i++ {
		tr.StartRoot(fmt.Sprintf("op-%d", i%4)).Finish()
	}
	if got := tr.SpanCount(); got != 1000 {
		t.Fatalf("span count %d, want 1000", got)
	}
	all := tr.all()
	// Ring (32) + up to 2 slowest for each of 4 names; error ring empty.
	if len(all) > 32+8 {
		t.Fatalf("retained %d spans, memory bound broken", len(all))
	}
}

func TestTailSamplingKeepsErrorsAndSlowest(t *testing.T) {
	tr := New(Options{RingSize: 8, ErrorKeep: 16, SlowestPerRoot: 2})

	// One early error span and one artificially slow span...
	errSpan := tr.StartRoot("query")
	errSpan.SetError(errors.New("boom"))
	errSpan.Finish()
	slow := tr.StartRoot("query")
	slow.Start = slow.Start.Add(-10 * time.Second) // fake a 10s duration
	slow.Finish()

	// ...then enough fast spans to churn the ring many times over.
	for i := 0; i < 200; i++ {
		tr.StartRoot("query").Finish()
	}

	var haveErr, haveSlow bool
	for _, s := range tr.all() {
		if s.ID == errSpan.ID {
			haveErr = true
		}
		if s.ID == slow.ID {
			haveSlow = true
		}
	}
	if !haveErr {
		t.Fatal("tail sampling dropped the error span")
	}
	if !haveSlow {
		t.Fatal("tail sampling dropped the slowest span")
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(Options{RingSize: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				root := tr.StartRoot(fmt.Sprintf("g%d", g))
				tr.StartChild(root, "child").Finish()
				root.Finish()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.SpanCount(); got != 8*500*2 {
		t.Fatalf("span count %d, want %d", got, 8*500*2)
	}
}

func TestTreeAssembly(t *testing.T) {
	tr := New(Options{Service: "test"})
	root := tr.StartRoot("job")
	c1 := tr.StartChild(root, "phase1")
	g1 := tr.StartChild(c1, "task")
	g1.Finish()
	c1.Finish()
	c2 := tr.StartChild(root, "phase2")
	c2.Finish()
	root.Finish()

	// A remote child of the same trace (parent span not retained here).
	orphan := tr.StartRemote("remote-op", SpanContext{TraceID: root.Trace, SpanID: NewSpanID()})
	orphan.Finish()

	tree := tr.Tree(root.Trace)
	if len(tree) != 2 { // root + unresolvable orphan
		t.Fatalf("got %d tree roots, want 2", len(tree))
	}
	var rootNode *SpanJSON
	for _, n := range tree {
		if n.Name == "job" {
			rootNode = n
		}
	}
	if rootNode == nil {
		t.Fatal("root span missing from tree")
	}
	if len(rootNode.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(rootNode.Children))
	}
	found := false
	for _, c := range rootNode.Children {
		if c.Name == "phase1" && len(c.Children) == 1 && c.Children[0].Name == "task" {
			found = true
		}
	}
	if !found {
		t.Fatal("grandchild not nested under phase1")
	}

	sums := tr.Summaries(0)
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1", len(sums))
	}
	if sums[0].Root != "job" || sums[0].Spans != 5 {
		t.Fatalf("bad summary %+v", sums[0])
	}
}

func TestFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	tr := New(Options{Service: "test", FlightDir: dir, FlightLast: 8, FlightMinGap: time.Hour})
	for i := 0; i < 20; i++ {
		s := tr.StartRoot("op")
		s.AddEvent("tick")
		s.Finish()
	}
	path, err := tr.RecordFlight("degraded: journal died")
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("no dump written")
	}
	if !strings.Contains(filepath.Base(path), "degraded--journal-died") {
		t.Fatalf("reason not sanitized into filename: %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Reason != "degraded: journal died" || dump.Service != "test" {
		t.Fatalf("bad dump header: %+v", dump)
	}
	if len(dump.Spans) != 8 {
		t.Fatalf("dump has %d spans, want FlightLast=8", len(dump.Spans))
	}

	// Rate limit: same reason within the gap writes nothing.
	path2, err := tr.RecordFlight("degraded: journal died")
	if err != nil || path2 != "" {
		t.Fatalf("rate limit failed: path=%q err=%v", path2, err)
	}
	// Different reason still dumps.
	path3, err := tr.RecordFlight("watchdog")
	if err != nil || path3 == "" {
		t.Fatalf("second reason blocked: path=%q err=%v", path3, err)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 2 {
		t.Fatalf("dump files %d (%v), want 2", len(files), err)
	}

	// Disabled and nil tracers are silent no-ops.
	if p, err := New(Options{}).RecordFlight("x"); p != "" || err != nil {
		t.Fatalf("disabled recorder dumped: %q %v", p, err)
	}
	var nilTracer *Tracer
	if p, err := nilTracer.RecordFlight("x"); p != "" || err != nil {
		t.Fatalf("nil recorder dumped: %q %v", p, err)
	}
}
