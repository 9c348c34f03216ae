package ingest

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/sim"
)

// TestManifestTermRoundTrip saves two term-stamped generations and
// requires the (term, node) pair to survive the manifest round trip,
// newest generation first.
func TestManifestTermRoundTrip(t *testing.T) {
	const res = 6
	_, _, inv1 := fleetStream(t, sim.Config{Vessels: 3, Days: 4, Seed: 5}, res)
	_, _, inv2 := fleetStream(t, sim.Config{Vessels: 5, Days: 6, Seed: 6}, res)
	st := &engineState{
		counters: stateCounters{1},
		statics:  map[uint32]model.VesselInfo{},
		vessels:  map[uint32]vesselPersist{},
	}
	base := filepath.Join(t.TempDir(), "live.polinv")

	c := newCheckpointer(base, fault.Default(), t.Logf)
	if _, err := c.Save(inv1, st, 100, 3, 0x00ff); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Save(inv2, st, 200, 7, 0xbeef); err != nil {
		t.Fatal(err)
	}

	gens, err := readManifest(base + ".manifest")
	if err != nil || len(gens) != 2 {
		t.Fatalf("readManifest: %d generations, err %v", len(gens), err)
	}
	if gens[0].Term != 7 || gens[0].Node != 0xbeef {
		t.Fatalf("newest generation carries term %d node %x, want 7/beef", gens[0].Term, gens[0].Node)
	}
	if gens[1].Term != 3 || gens[1].Node != 0x00ff {
		t.Fatalf("older generation carries term %d node %x, want 3/ff", gens[1].Term, gens[1].Node)
	}
	if term, node := newCheckpointer(base, fault.Default(), t.Logf).newestTermNode(); term != 7 || node != 0xbeef {
		t.Fatalf("newestTermNode = (%d, %x), want (7, beef)", term, node)
	}
}

// TestManifestBackwardCompatNoTerm parses a pre-epoch manifest line
// (no term/node suffix, no segment entry): it must read back as term 0
// — the "writer unknown" claim that never beats a real term.
func TestManifestBackwardCompatNoTerm(t *testing.T) {
	g, err := parseManifestLine(
		"gen 4 seq 900 inv live.polinv.g000004 crc 0a0b0c0d size 123 state live.polinv.g000004.state crc 01020304 size 456")
	if err != nil {
		t.Fatal(err)
	}
	if g.Gen != 4 || g.Seq != 900 || g.Term != 0 || g.Node != 0 {
		t.Fatalf("pre-epoch line parsed as %+v, want term/node zero", g)
	}
	if TermBeats(g.Term, g.Node, 1, 1) {
		t.Fatal("a pre-epoch claim must never beat a real term")
	}
	// And the newer-format line with both suffixes still parses.
	g, err = parseManifestLine(
		"gen 5 seq 950 inv a crc 0a size 1 state b crc 0b size 2 seg c crc 0c size 3 term 9 node 00000000000000aa")
	if err != nil {
		t.Fatal(err)
	}
	if g.Term != 9 || g.Node != 0xaa || g.Seg != "c" {
		t.Fatalf("full line parsed as %+v", g)
	}
}

// TestEngineTermRecovery restarts a primary and requires it to resume
// at the (term, node) its newest checkpoint generation was written
// under — a restarted primary must not silently fall back to term 1
// after serving at a later term.
func TestEngineTermRecovery(t *testing.T) {
	const res = 6
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 4, Days: 12, Seed: 9}, res)
	dir := t.TempDir()
	opts := Options{
		Resolution:      res,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		Term:            5,
		NodeID:          0x1234,
	}
	e1, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Term() != 5 || e1.Node() != 0x1234 {
		t.Fatalf("fresh engine at term %d node %x, want 5/1234", e1.Term(), e1.Node())
	}
	submitAll(t, e1, statics, stream)
	if err := e1.Finalize(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for e1.StatsSnapshot().Checkpoints < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint landed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold start with default options: the manifest's term must win over
	// the default term 1, and the node identity must stick.
	e2, err := NewEngine(Options{
		Resolution:     res,
		JournalPath:    opts.JournalPath,
		CheckpointPath: opts.CheckpointPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Term() != 5 || e2.Node() != 0x1234 {
		t.Fatalf("restart resumed at term %d node %x, want 5/1234", e2.Term(), e2.Node())
	}
}

// TestReplGateFencesOutrankedPrimary drives the server-side fencing
// state machine over HTTP: a replication request claiming a higher term
// must be answered 503, flip the primary into fenced read-only mode,
// and count on pol_repl_fencing_rejects_total. Every replication
// response advertises the local claim in X-Pol-Term/X-Pol-Node.
func TestReplGateFencesOutrankedPrimary(t *testing.T) {
	const res = 6
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 4, Days: 12, Seed: 9}, res)
	dir := t.TempDir()
	eng, err := NewEngine(Options{
		Resolution:      res,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		Term:            2,
		NodeID:          0x10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	submitAll(t, eng, statics, stream[:len(stream)/2])
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	// Publish the half-stream snapshot up front: the fenced engine must
	// keep serving it, and ReadyDetail is only ready once one exists.
	if err := eng.PublishNow(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()
	get := func(term, node uint64) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/repl/manifest", nil)
		SetTermHeader(req.Header, term, node)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Same term, lower node: local claim wins, request served.
	if resp := get(2, 0x01); resp.StatusCode != http.StatusOK {
		t.Fatalf("equal-term lower-node request got %d, want 200", resp.StatusCode)
	}
	// No claim at all (pre-epoch client): served.
	if resp := get(0, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("claimless request got %d, want 200", resp.StatusCode)
	}
	if eng.Fenced() {
		t.Fatal("engine fenced by a non-beating claim")
	}

	// Higher term: rejected, and the primary fences itself.
	resp := get(3, 0x99)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("outranking request got %d, want 503", resp.StatusCode)
	}
	if rt, rn := TermFromHeader(resp.Header); rt != 2 || rn != 0x10 {
		t.Fatalf("response advertises term %d node %x, want local 2/10", rt, rn)
	}
	if !eng.Fenced() {
		t.Fatal("primary not fenced after observing a higher term")
	}
	// Fenced is sticky: even claimless requests are refused now.
	if resp := get(0, 0); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fenced primary still serves replication: %d", resp.StatusCode)
	}
	s := eng.StatsSnapshot()
	if !s.Fenced || s.FencingRejects < 2 {
		t.Fatalf("stats don't reflect the fence: %+v", s)
	}
	if ready, detail := eng.ReadyDetail(); !ready || detail == "" {
		t.Fatalf("fenced engine must keep serving reads with a degraded detail, got (%v, %q)", ready, detail)
	}
	// Fenced means read-only: new submissions are dropped, the published
	// snapshot survives.
	before := eng.Snapshot().Len()
	for _, rec := range stream[len(stream)/2:] {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitDrop := time.Now().Add(10 * time.Second)
	for eng.StatsSnapshot().DegradedDropped == 0 {
		if time.Now().After(waitDrop) {
			t.Fatal("fenced engine never dropped a write")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if eng.Snapshot().Len() < before {
		t.Fatal("fenced engine lost its snapshot")
	}
}

// TestObserveRemoteTermReplicaDoesNotFence: a journal-free replica
// applier hearing of a newer term is normal operation — it must report
// the outranking (so the gate rejects) without fencing its own apply
// loop.
func TestObserveRemoteTermReplicaDoesNotFence(t *testing.T) {
	eng, err := NewEngine(Options{Resolution: 6, ReplicaDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Term() != 0 {
		t.Fatalf("replica applier claims term %d, want 0 until promoted", eng.Term())
	}
	if !eng.ObserveRemoteTerm(1, 0x42) {
		t.Fatal("a real term must outrank a pre-term replica")
	}
	if eng.Fenced() {
		t.Fatal("replica applier fenced itself on a routine term observation")
	}
	// Pre-term engines advertise no claim at all.
	h := http.Header{}
	SetTermHeader(h, eng.Term(), eng.Node())
	if got := h.Get(HeaderTerm); got != "" {
		t.Fatalf("pre-term engine advertised X-Pol-Term=%q", got)
	}
}
