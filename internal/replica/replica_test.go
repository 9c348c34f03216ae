package replica

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
)

const testRes = 6

// fleetStream simulates a fleet and returns its statics plus the tracks
// interleaved into arrival order — the shape a live feed delivers.
func fleetStream(t testing.TB, cfg sim.Config) (map[uint32]model.VesselInfo, []model.PositionRecord) {
	t.Helper()
	s, err := sim.New(cfg, ports.Default())
	if err != nil {
		t.Fatal(err)
	}
	var stream []model.PositionRecord
	for i := 0; i < len(s.Fleet().Vessels); i++ {
		track, _ := s.VesselTrack(i)
		stream = append(stream, track...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })
	return s.Fleet().StaticIndex(), stream
}

// newPrimary builds a durable engine in a temp dir with a 1-merge
// checkpoint cadence and small WAL segments so rotation and pruning
// happen under test-sized streams.
func newPrimary(t *testing.T) *ingest.Engine {
	t.Helper()
	dir := t.TempDir()
	eng, err := ingest.NewEngine(ingest.Options{
		Resolution:      testRes,
		MergeEvery:      20 * time.Millisecond,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		WALSegmentBytes: 64 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func feed(t *testing.T, eng *ingest.Engine, statics map[uint32]model.VesselInfo, stream []model.PositionRecord) {
	t.Helper()
	for _, v := range statics {
		if err := eng.SubmitStatic(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range stream {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func waitCheckpoints(t *testing.T, eng *ingest.Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for eng.StatsSnapshot().Checkpoints < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d checkpoints landed, want %d", eng.StatsSnapshot().Checkpoints, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testOptions(primary string) Options {
	return Options{
		Primary:    primary,
		Resolution: testRes,
		MergeEvery: 20 * time.Millisecond,
		PollWait:   200 * time.Millisecond,
		RetryBase:  10 * time.Millisecond,
		RetryMax:   100 * time.Millisecond,
	}
}

// waitCaughtUp blocks until the replica has applied through target.
func waitCaughtUp(t testing.TB, rep *Replica, target uint64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for rep.AppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, want %d (status %+v)",
				rep.AppliedSeq(), target, rep.StatusSnapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// requireEqual compares the primary's and replica's published snapshots
// after a publish barrier on both.
func requireEqual(t testing.TB, eng *ingest.Engine, rep *Replica, label string) {
	t.Helper()
	if err := eng.PublishNow(); err != nil {
		t.Fatal(err)
	}
	p, r := eng.Snapshot(), rep.Snapshot()
	if !inventory.Equal(p, r) {
		t.Fatalf("%s: replica snapshot (%d groups) != primary (%d groups)", label, r.Len(), p.Len())
	}
	if p.Len() == 0 {
		t.Fatalf("%s: vacuous equality, primary inventory is empty", label)
	}
}

// TestReplicaConverges is the core tentpole property: bootstrap from a
// mid-stream checkpoint, tail the WAL across segment rotations while the
// primary keeps ingesting, and end inventory.Equal to the primary.
func TestReplicaConverges(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	half := len(stream) / 2

	// First half: enough completed trips for checkpoints to fire without
	// a finalize (finalize is not replicated, so the test never uses it
	// once the replica is attached).
	feed(t, eng, statics, stream[:half])
	waitCheckpoints(t, eng, 1)

	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	rep, err := New(testOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()

	// Second half streams in while the replica tails.
	for _, rec := range stream[half:] {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep, eng.WALSeq())
	requireEqual(t, eng, rep, "after drain")

	st := rep.StatusSnapshot()
	if !st.Bootstrapped || st.Bootstraps != 1 || st.CRCRejects != 0 {
		t.Fatalf("unexpected status %+v", st)
	}
	if ok, detail := rep.ReadyDetail(); !ok || strings.Contains(detail, "degraded") {
		t.Fatalf("caught-up replica not cleanly ready: %v %q", ok, detail)
	}
	if st.AppliedSeq != st.PrimarySeq || st.LagSeq != 0 {
		t.Fatalf("caught-up replica reports lag: applied %d, primary %d", st.AppliedSeq, st.PrimarySeq)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// corruptingHandler wraps the repl surface, mutating checkpoint download
// bodies: mode "flip" inverts one byte, mode "truncate" drops the tail.
func corruptingHandler(inner http.Handler, mode string, hits *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/checkpoint/") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && len(body) > 16 {
			hits.Add(1)
			switch mode {
			case "flip":
				body[len(body)/2] ^= 0x01
			case "truncate":
				body = body[:len(body)-7]
			}
		}
		for k, vs := range rec.Header() {
			if k == "Content-Length" {
				continue
			}
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}

// TestReplicaRejectsCorruptCheckpoints requires both a bit-flipped and a
// truncated checkpoint download to be rejected by the whole-file
// checksum before install: the replica must never bootstrap from them.
func TestReplicaRejectsCorruptCheckpoints(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	feed(t, eng, statics, stream)
	waitCheckpoints(t, eng, 1)

	for _, mode := range []string{"flip", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			var hits atomic.Int64
			srv := httptest.NewServer(corruptingHandler(eng.ReplHandler(), mode, &hits))
			defer srv.Close()
			rep, err := New(testOptions(srv.URL))
			if err != nil {
				t.Fatal(err)
			}
			defer rep.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := rep.bootstrap(ctx); err == nil {
				t.Fatal("bootstrap accepted a corrupted checkpoint")
			}
			if hits.Load() == 0 {
				t.Fatal("corruptor never fired — vacuous test")
			}
			st := rep.StatusSnapshot()
			if st.Bootstrapped || st.CRCRejects == 0 {
				t.Fatalf("corrupted download installed anyway: %+v", st)
			}
			if rep.Inventory() != nil && rep.Inventory().Len() > 0 {
				t.Fatal("corrupted state reached the serving snapshot")
			}
		})
	}

	// A primary still running the fixed-width build: every generation is an
	// intact version-1 segment (hand-made: version field, header checksum,
	// and the manifest's whole-file checksum all consistent). Nothing is
	// installed, and the error — what last_error and the log show — carries
	// the one line that says why.
	t.Run("version-1-primary", func(t *testing.T) {
		inner := eng.ReplHandler()
		asVersion1 := func(img []byte) []byte {
			binary.LittleEndian.PutUint32(img[8:], 1)
			tail := img[len(img)-segment.TailLen:]
			binary.LittleEndian.PutUint32(tail[20:], segment.CRC(img[:binary.LittleEndian.Uint32(tail[16:])]))
			return img
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			switch {
			case rec.Code != http.StatusOK:
			case strings.HasSuffix(r.URL.Path, ".seg"):
				body = asVersion1(body)
			case strings.HasSuffix(r.URL.Path, "/manifest"):
				var man ingest.ReplManifest
				if err := json.Unmarshal(body, &man); err != nil {
					t.Error(err)
				}
				for i, g := range man.Generations {
					seg := httptest.NewRecorder()
					inner.ServeHTTP(seg, httptest.NewRequest(http.MethodGet, checkpointURL("", g.Gen, g.Seg), nil))
					man.Generations[i].SegCRC = segment.CRC(asVersion1(seg.Body.Bytes()))
				}
				body, _ = json.Marshal(man)
			}
			for k, vs := range rec.Header() {
				if k != "Content-Length" {
					w.Header()[k] = vs
				}
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		}))
		defer srv.Close()
		rep, err := New(testOptions(srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = rep.bootstrap(ctx)
		if !errors.Is(err, segment.ErrOldVersion) || !strings.Contains(err.Error(), "POLSEG1 version 1 segments are no longer read; rebuild with polbuild") {
			t.Fatalf("bootstrap from a version-1 primary: %v", err)
		}
		if st := rep.StatusSnapshot(); st.Bootstrapped || st.CRCRejects != 0 {
			t.Fatalf("version-1 generations: %+v", st)
		}
	})

	// One flipped bit in one shard block of the newest generation's
	// segment, everything else clean: the checksum rejects that download
	// and bootstrap falls back to the older generation, then tails the WAL
	// to the same inventory the primary serves.
	t.Run("flip-newest-segment", func(t *testing.T) {
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		waitCheckpointQuiesce(t, eng, 1)
		gens := eng.ReplManifestSnapshot().Generations
		if len(gens) < 2 {
			t.Fatalf("need two retained generations, manifest has %d", len(gens))
		}
		newest, older := gens[0], gens[1]
		inner := eng.ReplHandler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/"+newest.Seg) {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			body[len(body)/2] ^= 0x01 // mid-file: inside a shard block
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		}))
		defer srv.Close()
		rep, err := New(testOptions(srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := rep.bootstrap(ctx); err != nil {
			t.Fatalf("bootstrap did not fall back: %v", err)
		}
		st := rep.StatusSnapshot()
		if !st.Bootstrapped || st.CRCRejects == 0 || st.Generation != older.Gen {
			t.Fatalf("want generation %d after one CRC reject, got %+v", older.Gen, st)
		}
		go func() { _ = rep.Run(ctx) }()
		waitCaughtUp(t, rep, eng.WALSeq())
		requireEqual(t, eng, rep, "after falling back a generation")
	})
}

// TestReplicaGenerationRotation simulates the primary rotating a
// generation away between manifest fetch and file download (404): the
// client must restart bootstrap with a fresh manifest, and Run must
// converge through it.
func TestReplicaGenerationRotation(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	feed(t, eng, statics, stream)
	waitCheckpoints(t, eng, 1)

	var rotated atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/checkpoint/") && rotated.CompareAndSwap(false, true) {
			http.Error(w, "generation no longer on disk", http.StatusNotFound)
			return
		}
		eng.ReplHandler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	rep, err := New(testOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Direct probe: the first attempt must surface the rotation signal,
	// not a half-installed generation.
	if err := rep.bootstrap(ctx); !errors.Is(err, errGenRotated) {
		t.Fatalf("first bootstrap: %v, want errGenRotated", err)
	}
	if rep.bootstrapped.Load() {
		t.Fatal("bootstrapped through a rotated generation")
	}
	// Second attempt sees the passthrough and installs cleanly.
	if err := rep.bootstrap(ctx); err != nil {
		t.Fatalf("re-bootstrap: %v", err)
	}
	go func() { _ = rep.Run(ctx) }()
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep, eng.WALSeq())
	requireEqual(t, eng, rep, "after rotation retry")
}

// TestReplicaRebootstrapOn410 serves one 410 on the WAL endpoint after
// the replica bootstraps (the primary pruned its suffix): Run must fall
// back to a fresh bootstrap and still converge, counting the event.
func TestReplicaRebootstrapOn410(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	feed(t, eng, statics, stream)
	waitCheckpoints(t, eng, 1)
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}

	var pruned atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/wal") && pruned.CompareAndSwap(false, true) {
			http.Error(w, "sequence pruned; re-bootstrap from a checkpoint", http.StatusGone)
			return
		}
		eng.ReplHandler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	rep, err := New(testOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = rep.Run(ctx) }()

	waitCaughtUp(t, rep, eng.WALSeq())
	requireEqual(t, eng, rep, "after 410 re-bootstrap")
	if st := rep.StatusSnapshot(); st.Rebootstraps < 1 || st.Bootstraps < 2 {
		t.Fatalf("410 did not force a re-bootstrap: %+v", st)
	}
}

// TestReplicaConvergesUnderFaults is the fault-injection property test:
// with seeded random connection drops on every fetch path, the replica
// must still end inventory.Equal to the primary — retries and
// re-bootstraps may happen, silent divergence may not.
func TestReplicaConvergesUnderFaults(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	half := len(stream) / 2
	feed(t, eng, statics, stream[:half])
	waitCheckpoints(t, eng, 1)

	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	faults := fault.NewSeeded(42)
	for _, fp := range []string{FPFetchManifest, FPFetchCheckpoint, FPFetchWAL} {
		if err := faults.Enable(fp, "error(connection dropped)%25"); err != nil {
			t.Fatal(err)
		}
	}
	opt := testOptions(srv.URL)
	opt.Faults = faults
	rep, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = rep.Run(ctx) }()

	for _, rec := range stream[half:] {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep, eng.WALSeq())
	requireEqual(t, eng, rep, "under fault injection")

	fired := faults.Count(FPFetchManifest) + faults.Count(FPFetchCheckpoint) + faults.Count(FPFetchWAL)
	if fired == 0 {
		t.Fatal("no faults fired — vacuous property")
	}
	t.Logf("converged through %d injected drops (status %+v)", fired, rep.StatusSnapshot())
}

// TestReplicaResolutionMismatch is terminal: a primary at a different
// grid resolution is a deployment error, not something to retry into.
func TestReplicaResolutionMismatch(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	feed(t, eng, statics, stream)
	waitCheckpoints(t, eng, 1)
	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	opt := testOptions(srv.URL)
	opt.Resolution = testRes + 1
	rep, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rep.Run(ctx); !errors.Is(err, errTerminal) {
		t.Fatalf("Run returned %v, want terminal resolution error", err)
	}
}

// midPeriodPair is the set-up the fold-rule reproductions share: a
// primary that folds only when told to (MergeEvery is an hour, so
// PublishNow is the only merge boundary), half the stream folded and
// checkpointed, a heap replica attached and caught up, then a third
// quarter applied on both sides and NOT folded — primary and applier both
// sit mid-period, which is where a fold nobody replicates does its damage.
type midPeriodPair struct {
	eng    *ingest.Engine
	rep    *Replica
	ctx    context.Context
	done   chan error
	gate   *walGate
	stream []model.PositionRecord
	rest   []model.PositionRecord // the last quarter, not yet fed
}

// walGate can park the replica's WAL polls outside the primary's handler,
// so nothing flushes the primary's journal buffer while it is held.
type walGate struct {
	hold     atomic.Bool
	inflight atomic.Int64
}

func (g *walGate) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/repl/wal") {
			for g.hold.Load() {
				select {
				case <-r.Context().Done():
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
			g.inflight.Add(1)
			defer g.inflight.Add(-1)
		}
		inner.ServeHTTP(w, r)
	})
}

// park holds new WAL polls and waits out the one in flight.
func (g *walGate) park(t *testing.T) {
	t.Helper()
	g.hold.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for g.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("WAL poll never returned")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newMidPeriodPair(t *testing.T, primaryFaults, replicaFaults *fault.Registry) *midPeriodPair {
	t.Helper()
	statics, stream := fleetStream(t, sim.Config{Vessels: 12, Days: 24, Seed: 5})
	dir := t.TempDir()
	eng, err := ingest.NewEngine(ingest.Options{
		Resolution:      testRes,
		MergeEvery:      time.Hour,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		Faults:          primaryFaults,
		RetryBase:       5 * time.Millisecond,
		RetryMax:        50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	q := len(stream) / 4
	feed(t, eng, statics, stream[:2*q])
	if err := eng.PublishNow(); err != nil {
		t.Fatal(err)
	}
	waitCheckpoints(t, eng, 1)

	p := &midPeriodPair{eng: eng, gate: &walGate{}, stream: stream, rest: stream[3*q:]}
	srv := httptest.NewServer(p.gate.wrap(eng.ReplHandler()))
	t.Cleanup(srv.Close)
	opt := testOptions(srv.URL)
	opt.Faults = replicaFaults
	if p.rep, err = New(opt); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.rep.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	p.ctx, p.done = ctx, make(chan error, 1)
	go func() { p.done <- p.rep.Run(ctx) }()

	p.feedSynced(t, stream[2*q:3*q])
	if m := p.rep.Engine().StatsSnapshot().Merges; m != 0 {
		t.Fatalf("applier folded %d times before any marker past its bootstrap", m)
	}
	if s := eng.StatsSnapshot(); s.Observations == s.MergedObservations {
		t.Fatalf("vacuous set-up: the primary's period is empty (%d observations, all merged)", s.Observations)
	}
	return p
}

// feedSynced submits recs to the primary, makes them durable and waits
// for the replica to apply them. No fold happens on either side.
func (p *midPeriodPair) feedSynced(t *testing.T, recs []model.PositionRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := p.eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p.rep, p.eng.WALSeq())
}

// finish feeds the last quarter, folds it on the primary and requires the
// caught-up replica to be inventory.Equal.
func (p *midPeriodPair) finish(t *testing.T, label string) {
	t.Helper()
	for _, rec := range p.rest {
		if err := p.eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.eng.PublishNow(); err != nil {
		t.Fatal(err)
	}
	if err := p.eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p.rep, p.eng.WALSeq())
	requireEqual(t, p.eng, p.rep, label)
}

// TestReplicaConvergesAcrossPrimaryResume: a primary's journal disk fails
// mid-period and the prober re-bases it (checkpoint + reopened journal).
// That re-base folds the primary's period, so a replica that was tailing
// must either read that fold as a marker in the reopened journal or be
// made to re-bootstrap from the resume checkpoint — anything else leaves
// it folding at a different boundary and never again inventory.Equal. In
// the lost-tail variant the broken journal dies with applied records
// still in its write buffer, so the replica cannot get there by tailing.
func TestReplicaConvergesAcrossPrimaryResume(t *testing.T) {
	for _, lostTail := range []bool{false, true} {
		name := "clean"
		if lostTail {
			name = "lost-tail"
		}
		t.Run(name, func(t *testing.T) {
			faults := fault.NewSeeded(3)
			p := newMidPeriodPair(t, faults, nil)
			deadline := time.Now().Add(30 * time.Second)
			wait := func(what string, ok func(ingest.Status) bool) {
				t.Helper()
				for !ok(p.eng.StatsSnapshot()) {
					if time.Now().After(deadline) {
						t.Fatalf("primary never %s: %+v", what, p.eng.StatsSnapshot())
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			fed, seen := 0, p.eng.StatsSnapshot().PositionsSeen
			if lostTail {
				// Applied on the primary, buffered in its journal, never
				// flushed: nothing polls or syncs before the disk fails.
				p.gate.park(t)
				for ; fed < 200; fed++ {
					if err := p.eng.SubmitPosition(p.rest[fed], nil); err != nil {
						t.Fatal(err)
					}
				}
				seen += 200
				wait("applied the tail", func(s ingest.Status) bool { return s.PositionsSeen >= seen })
			}
			if err := faults.Enable(ingest.FPJournalAppend, "error(no space left on device)*1"); err != nil {
				t.Fatal(err)
			}
			// In stream order, one at a time, until an append hits the
			// fault; then nothing more until the prober has re-based.
			for i := fed; p.eng.StatsSnapshot().JournalErrors == 0; i++ {
				if err := p.eng.SubmitPosition(p.rest[i], nil); err != nil {
					t.Fatal(err)
				}
				seen++
				wait("processed a submission", func(s ingest.Status) bool { return s.PositionsSeen >= seen })
			}
			wait("resumed", func(s ingest.Status) bool { return s.Resumes == 1 && !s.Degraded })
			p.gate.hold.Store(false)
			// The upstream re-feeds what it sent since its last
			// acknowledged sync; the cleaner drops what was applied.
			p.finish(t, "after primary resume ("+name+")")
			if lostTail && p.rep.StatusSnapshot().Bootstraps < 2 {
				t.Fatalf("replica tailed across a lost journal tail without re-bootstrapping: %+v", p.rep.StatusSnapshot())
			}
		})
	}
}
