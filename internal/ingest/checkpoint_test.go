package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
)

// flipByte corrupts one byte in the middle of a file.
func flipByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// testState is a small engine state for driving the checkpointer directly.
func testState(positionsSeen int64) *engineState {
	return &engineState{
		counters: stateCounters{0: positionsSeen, 2: 7, 10: 2}, // positionsSeen, accepted, trips
		statics:  map[uint32]model.VesselInfo{9: {MMSI: 9, Name: "TESTER"}},
		vessels:  map[uint32]vesselPersist{},
	}
}

// dirNames lists a directory's entries, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// parentGenBytes is what one checkpoint generation of the seed-11 fixture
// below cost at the commit before segments became the only format
// (83504d6): 15 446 516 B POLINV1 + 3 445 255 B POLSEG1 + 167 B state.
const parentGenBytes = 18_891_938

// TestCheckpointerFallback exercises the manifest lifecycle directly:
// a generation is exactly a segment plus a state file and costs a fraction
// of what the two-format generation did; two generations, newest wins; a
// corrupted newest generation falls back to the previous one; with every
// generation corrupted Load reports "no usable checkpoint" so the engine
// recovers from the WAL alone.
func TestCheckpointerFallback(t *testing.T) {
	const res = 6
	_, _, inv1 := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, res)
	_, _, inv2 := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 13}, res)
	if inv1.Len() == 0 || inv2.Len() == 0 {
		t.Fatal("fixtures completed no trips")
	}
	st := testState(10)
	dir := t.TempDir()
	base := filepath.Join(dir, "live.polinv")

	c := openCheckpointer(t, base)
	if covered, err := c.Save(inv1, st, 100, 1, 0xabcd); err != nil || covered != 100 {
		t.Fatalf("save gen1: covered %d, err %v", covered, err)
	}
	want := []string{"live.polinv", "live.polinv.g000001.seg", "live.polinv.g000001.state", "live.polinv.manifest"}
	if got := dirNames(t, dir); !slices.Equal(got, want) {
		t.Fatalf("after one save the directory holds %v, want %v", got, want)
	}
	g1 := c.generations()[0]
	if written := g1.SegSize + g1.StateSize; float64(written) >= 0.35*parentGenBytes {
		t.Fatalf("generation wrote %d bytes, want < 0.35 x %d", written, parentGenBytes)
	}

	st.counters[0] = 20
	if covered, err := c.Save(inv2, st, 200, 2, 0xabcd); err != nil || covered != 100 {
		t.Fatalf("save gen2: covered %d (want oldest retained 100), err %v", covered, err)
	}

	// The stable artifact at the configured path is the newest segment.
	stable, err := segment.Open(base, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !inventory.EqualViews(stable, inv2) {
		t.Fatal("stable artifact differs from the newest snapshot")
	}
	stable.Close()

	// A fresh process loads the newest generation.
	inv, got, seq, err := openCheckpointer(t, base).Load(res)
	if err != nil || seq != 200 {
		t.Fatalf("load: seq %d, err %v", seq, err)
	}
	if !inventory.Equal(inv, inv2) {
		t.Fatal("newest generation restored a different inventory")
	}
	if got.counters[0] != 20 || got.statics[9].Name != "TESTER" {
		t.Fatalf("state roundtrip lost data: %+v", got.counters)
	}

	// Corrupt the newest generation's segment: fall back to gen 1.
	flipByte(t, filepath.Join(dir, "live.polinv.g000002.seg"))
	inv, got, seq, err = openCheckpointer(t, base).Load(res)
	if err != nil || seq != 100 {
		t.Fatalf("fallback load: seq %d, err %v", seq, err)
	}
	if !inventory.Equal(inv, inv1) {
		t.Fatal("fallback generation restored a different inventory")
	}
	if got.counters[0] != 10 {
		t.Fatalf("fallback state has positionsSeen %d, want 10", got.counters[0])
	}

	// Corrupt the older generation's state too: no usable checkpoint.
	flipByte(t, filepath.Join(dir, "live.polinv.g000001.state"))
	inv, _, seq, err = openCheckpointer(t, base).Load(res)
	if err != nil || inv != nil || seq != 0 {
		t.Fatalf("all-corrupt load = (%v, seq %d, %v), want WAL-only recovery signal", inv, seq, err)
	}
}

// openCheckpointer is newCheckpointer for a manifest the test expects to
// read.
func openCheckpointer(t testing.TB, base string) *checkpointer {
	t.Helper()
	c, err := newCheckpointer(base, fault.Default(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineRefusesUnreadableManifest: a manifest that no longer parses —
// here one flipped bit in its magic — names generations the WAL has been
// pruned to. Reading it as "no checkpoint" would bring the engine up empty,
// so NewEngine must stop with an error naming the manifest and the way
// out, and leave the directory exactly as it found it.
func TestEngineRefusesUnreadableManifest(t *testing.T) {
	const res = 6
	_, _, inv := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, res)
	dir := t.TempDir()
	base := filepath.Join(dir, "live.polinv")
	c := openCheckpointer(t, base)
	for _, seq := range []uint64{100, 200} {
		if _, err := c.Save(inv, testState(int64(seq)), seq, 1, 0xbeef); err != nil {
			t.Fatal(err)
		}
	}
	manifest := base + ".manifest"
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 0x01 // POLCKPT1 -> POLBKPT1
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirNames(t, dir)

	e, err := NewEngine(Options{Resolution: res, CheckpointPath: base, JournalPath: filepath.Join(dir, "wal")})
	if err == nil {
		groups := e.Snapshot().Len()
		e.Close()
		t.Fatalf("engine started over an unreadable manifest, serving %d of %d groups", groups, inv.Len())
	}
	if !strings.Contains(err.Error(), manifest) || !strings.Contains(err.Error(), "WAL") {
		t.Fatalf("error %q does not name the manifest and the way out", err)
	}
	if after := dirNames(t, dir); !slices.Equal(after, before) {
		t.Fatalf("refused start changed the directory: %v -> %v", before, after)
	}
	if got, _ := os.ReadFile(manifest); !bytes.Equal(got, data) {
		t.Fatal("refused start rewrote the manifest")
	}
}

// TestEngineRefusesPreSegmentManifest: a manifest none of whose
// generations has a segment cannot be restored from, and treating it as
// "no checkpoint" would silently drop the inventories it names — NewEngine
// must stop with an error naming the manifest and leave the directory
// exactly as it found it.
func TestEngineRefusesPreSegmentManifest(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "live.polinv")
	files := map[string]string{
		"live.polinv.manifest": "POLCKPT1\n" +
			"gen 4 seq 900 inv live.polinv.g000004 crc 0a0b0c0d size 19 state live.polinv.g000004.state crc 01020304 size 5\n" +
			"gen 3 seq 800 inv live.polinv.g000003 crc 0a0b0c0d size 19 state live.polinv.g000003.state crc 01020304 size 5\n",
		"live.polinv.g000004":       "POLINV1\nplaceholder",
		"live.polinv.g000004.state": "state",
		"live.polinv.g000003":       "POLINV1\nplaceholder",
		"live.polinv.g000003.state": "state",
		"live.polinv":               "POLINV1\nplaceholder",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := dirNames(t, dir)

	e, err := NewEngine(Options{Resolution: 6, CheckpointPath: base, JournalPath: filepath.Join(dir, "wal")})
	if err == nil {
		e.Close()
		t.Fatal("engine started on a pre-segment checkpoint directory")
	}
	if !strings.Contains(err.Error(), base+".manifest") || !strings.Contains(err.Error(), "WAL") {
		t.Fatalf("error %q does not name the manifest and the way out", err)
	}
	if after := dirNames(t, dir); !slices.Equal(after, before) {
		t.Fatalf("refused start changed the directory: %v -> %v", before, after)
	}
	for name, body := range files {
		if got, _ := os.ReadFile(filepath.Join(dir, name)); string(got) != body {
			t.Fatalf("refused start rewrote %s", name)
		}
	}
}

// asSegmentVersion1 rewrites an intact segment as a hand-made format
// version 1 file — the version field, and the header checksum in the tail
// that covers it — and returns its whole-file CRC32C for the manifest.
func asSegmentVersion1(t *testing.T, path string) uint32 {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(img[8:], 1)
	tail := img[len(img)-segment.TailLen:]
	headerLen := binary.LittleEndian.Uint32(tail[16:])
	binary.LittleEndian.PutUint32(tail[20:], segment.CRC(img[:headerLen]))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return segment.CRC(img)
}

// TestEngineRefusesVersion1Checkpoint: generations written under segment
// format version 1 are intact files this build cannot decode. While a
// readable generation is left the engine falls back to it; when none is,
// cold start must stop with the one line that says what to do — not log,
// skip and come up empty over a WAL pruned to that checkpoint — and leave
// the directory as it found it.
func TestEngineRefusesVersion1Checkpoint(t *testing.T) {
	const res = 6
	_, _, inv := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, res)
	dir := t.TempDir()
	base := filepath.Join(dir, "live.polinv")
	c := openCheckpointer(t, base)
	for _, seq := range []uint64{100, 200} {
		if _, err := c.Save(inv, testState(int64(seq)), seq, 1, 0xbeef); err != nil {
			t.Fatal(err)
		}
	}
	gens := c.generations() // newest first

	gens[0].SegCRC = asSegmentVersion1(t, c.genPath(gens[0].Seg))
	if err := writeManifest(c.manifestPath(), gens); err != nil {
		t.Fatal(err)
	}
	got, _, seq, err := openCheckpointer(t, base).Load(res)
	if err != nil || seq != 100 || !inventory.Equal(got, inv) {
		t.Fatalf("version-1 newest generation over a readable one: seq %d, err %v; want the fallback", seq, err)
	}

	gens[1].SegCRC = asSegmentVersion1(t, c.genPath(gens[1].Seg))
	if err := writeManifest(c.manifestPath(), gens); err != nil {
		t.Fatal(err)
	}
	before := dirNames(t, dir)
	e, err := NewEngine(Options{Resolution: res, CheckpointPath: base, JournalPath: filepath.Join(dir, "wal")})
	if err == nil {
		e.Close()
		t.Fatal("engine cold-started over version-1 checkpoint generations")
	}
	if !errors.Is(err, segment.ErrOldVersion) || !strings.Contains(err.Error(), base+".manifest") ||
		!strings.Contains(err.Error(), "POLSEG1 version 1 segments are no longer read; rebuild with polbuild") {
		t.Fatalf("error %q is not the named refusal", err)
	}
	if after := dirNames(t, dir); !slices.Equal(after, before) {
		t.Fatalf("refused start changed the directory: %v -> %v", before, after)
	}
}

// TestEngineCheckpointRecovery corrupts checkpoint generations under a
// running engine's feet and requires cold start to land in exactly the
// uninterrupted state anyway: checksum verification rejects the bad
// generation, the fallback (or the WAL alone) covers the difference.
func TestEngineCheckpointRecovery(t *testing.T) {
	const res = 6
	// Trips span many simulated days; both halves must complete trips for
	// both checkpoint cadences to fire, hence the longer simulation.
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11}, res)
	dir := t.TempDir()
	journal := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "live.polinv")
	half := len(stream) / 2

	ctl, err := NewEngine(Options{Resolution: res})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	submitAll(t, ctl, statics, stream)
	if err := ctl.Finalize(); err != nil {
		t.Fatal(err)
	}

	e1, err := NewEngine(Options{
		Resolution:      res,
		JournalPath:     journal,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two finalizes with traffic in between → two checkpoint generations.
	// (Wait for the first background checkpoint to land, or the second
	// cadence would be skipped while it is still writing.)
	submitAll(t, e1, statics, stream[:half])
	if err := e1.Finalize(); err != nil {
		t.Fatal(err)
	}
	deadlineFirst := time.Now().Add(30 * time.Second)
	for e1.StatsSnapshot().Checkpoints < 1 {
		if time.Now().After(deadlineFirst) {
			t.Fatal("first checkpoint never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, rec := range stream[half:] {
		if err := e1.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Finalize(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for e1.StatsSnapshot().Checkpoints < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d checkpoints landed", e1.StatsSnapshot().Checkpoints)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := e1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	gens, err := readManifest(ckpt + ".manifest")
	if err != nil || len(gens) < 2 {
		t.Fatalf("manifest has %d generations (%v), want >=2", len(gens), err)
	}

	// Corrupt the newest generation: restart must fall back and replay the
	// WAL suffix into exactly the uninterrupted state.
	flipByte(t, filepath.Join(dir, gens[0].Seg))
	e2, err := NewEngine(Options{
		Resolution:     res,
		JournalPath:    journal,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e2.Snapshot(), ctl.Snapshot(), "fallback generation + WAL suffix")
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt every generation: restart recovers from the WAL alone.
	for _, g := range gens {
		flipByte(t, filepath.Join(dir, g.State))
	}
	e3, err := NewEngine(Options{
		Resolution:     res,
		JournalPath:    journal,
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if err := e3.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e3.Snapshot(), ctl.Snapshot(), "WAL-only recovery")
}

// TestEngineDegradedResume breaks the journal with an injected append
// fault mid-stream: the engine must keep serving its last snapshot
// (ready, flagged degraded), drop instead of half-apply, and after the
// fault clears re-base on a fresh checkpoint and resume. Re-feeding the
// lost suffix then converges to the uninterrupted state.
func TestEngineDegradedResume(t *testing.T) {
	const res = 6
	// Long enough that the first half completes trips and publishes a
	// non-empty snapshot before the injected outage.
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 13}, res)
	dir := t.TempDir()
	half := len(stream) / 2

	ctl, err := NewEngine(Options{Resolution: res})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	submitAll(t, ctl, statics, stream)
	if err := ctl.Finalize(); err != nil {
		t.Fatal(err)
	}

	reg := fault.New()
	e, err := NewEngine(Options{
		Resolution:      res,
		MergeEvery:      20 * time.Millisecond,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		Faults:          reg,
		RetryBase:       5 * time.Millisecond,
		RetryMax:        50 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	submitAll(t, e, statics, stream[:half])
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	// Wait for a merge tick to publish the half-stream snapshot so the
	// engine is "ready" before the outage begins.
	waitReady := time.Now().Add(10 * time.Second)
	for e.Snapshot().Len() == 0 {
		if time.Now().After(waitReady) {
			t.Fatal("no snapshot published from the first half")
		}
		time.Sleep(5 * time.Millisecond)
	}
	groupsBefore := e.Snapshot().Len()

	// Permanent append failure: every write to the WAL now fails, as if
	// the disk vanished. The engine may flap (probe succeeds, next append
	// fails again) — that is the rearm path working.
	if err := reg.Enable(FPJournalAppend, "error(no space left on device)"); err != nil {
		t.Fatal(err)
	}
	for _, rec := range stream[half:] {
		if err := e.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := e.StatsSnapshot()
		if s.Degraded && s.DegradedDropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never degraded: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s := e.StatsSnapshot()
	if s.DegradedReason == "" || s.JournalErrors == 0 {
		t.Fatalf("degraded without reason or journal errors: %+v", s)
	}
	if ready, detail := e.ReadyDetail(); !ready || detail == "" {
		t.Fatalf("degraded engine ReadyDetail = (%v, %q), want ready with detail", ready, detail)
	}
	if got := e.Snapshot().Len(); got < groupsBefore {
		t.Fatalf("degraded engine lost its snapshot: %d groups, had %d", got, groupsBefore)
	}

	// Disk comes back: the prober must checkpoint, reopen the journal past
	// the lost tail, and clear the degraded flag.
	reg.Disable(FPJournalAppend)
	resumeBy := time.Now().Add(60 * time.Second)
	for {
		s := e.StatsSnapshot()
		if !s.Degraded && s.Resumes > 0 {
			break
		}
		if time.Now().After(resumeBy) {
			t.Fatalf("engine never resumed: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The upstream re-feeds everything since its last acknowledged sync;
	// records applied before the outage are deduplicated by the cleaner.
	submitAll(t, e, statics, stream[half:])
	if err := e.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e.Snapshot(), ctl.Snapshot(), "resumed vs uninterrupted")

	// The resumed journal must carry the whole state: a cold restart from
	// checkpoint + WAL reproduces it.
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(Options{
		Resolution:     res,
		JournalPath:    filepath.Join(dir, "wal"),
		CheckpointPath: filepath.Join(dir, "live.polinv"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Finalize(); err != nil {
		t.Fatal(err)
	}
	diffInventories(t, e2.Snapshot(), ctl.Snapshot(), "restart after resume")
}

// TestResumeMarksItsFold pins the fold rule on the degraded → resume path.
// A degraded primary may still fold what it had accepted — on its tick,
// with no marker, or in the re-base — but it accepts nothing more, so
// either way the fold sits at the frontier the journal broke at; the
// re-base must journal a marker there, as the first record of the
// reopened journal and under the sequence number the resume checkpoint
// covers, or a tailing replica folds somewhere else for good.
func TestResumeMarksItsFold(t *testing.T) {
	for _, tickFolds := range []bool{false, true} {
		t.Run(fmt.Sprintf("tickFolds=%v", tickFolds), func(t *testing.T) { testResumeMarksItsFold(t, tickFolds) })
	}
}

func testResumeMarksItsFold(t *testing.T, tickFolds bool) {
	const res = 6
	statics, stream, _ := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 13}, res)
	dir := t.TempDir()
	reg := fault.New()
	e, err := NewEngine(Options{
		Resolution:      res,
		MergeEvery:      5 * time.Millisecond,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		Faults:          reg,
		RetryBase:       400 * time.Millisecond, // first probe 200–600 ms after the failure
		RetryMax:        400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	waitFor := func(what string, ok func(Status) bool) Status {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !ok(e.StatsSnapshot()) {
			if time.Now().After(deadline) {
				t.Fatalf("engine never %s: %+v", what, e.StatsSnapshot())
			}
			time.Sleep(2 * time.Millisecond)
		}
		return e.StatsSnapshot()
	}
	half := len(stream) / 2
	submitAll(t, e, statics, stream[:half])
	waitFor("folded and checkpointed the first half", func(s Status) bool {
		return s.PositionsSeen == int64(half) && s.Observations > 0 && s.Observations == s.MergedObservations && s.Checkpoints > 0
	})

	// Hold the tick's folds back so a period builds up, then break the disk.
	if err := reg.Enable(FPEngineMerge, "error"); err != nil {
		t.Fatal(err)
	}
	for _, rec := range stream[half : half+half/2] {
		if err := e.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if s := e.StatsSnapshot(); s.Observations == s.MergedObservations {
		t.Fatalf("vacuous: no period built up (%d observations, all merged)", s.Observations)
	}
	if err := reg.Enable(FPJournalAppend, "error(no space left on device)*1"); err != nil {
		t.Fatal(err)
	}
	for i := half + half/2; e.StatsSnapshot().JournalErrors == 0; i++ {
		if err := e.SubmitPosition(stream[i], nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	degraded := waitFor("degraded", func(s Status) bool { return s.Degraded })
	if tickFolds {
		// Let the degraded engine's tick fold the period before the prober
		// gets there; otherwise the re-base finds it pending.
		reg.Disable(FPEngineMerge)
		waitFor("folded on its tick while degraded", func(s Status) bool {
			return s.Degraded && s.Merges == degraded.Merges+1 && s.MergedObservations == s.Observations
		})
	}
	resumed := waitFor("resumed", func(s Status) bool { return s.Resumes == 1 && !s.Degraded })
	if resumed.Merges != degraded.Merges+1 || resumed.MergedObservations != resumed.Observations {
		t.Fatalf("the pending period was not folded exactly once: merges %d -> %d", degraded.Merges, resumed.Merges)
	}
	_, ckptSeq := e.CheckpointStatus()
	entries, _, err := readEntries(e.jrnl(), degraded.WALSeq, 1)
	if err != nil || len(entries) != 1 || entries[0].Kind != entryMerge || entries[0].Seq != ckptSeq || ckptSeq != degraded.WALSeq+1 {
		t.Fatalf("reopened journal after seq %d starts with %+v (err %v), resume checkpoint covers seq %d; want a merge marker under that seq",
			degraded.WALSeq, entries, err, ckptSeq)
	}
}
