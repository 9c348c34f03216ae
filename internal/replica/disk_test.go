package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

// waitCheckpointQuiesce blocks until the checkpoint counter moves past
// after and then stays still long enough that no Save is in flight; it
// returns the settled count. Checkpoints trail the WAL frontier (a cadence whose writer is
// busy is skipped, and an idle engine never merges again), so disk
// replica tests compare against the checkpointed generation fetched off
// the repl surface, never the live engine snapshot. Once quiesced, no new
// generation can land without new records being fed.
func waitCheckpointQuiesce(t *testing.T, eng *ingest.Engine, after int64) int64 {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	// The window must outlast one Save, or a generation still being written
	// lands after "quiescence" (seen under -race, where a Save of the test
	// fleet takes over a second).
	window := 1200 * time.Millisecond
	if raceEnabled {
		window = 6 * time.Second
	}
	last, lastChange := int64(-1), time.Now()
	for {
		n := eng.StatsSnapshot().Checkpoints
		if n != last {
			last, lastChange = n, time.Now()
		}
		if last > after && time.Since(lastChange) > window {
			return last
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoints never quiesced past %d (count %d)", after, last)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// fetchInventoryForGen downloads the named generation's segment whole off
// the repl surface and materializes it — the ground truth the replica's
// Range-assembled mirror must equal. Anchoring on the generation the
// replica actually installed (rather than "the newest") keeps the
// comparison stable even if one more checkpoint lands concurrently.
func fetchInventoryForGen(t *testing.T, base string, gen uint64) *inventory.Inventory {
	t.Helper()
	get := func(u string) []byte {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", u, resp.Status)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var man ingest.ReplManifest
	if err := json.Unmarshal(get(base+"/v1/repl/manifest"), &man); err != nil {
		t.Fatal(err)
	}
	for _, g := range man.Generations {
		if g.Gen != gen {
			continue
		}
		inv, err := segment.LoadBytes(get(fmt.Sprintf("%s/v1/repl/checkpoint/%d/%s", base, g.Gen, g.Seg)), g.Seg)
		if err != nil {
			t.Fatal(err)
		}
		return inv
	}
	t.Fatalf("generation %d rotated out of the manifest: %+v", gen, man.Generations)
	return nil
}

// requireViewEqual compares a served view group-by-group against the heap
// inventory, bit-exact on the wire encoding.
func requireViewEqual(t *testing.T, want *inventory.Inventory, got inventory.View, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: view has %d groups, want %d", label, got.Len(), want.Len())
	}
	if want.Len() == 0 {
		t.Fatalf("%s: vacuous equality, inventory is empty", label)
	}
	want.Each(func(k inventory.GroupKey, cs *inventory.CellSummary) bool {
		g, ok := got.Get(k)
		if !ok {
			t.Fatalf("%s: group %v missing from view", label, k)
		}
		if !bytes.Equal(g.AppendBinary(nil), cs.AppendBinary(nil)) {
			t.Fatalf("%s: group %v differs between view and inventory", label, k)
		}
		return true
	})
}

func testDiskOptions(t *testing.T, primary string) DiskOptions {
	return DiskOptions{
		Primary:    primary,
		Resolution: testRes,
		Dir:        t.TempDir(),
		PollEvery:  20 * time.Millisecond,
	}
}

// TestDiskReplicaSyncAndDelta drives the full disk-replica story: a cold
// sync assembles the segment from Range requests and serves queries
// bit-equal to the primary; after the primary checkpoints again, the
// incremental sync reuses every unchanged shard block instead of
// re-downloading it; a redundant sync is a manifest fetch and nothing
// else.
func TestDiskReplicaSyncAndDelta(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	// The tail must be big enough to complete trips — records buffered in
	// the trip tracker emit no observations, and without observations no
	// merge (and so no second checkpoint generation) ever happens.
	most := 3 * len(stream) / 4
	feed(t, eng, statics, stream[:most])
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	ckpts := waitCheckpointQuiesce(t, eng, 0)

	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	d, err := NewDisk(testDiskOptions(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	// Cold sync: everything is fetched, nothing reused. Equality is
	// checked against the exact generation the replica installed — the
	// primary may still land one late checkpoint Save after quiescence.
	if err := d.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	gen1 := d.generation.Load()
	if d.reader.Load() == nil || gen1 == 0 {
		t.Fatalf("no generation installed: %+v", d.StatusSnapshot())
	}
	requireViewEqual(t, fetchInventoryForGen(t, srv.URL, gen1), d.Inventory(), "cold sync")
	st := d.StatusSnapshot()
	if st.Syncs == 0 || st.BlockFetches == 0 || st.BlockReuses != 0 {
		t.Fatalf("cold sync counters off: %+v", st)
	}
	if ok, detail := d.ReadyDetail(); !ok || detail != "" {
		t.Fatalf("synced disk replica not cleanly ready: %v %q", ok, detail)
	}

	// The stream tail completes in-flight trips, forcing a new checkpoint
	// generation; the delta sync must install it and stay bit-equal.
	for _, rec := range stream[most:] {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCheckpointQuiesce(t, eng, ckpts)
	deadline := time.Now().Add(30 * time.Second)
	for d.generation.Load() == gen1 {
		if time.Now().After(deadline) {
			t.Fatalf("second generation never installed: %+v", d.StatusSnapshot())
		}
		if err := d.Sync(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	gen2 := d.generation.Load()
	requireViewEqual(t, fetchInventoryForGen(t, srv.URL, gen2), d.Inventory(), "delta sync")
	st3 := d.StatusSnapshot()
	// Completed trips back-fill groups across most shards, so how much is
	// reused here depends on the sim; the hard reuse and redundant-sync
	// properties live in TestDiskReplicaDeltaReusesBlocks.
	t.Logf("delta sync gen %d → %d: %d blocks fetched, %d reused (%d bytes saved)",
		gen1, gen2, st3.BlockFetches-st.BlockFetches, st3.BlockReuses, st3.BytesReused)
}

// fakeSegPrimary is a repl surface serving hand-built segment files, so
// the delta between generations is under the test's control down to the
// shard.
type fakeSegPrimary struct {
	mu   sync.Mutex
	gen  uint64
	path string
	crc  uint32
	size int64
}

func (p *fakeSegPrimary) publish(gen uint64, path string, crc uint32, size int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen, p.path, p.crc, p.size = gen, path, crc, size
}

func (p *fakeSegPrimary) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/manifest", func(w http.ResponseWriter, _ *http.Request) {
		p.mu.Lock()
		man := ingest.ReplManifest{Resolution: testRes, Generations: []ingest.ReplGenInfo{{
			Gen: p.gen, Seg: filepath.Base(p.path), SegCRC: p.crc, SegSize: p.size,
			State: "state.polstate",
		}}}
		p.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(man)
	})
	mux.HandleFunc("GET /v1/repl/checkpoint/{gen}/{file}", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		path := p.path
		p.mu.Unlock()
		http.ServeFile(w, r, path) // Range-capable, like the real surface
	})
	return mux
}

// TestDiskReplicaDeltaReusesBlocks pins the delta property exactly: when
// one group in one shard changes between generations, the sync fetches
// that shard's block (plus header/index/tail) and reuses every other
// block from the installed generation.
func TestDiskReplicaDeltaReusesBlocks(t *testing.T) {
	inv := testutil.Build(t, sim.Config{Vessels: 12, Days: 12, Seed: 42}, testRes).Inventory
	dir := t.TempDir()
	s1 := filepath.Join(dir, "gen1.polseg")
	st1, err := segment.WriteFileSum(inv, s1)
	if err != nil {
		t.Fatal(err)
	}

	// Second generation: the same inventory with a single group's records
	// count bumped — exactly one shard block changes. A loaded inventory is
	// shared, so the bump is a fold: a period holding one summary of one
	// record and empty sketches.
	inv2, err := segment.Load(s1)
	if err != nil {
		t.Fatal(err)
	}
	var dirty inventory.GroupKey
	inv2.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		dirty = k
		return false
	})
	bump := inventory.New(inv2.Info())
	one := inventory.NewCellSummary()
	one.Records = 1
	bump.Put(dirty, one)
	if err := inv2.MergeFrom(bump); err != nil {
		t.Fatal(err)
	}
	s2 := filepath.Join(dir, "gen2.polseg")
	st2, err := segment.WriteFileSum(inv2, s2)
	if err != nil {
		t.Fatal(err)
	}

	prim := &fakeSegPrimary{}
	prim.publish(1, s1, st1.Sum, st1.Size)
	srv := httptest.NewServer(prim.handler())
	defer srv.Close()

	d, err := NewDisk(testDiskOptions(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if err := d.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	requireViewEqual(t, inv, d.Inventory(), "gen1")
	cold := d.StatusSnapshot()
	if cold.BlockFetches != int64(st1.Blocks) {
		t.Fatalf("cold sync fetched %d blocks, segment has %d", cold.BlockFetches, st1.Blocks)
	}

	prim.publish(2, s2, st2.Sum, st2.Size)
	if err := d.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	requireViewEqual(t, inv2, d.Inventory(), "gen2")
	st := d.StatusSnapshot()
	fetched := st.BlockFetches - cold.BlockFetches
	if fetched != 1 {
		t.Fatalf("one-shard delta fetched %d blocks, want 1 (shard %d of key %v)",
			fetched, inventory.ShardOf(dirty), dirty)
	}
	if st.BlockReuses != int64(st2.Blocks-1) {
		t.Fatalf("reused %d blocks, want %d: %+v", st.BlockReuses, st2.Blocks-1, st)
	}
	if st.BytesReused == 0 {
		t.Fatalf("no bytes reused: %+v", st)
	}
	t.Logf("delta: 1/%d blocks fetched, %d bytes reused of %d on disk",
		st2.Blocks, st.BytesReused, st2.Size)

	// A redundant sync against an unchanged manifest is a manifest fetch
	// and nothing else: no new sync counted, no blocks moved.
	before := d.StatusSnapshot()
	if err := d.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	after := d.StatusSnapshot()
	if after.Syncs != before.Syncs || after.BlockFetches != before.BlockFetches ||
		after.BlockReuses != before.BlockReuses || after.BytesFetched != before.BytesFetched {
		t.Fatalf("redundant sync did work: before %+v after %+v", before, after)
	}
}

// TestDiskReplicaRestartSkipsDownload is the on-disk analogue of the
// bootstrap cache: a fresh process pointed at a directory that already
// holds the current generation verifies it by checksum and installs it
// without fetching a single block.
func TestDiskReplicaRestartSkipsDownload(t *testing.T) {
	want := testutil.Build(t, sim.Config{Vessels: 12, Days: 12, Seed: 42}, testRes).Inventory
	seg := filepath.Join(t.TempDir(), "gen1.polseg")
	st, err := segment.WriteFileSum(want, seg)
	if err != nil {
		t.Fatal(err)
	}
	prim := &fakeSegPrimary{}
	prim.publish(1, seg, st.Sum, st.Size)
	srv := httptest.NewServer(prim.handler())
	defer srv.Close()

	opt := testDiskOptions(t, srv.URL)
	d1, err := NewDisk(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	d2, err := NewDisk(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	requireViewEqual(t, want, d2.Inventory(), "restart")
	if st := d2.StatusSnapshot(); st.BlockFetches != 0 || st.BytesFetched != 0 {
		t.Fatalf("restart re-downloaded blocks: %+v", st)
	}
}

// TestDiskReplicaRejectsCorruptFetch flips one byte in every segment
// Range response: no sync may ever install, and the failure must be
// counted, typed and visible in status.
func TestDiskReplicaRejectsCorruptFetch(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	feed(t, eng, statics, stream)
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCheckpointQuiesce(t, eng, 0)

	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/checkpoint/") {
			eng.ReplHandler().ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		eng.ReplHandler().ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if len(body) > 0 {
			hits.Add(1)
			body[len(body)/2] ^= 0x04
		}
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	}))
	defer srv.Close()

	d, err := NewDisk(testDiskOptions(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Sync(context.Background()); err == nil {
		t.Fatal("sync installed a corrupted segment")
	}
	if hits.Load() == 0 {
		t.Fatal("corruptor never fired — vacuous test")
	}
	if d.reader.Load() != nil {
		t.Fatal("corrupted fetch reached the serving reader")
	}
	st := d.StatusSnapshot()
	if st.SyncFailures == 0 || st.LastError == "" {
		t.Fatalf("corruption not surfaced in status: %+v", st)
	}
	if ok, _ := d.ReadyDetail(); ok {
		t.Fatal("ready without an installed generation")
	}
}

// TestDiskReplicaResolutionMismatch is terminal, exactly like the heap
// replica's.
func TestDiskReplicaResolutionMismatch(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	feed(t, eng, statics, stream)
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCheckpointQuiesce(t, eng, 0)
	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	opt := testDiskOptions(t, srv.URL)
	opt.Resolution = testRes + 1
	d, err := NewDisk(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Run(ctx); !errors.Is(err, errTerminal) {
		t.Fatalf("Run returned %v, want terminal resolution error", err)
	}
}

// TestDiskReplicaRunConverges exercises the polling loop end to end: Run
// in the background, primary keeps checkpointing, the replica converges
// to the newest generation.
func TestDiskReplicaRunConverges(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	feed(t, eng, statics, stream)
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCheckpointQuiesce(t, eng, 0)
	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	d, err := NewDisk(testDiskOptions(t, srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	deadline := time.Now().Add(30 * time.Second)
	for d.reader.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatalf("Run never installed a generation: %+v", d.StatusSnapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Stop the loop before comparing so the installed generation can't
	// swap mid-check, then compare against that exact generation.
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	requireViewEqual(t, fetchInventoryForGen(t, srv.URL, d.generation.Load()), d.Inventory(), "via Run")
}
