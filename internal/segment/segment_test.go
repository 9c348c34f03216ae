package segment

import (
	"bytes"
	"cmp"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/deflate"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

var (
	fixOnce sync.Once
	fixInv  *inventory.Inventory
)

// fixture builds one moderately sized inventory shared by the package's
// tests: enough groups to populate most of the 256 shards.
func fixture(tb testing.TB) *inventory.Inventory {
	tb.Helper()
	fixOnce.Do(func() {
		fixInv = testutil.Build(tb, sim.Config{Vessels: 12, Days: 12, Seed: 42}, 6).Inventory
	})
	return fixInv
}

func writeFixture(tb testing.TB, inv *inventory.Inventory) (string, WriteStats) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "fixture.polseg")
	st, err := WriteFileSum(inv, path)
	if err != nil {
		tb.Fatalf("WriteFileSum: %v", err)
	}
	return path, st
}

func TestRoundTrip(t *testing.T) {
	inv := fixture(t)
	path, st := writeFixture(t, inv)

	if st.Groups != inv.Len() {
		t.Fatalf("wrote %d groups, inventory holds %d", st.Groups, inv.Len())
	}
	sum, size, err := inventory.ChecksumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum != st.Sum || size != st.Size {
		t.Fatalf("WriteFileSum reported crc=%08x size=%d, file has crc=%08x size=%d", st.Sum, st.Size, sum, size)
	}

	m := NewMetrics(nil)
	r, err := Open(path, Options{Metrics: m})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	// Open must be O(index): no block decompressed yet.
	if got := m.CacheMisses.Load(); got != 0 {
		t.Fatalf("Open touched %d blocks; want 0", got)
	}
	if r.Info() != inv.Info() {
		t.Fatalf("Info: got %+v want %+v", r.Info(), inv.Info())
	}
	if r.Len() != inv.Len() {
		t.Fatalf("Len: got %d want %d", r.Len(), inv.Len())
	}
	for _, set := range inventory.AllGroupSets {
		if got, want := r.CountGroups(set), inv.CountGroups(set); got != want {
			t.Fatalf("CountGroups(%v): got %d want %d", set, got, want)
		}
		if got, want := r.Cells(set), inv.Cells(set); !equalCells(got, want) {
			t.Fatalf("Cells(%v): got %d cells, want %d", set, len(got), len(want))
		}
		if got, want := r.Compression(set), inv.Compression(set); got != want {
			t.Fatalf("Compression(%v): got %v want %v", set, got, want)
		}
	}
	if got, want := r.Utilization(), inv.Utilization(); got != want {
		t.Fatalf("Utilization: got %v want %v", got, want)
	}

	// Every group must come back bit-identical, and every OD retrieval
	// must match the heap path.
	odSeen := make(map[[3]uint64]bool)
	inv.Each(func(k inventory.GroupKey, want *inventory.CellSummary) bool {
		got, ok := r.Get(k)
		if !ok {
			t.Fatalf("Get(%v): missing", k)
		}
		if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("Get(%v): summary differs", k)
		}
		if k.Set == inventory.GSCellODType {
			wantTr := want.TopTransitions(inventory.TopNCapacity)
			if got, ok := r.ODTransitions(k.Cell, k.Origin, k.Dest, k.VType); !ok || !slices.Equal(got, wantTr) {
				t.Fatalf("ODTransitions(%v): got %v, want %v", k, got, wantTr)
			}
			if got, ok := inv.ODTransitions(k.Cell, k.Origin, k.Dest, k.VType); !ok || !slices.Equal(got, wantTr) {
				t.Fatalf("heap ODTransitions(%v): got %v, want %v", k, got, wantTr)
			}
			id := [3]uint64{uint64(k.Origin), uint64(k.Dest), uint64(k.VType)}
			if !odSeen[id] {
				odSeen[id] = true
				if got, want := r.ODCells(k.Origin, k.Dest, k.VType), inv.ODCells(k.Origin, k.Dest, k.VType); !equalCells(got, want) {
					t.Fatalf("ODCells(%d,%d,%v): got %v want %v", k.Origin, k.Dest, k.VType, got, want)
				}
			}
		}
		return true
	})

	// Absent keys stay absent.
	if _, ok := r.Get(inventory.GroupKey{Set: inventory.GSCellODType, Origin: 9999, Dest: 9998}); ok {
		t.Fatal("Get of absent key returned a summary")
	}
	if cells := r.ODCells(model.PortID(9999), model.PortID(9998), model.VesselType(3)); len(cells) != 0 {
		t.Fatalf("ODCells of absent OD pair returned %d cells", len(cells))
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader recorded error: %v", err)
	}
}

func TestLoadMaterializes(t *testing.T) {
	inv := fixture(t)
	path, _ := writeFixture(t, inv)
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !inventory.Equal(inv, got) {
		t.Fatal("materialized inventory differs from the original")
	}
}

// TestAdoptedColdStartMatchesMaterialised: a cold start that adopts a
// segment's blocks (Load) holds what one that decodes every group and Puts
// it into a fresh inventory holds (Each → Put, then Snapshot, as Load did
// before it adopted blocks): Equal, with the same counts, cells and OD
// index. The same fold into each, changing groups and adding some, leaves
// Equal masters whose segments are the same bytes.
func TestAdoptedColdStartMatchesMaterialised(t *testing.T) {
	path, _ := writeFixture(t, fixture(t))
	adopted, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mat := inventory.New(r.Info())
	r.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		mat.Put(k, s)
		return true
	})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	mat.Snapshot()

	same := func(stage string) {
		t.Helper()
		if !inventory.Equal(adopted, mat) || adopted.Info() != mat.Info() {
			t.Fatalf("%s: the adopted inventory differs from the materialised one", stage)
		}
		for _, set := range inventory.AllGroupSets {
			if adopted.CountGroups(set) != mat.CountGroups(set) || !equalCells(adopted.Cells(set), mat.Cells(set)) {
				t.Fatalf("%s: %v counts or cells differ", stage, set)
			}
		}
		for _, inv := range []*inventory.Inventory{adopted, mat} {
			if err := inv.Validate(); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
		}
		adopted.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
			if k.Set != inventory.GSCellODType {
				return true
			}
			if !equalCells(adopted.ODCells(k.Origin, k.Dest, k.VType), mat.ODCells(k.Origin, k.Dest, k.VType)) {
				t.Fatalf("%s: ODCells(%d, %d, %v) differ", stage, k.Origin, k.Dest, k.VType)
			}
			if got, ok := adopted.ODTransitions(k.Cell, k.Origin, k.Dest, k.VType); !ok || !slices.Equal(got, s.TopTransitions(inventory.TopNCapacity)) {
				t.Fatalf("%s: ODTransitions(%v) differ from its summary's", stage, k)
			}
			return true
		})
	}
	same("cold start")

	// A period re-observing every 7th group and adding one group beside
	// every 11th, under a vessel type no build assigns.
	period := inventory.New(r.Info())
	i := 0
	adopted.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		if i%7 == 0 {
			c := inventory.NewCellSummary()
			c.Merge(s)
			period.Put(k, c)
		}
		if i%11 == 0 && k.Set != inventory.GSCell {
			k.VType = 200
			c := inventory.NewCellSummary()
			c.Merge(s)
			period.Put(k, c)
		}
		i++
		return true
	})
	for _, inv := range []*inventory.Inventory{adopted, mat} {
		if err := inv.MergeFrom(period); err != nil {
			t.Fatal(err)
		}
	}
	same("after a fold")
	var a, m bytes.Buffer
	if _, err := Write(adopted, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(mat, &m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), m.Bytes()) {
		t.Fatal("the folded masters write different segments")
	}
}

func TestEachGroupOrderAndEquivalence(t *testing.T) {
	inv := fixture(t)
	path, _ := writeFixture(t, inv)
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var prev inventory.GroupKey
	n := 0
	err = r.eachGroup(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		n++
		if n > 1 && inventory.ShardOf(k) == inventory.ShardOf(prev) && compareKeys(prev, k) >= 0 {
			t.Fatalf("keys out of order within shard at group %d", n)
		}
		prev = k
		if want, ok := inv.Get(k); !ok || want.Records != s.Records {
			t.Fatalf("eachGroup yielded unknown or mismatched group %v", k)
		}
		return true
	})
	if err != nil {
		t.Fatalf("eachGroup: %v", err)
	}
	if n != inv.Len() {
		t.Fatalf("eachGroup visited %d groups, want %d", n, inv.Len())
	}
}

// compareKeys orders keys as their encoding does: set, cell, vessel type,
// origin, destination.
func compareKeys(a, b inventory.GroupKey) int {
	return cmp.Or(cmp.Compare(a.Set, b.Set), cmp.Compare(a.Cell, b.Cell), cmp.Compare(a.VType, b.VType),
		cmp.Compare(a.Origin, b.Origin), cmp.Compare(a.Dest, b.Dest))
}

func TestEmptyInventory(t *testing.T) {
	inv := inventory.New(inventory.BuildInfo{Resolution: 6, Description: "empty"})
	path := filepath.Join(t.TempDir(), "empty.polseg")
	if err := WriteFile(inv, path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 0 {
		t.Fatalf("Len of empty segment: %d", r.Len())
	}
	if _, ok := r.Cell(0); ok {
		t.Fatal("empty segment returned a summary")
	}
	if got, err := Load(path); err != nil || got.Len() != 0 {
		t.Fatalf("Load empty: %v, %d groups", err, got.Len())
	}
}

func TestLRUCacheEviction(t *testing.T) {
	inv := fixture(t)
	path, _ := writeFixture(t, inv)
	m := NewMetrics(nil)
	r, err := Open(path, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.cache = newShardCache(2)
	if len(r.Blocks()) < 4 {
		t.Fatalf("fixture has only %d blocks; need ≥ 4 for eviction", len(r.Blocks()))
	}

	// Touch every group once: with 2 slots and many shards this must
	// evict, and the pinned gauge must never exceed the cap.
	inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		r.Get(k)
		if p := m.Pinned.Load(); p > 2 {
			t.Fatalf("pinned %d shards, cap 2", p)
		}
		return true
	})
	if m.Evictions.Load() == 0 {
		t.Fatal("no evictions with 2 slots")
	}
	misses := m.CacheMisses.Load()
	if misses == 0 {
		t.Fatal("no cache misses recorded")
	}

	// Repeated queries against one shard hit the pinned block.
	var hot inventory.GroupKey
	inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool { hot = k; return false })
	before := m.CacheHits.Load()
	for i := 0; i < 10; i++ {
		r.Get(hot)
	}
	if m.CacheHits.Load() < before+9 {
		t.Fatalf("hot shard not served from cache: hits %d → %d", before, m.CacheHits.Load())
	}
	if m.PinnedBytes.Load() <= 0 {
		t.Fatal("pinned-bytes gauge not tracking")
	}
}

func TestConcurrentReaders(t *testing.T) {
	inv := fixture(t)
	path, _ := writeFixture(t, inv)
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.cache = newShardCache(4)

	var keys []inventory.GroupKey
	inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		if len(keys) < 512 {
			keys = append(keys, k)
		}
		return len(keys) < 512
	})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range keys {
				k := keys[(i+g*37)%len(keys)]
				if _, ok := r.Get(k); !ok {
					t.Errorf("Get(%v) missing under concurrency", k)
					return
				}
			}
			r.Cells(inventory.GSCell)
			r.CountGroups(inventory.GSCellODType)
		}(g)
	}
	// Growers: each walks one shard's keys in its own order, so entries
	// pinned short of a summary are grown by several readers at once.
	byShard := map[int][]inventory.GroupKey{}
	inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		byShard[inventory.ShardOf(k)] = append(byShard[inventory.ShardOf(k)], k)
		return true
	})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for shard := g % 3; shard < inventory.ShardCount; shard += 3 {
				ks := byShard[shard]
				for i := range ks {
					k := ks[(i*7+g)%len(ks)]
					got, ok := r.Get(k)
					if want, _ := inv.Get(k); !ok || !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
						t.Errorf("Get(%v) = %v under concurrent grows", k, ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := r.Err(); err != nil {
		t.Fatalf("concurrent reads recorded error: %v", err)
	}
}

// TestPrefixReadsMatchLoad: every group of two fixtures, read in a seeded
// random order through a fresh reader whose entries hold block prefixes,
// decodes to the bytes Load's inventory holds, with 2 slots (entries evict
// and are loaded again short) and 64 (entries grow); the directory's
// Cells and ODCells are Load's.
func TestPrefixReadsMatchLoad(t *testing.T) {
	for _, fx := range []struct {
		name string
		inv  *inventory.Inventory
	}{
		{"pinned", testutil.PinnedInventory()},
		{"fleet", testutil.Build(t, sim.Config{Vessels: 24, Days: 12, Seed: 1}, 6).Inventory},
	} {
		path, _ := writeFixture(t, fx.inv)
		loaded, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		var keys []inventory.GroupKey
		loaded.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool { keys = append(keys, k); return true })
		for _, slots := range []int{2, 64} {
			m := NewMetrics(nil)
			r, err := Open(path, Options{Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			r.cache = newShardCache(slots)
			rng := rand.New(rand.NewSource(int64(slots)))
			for _, j := range rng.Perm(len(keys)) {
				k := keys[j]
				got, ok, err := r.Lookup(k)
				want, _ := loaded.Get(k)
				if err != nil || !ok || !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
					t.Fatalf("%s, %d slots: Lookup(%v) = %v, %v: not Load's", fx.name, slots, k, ok, err)
				}
				if k.Set == inventory.GSCellODType {
					gt, _ := r.ODTransitions(k.Cell, k.Origin, k.Dest, k.VType)
					wt, _ := loaded.ODTransitions(k.Cell, k.Origin, k.Dest, k.VType)
					if !slices.Equal(gt, wt) {
						t.Fatalf("%s, %d slots: ODTransitions(%v) not Load's", fx.name, slots, k)
					}
				}
			}
			if m.Grows.Load() == 0 || m.PinnedBytes.Load() >= int64(r.cache.max)*int64(r.Blocks()[0].RawLen) {
				t.Errorf("%s, %d slots: %d grows, %d bytes pinned: entries should hold prefixes and grow", fx.name, slots, m.Grows.Load(), m.PinnedBytes.Load())
			}
			for _, set := range inventory.AllGroupSets {
				if !slices.Equal(r.Cells(set), loaded.Cells(set)) {
					t.Fatalf("%s: Cells(%v) not Load's", fx.name, set)
				}
			}
			od := map[inventory.GroupKey]bool{}
			for _, k := range keys {
				if k.Cell = 0; k.Set == inventory.GSCellODType && !od[k] {
					od[k] = true
					if !slices.Equal(r.ODCells(k.Origin, k.Dest, k.VType), loaded.ODCells(k.Origin, k.Dest, k.VType)) {
						t.Fatalf("%s: ODCells(%v) not Load's", fx.name, k)
					}
				}
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			r.Close()
		}
	}
}

// noMmap is a mapper that always fails, so openFile falls back to pread.
func noMmap(*os.File, int64) ([]byte, error) { return nil, errors.New("no mmap here") }

func TestNoMmapFallback(t *testing.T) {
	inv := fixture(t)
	path, _ := writeFixture(t, inv)
	r, err := openFile(path, Options{}, noMmap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Mapped() {
		t.Fatal("unmapped reader reports mapped")
	}
	var k inventory.GroupKey
	inv.Each(func(key inventory.GroupKey, _ *inventory.CellSummary) bool { k = key; return false })
	want, _ := inv.Get(k)
	got, ok := r.Get(k)
	if !ok || !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Fatal("pread path returned wrong summary")
	}
}

// TestSegmentSmallerThanWireImage is the on-disk half of the Table-4
// story: the columnar compressed segment must be substantially smaller
// than the uncompressed wire image of the same inventory.
func TestSegmentSmallerThanWireImage(t *testing.T) {
	inv := fixture(t)
	segPath := filepath.Join(t.TempDir(), "a.polseg")
	if err := WriteFile(inv, segPath); err != nil {
		t.Fatal(err)
	}
	ss, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := inventory.Marshal(inv)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Size() >= int64(len(wire)) {
		t.Fatalf("segment (%d B) not smaller than wire image (%d B)", ss.Size(), len(wire))
	}
	t.Logf("segment %d B vs wire image %d B (%.1f%%)",
		ss.Size(), len(wire), 100*float64(ss.Size())/float64(len(wire)))
}

// TestWriteStreamsTheFileBytes: Write to an io.Writer and WriteFile produce
// the same bytes and the same reported checksum, and LoadBytes over them
// materializes the inventory Load reads from the file.
func TestWriteStreamsTheFileBytes(t *testing.T) {
	inv := fixture(t)
	path, fst := writeFixture(t, inv)
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := Write(inv, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Fatal("streamed segment differs from the file")
	}
	if st.Sum != fst.Sum || st.Size != fst.Size || st.Size != int64(buf.Len()) || st.Sum != CRC(onDisk) {
		t.Fatalf("streamed stats crc %08x size %d, file stats crc %08x size %d", st.Sum, st.Size, fst.Sum, fst.Size)
	}

	fromBytes, err := LoadBytes(buf.Bytes(), "mem")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !inventory.Equal(fromBytes, inv) || !inventory.Equal(fromFile, inv) {
		t.Fatal("materialized inventory differs from the source")
	}
	// The heap copy owns its memory: scribbling over the image afterwards
	// must not reach it.
	clear(buf.Bytes())
	if !inventory.Equal(fromBytes, inv) {
		t.Fatal("LoadBytes result aliases its input")
	}

	// One flipped bit in a block is caught on materialization.
	bad := append([]byte(nil), onDisk...)
	bad[len(bad)/3] ^= 0x04
	if _, err := LoadBytes(bad, "mem"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadBytes over a flipped block: %v, want ErrCorrupt", err)
	}
}

// TestOpenNamesRetiredFormat: a POLINV1 inventory file is refused with the
// one line that tells the operator what to do, not a generic geometry error.
func TestOpenNamesRetiredFormat(t *testing.T) {
	wire, err := inventory.Marshal(fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range [][]byte{wire, wire[:40]} { // full image; one shorter than any segment
		path := filepath.Join(t.TempDir(), "old.polinv")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path, Options{})
		if !errors.Is(err, ErrBadMagic) || !strings.Contains(err.Error(), "POLINV1 inventory files are no longer read; rebuild with polbuild") {
			t.Fatalf("Open(%d-byte POLINV1 image) = %v", len(img), err)
		}
	}
}

// TestVersion1RefusedByName: an intact segment that says format version 1 —
// hand-made here: the version field rewritten, and the header checksum that
// covers it resealed — is refused by Open and by LoadBytes with the one line
// that tells the operator what to do. A flipped version field in a version-2
// file is still a checksum error, not this.
func TestVersion1RefusedByName(t *testing.T) {
	path, _ := writeFixture(t, fixture(t))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(img[8:], 1)
	if _, err := LoadBytes(img, "flipped"); !errors.Is(err, ErrChecksum) || errors.Is(err, ErrOldVersion) {
		t.Fatalf("version field flipped under the header checksum: %v, want ErrChecksum", err)
	}
	img = reseal(img)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	const line = "POLSEG1 version 1 segments are no longer read; rebuild with polbuild"
	for name, mmap := range map[string]func(*os.File, int64) ([]byte, error){"mapped": mmapFile, "pread": noMmap} {
		_, err := openFile(path, Options{}, mmap)
		if !errors.Is(err, ErrOldVersion) || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), line) || !strings.Contains(err.Error(), path) {
			t.Fatalf("Open(version 1, %s) = %v", name, err)
		}
	}
	if _, err := Load(path); !errors.Is(err, ErrOldVersion) {
		t.Fatalf("Load(version 1) = %v", err)
	}
	if _, err := LoadBytes(img, "gen.seg"); !errors.Is(err, ErrOldVersion) || !strings.Contains(err.Error(), line) {
		t.Fatalf("LoadBytes(version 1) = %v", err)
	}
}

func equalCells[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkSegmentOpen(b *testing.B) {
	inv := fixture(b)
	path, _ := writeFixture(b, inv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkSegmentLookup reads groups through a reader: warm, 1 024 keys
// of the fixture over the default cache; cold, random (cell) keys of the
// pinned fixture's 256 blocks over a 64-slot cache, reporting the time a
// lookup that inflates takes, and the share of lookups that miss and grow.
func BenchmarkSegmentLookup(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		inv := fixture(b)
		path, _ := writeFixture(b, inv)
		r, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		var keys []inventory.GroupKey
		inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
			keys = append(keys, k)
			return len(keys) < 1024
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Get(keys[i%len(keys)]); !ok {
				b.Fatal("missing key")
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		m := NewMetrics(nil)
		path, _ := writeFixture(b, testutil.PinnedInventory())
		r, err := Open(path, Options{Metrics: m})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		cells := r.Cells(inventory.GSCell)
		rng := rand.New(rand.NewSource(1))
		var missNs time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			before := m.CacheMisses.Load()
			t0 := time.Now()
			if _, ok := r.Cell(cells[rng.Intn(len(cells))]); !ok {
				b.Fatal("missing cell")
			}
			if m.CacheMisses.Load() > before {
				missNs += time.Since(t0)
			}
		}
		misses := m.CacheMisses.Load()
		b.ReportMetric(float64(missNs.Microseconds())/float64(max(misses, 1)), "µs/miss")
		b.ReportMetric(float64(misses)/float64(b.N), "miss/op")
		b.ReportMetric(float64(m.Grows.Load())/float64(b.N), "grow/op")
		b.ReportMetric(float64(m.PinnedBytes.Load())/float64(max(m.Pinned.Load(), 1)), "B/entry")
	})
}

func BenchmarkSegmentWrite(b *testing.B) {
	inv := fixture(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFile(inv, filepath.Join(dir, "bench.polseg")); err != nil {
			b.Fatal(err)
		}
	}
}

// refInflate is the compress/flate read the inflate kernel replaced in
// loadRaw, kept as BenchmarkInflate's baseline: a pooled reader reset onto
// the block, filled to RawLen, then probed for a byte past it.
func refInflate(fr io.ReadCloser, dst, comp []byte) error {
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(fr, dst); err != nil {
		return err
	}
	var probe [1]byte
	if n, _ := fr.Read(probe[:]); n != 0 {
		return errors.New("stream continues past RawLen")
	}
	return nil
}

// pinnedBlocks writes the pinned fixture (256 shards) and returns the
// open reader, its compressed blocks and their raw bytes in total.
func pinnedBlocks(tb testing.TB) (*Reader, [][]byte, int64) {
	path, _ := writeFixture(tb, testutil.PinnedInventory())
	r, err := Open(path, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	var comps [][]byte
	var raw int64
	for _, bi := range r.Blocks() {
		c, err := r.BlockBytes(int(bi.Shard))
		if err != nil {
			tb.Fatal(err)
		}
		comps, raw = append(comps, c), raw+int64(bi.RawLen)
	}
	return r, comps, raw
}

// BenchmarkInflate decodes every block of the pinned fixture (256 shards)
// into its RawLen: the kernel against compress/flate, in MB/s of raw
// block bytes and allocations per pass; then the kernel stopped early, at
// each block's columns, a quarter and half of it (ns/op against the
// kernel's whole pass; MB/s of the whole blocks).
func BenchmarkInflate(b *testing.B) {
	r, comps, raw := pinnedBlocks(b)
	dst := make([]byte, 0, raw)
	fr := flate.NewReader(nil)
	prefix := func(need func(*BlockInfo) int) func(*BlockInfo, []byte, []byte) error {
		return func(bi *BlockInfo, dst, comp []byte) error {
			_, err := deflate.InflatePrefix(dst, comp, func(pre []byte) int { return need(bi) })
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func(bi *BlockInfo, dst, comp []byte) error
	}{
		{"kernel", func(_ *BlockInfo, dst, comp []byte) error {
			_, err := deflate.InflatePrefix(dst, comp, nil)
			return err
		}},
		{"flate", func(_ *BlockInfo, dst, comp []byte) error { return refInflate(fr, dst, comp) }},
		{"prefix=columns", prefix(func(bi *BlockInfo) int { return int(columnsLen(bi.NGroups)) })},
		{"prefix=0.25", prefix(func(bi *BlockInfo) int { return int(bi.RawLen) / 4 })},
		{"prefix=0.5", prefix(func(bi *BlockInfo) int { return int(bi.RawLen) / 2 })},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			for range b.N {
				for i := range r.Blocks() {
					bi := &r.Blocks()[i]
					if err := tc.run(bi, dst[:bi.RawLen], comps[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// refDeflate is the compress/flate write the deflate kernel replaced in
// blockEncoder.encode, kept as BenchmarkDeflate's baseline and to rebuild
// the files that write produced: a pooled level-6 writer reset onto a
// buffer, the block written, the stream closed.
func refDeflate(fw *flate.Writer, dst *bytes.Buffer, raw []byte) []byte {
	dst.Reset()
	fw.Reset(dst)
	fw.Write(raw) // a bytes.Buffer does not fail
	fw.Close()
	return dst.Bytes()
}

// BenchmarkDeflate encodes every raw block of the pinned fixture (256
// shards): the kernel against compress/flate at level 6, in MB/s of raw
// block bytes, with the compressed bytes as a share of the raw ones.
func BenchmarkDeflate(b *testing.B) {
	r, comps, raw := pinnedBlocks(b)
	raws := make([][]byte, len(comps))
	for i, bi := range r.Blocks() {
		raws[i] = make([]byte, bi.RawLen)
		if _, err := deflate.InflatePrefix(raws[i], comps[i], nil); err != nil {
			b.Fatal(err)
		}
	}
	fw, _ := flate.NewWriter(nil, flate.DefaultCompression) // a valid level: no error
	var buf bytes.Buffer
	var dst []byte
	for _, tc := range []struct {
		name string
		run  func(raw []byte) []byte
	}{
		{"kernel", func(raw []byte) []byte { dst = deflate.Deflate(dst[:0], raw); return dst }},
		{"flate", func(raw []byte) []byte { return refDeflate(fw, &buf, raw) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(raw)
			b.ReportAllocs()
			var comp int
			for range b.N {
				comp = 0
				for _, rb := range raws {
					comp += len(tc.run(rb))
				}
			}
			b.ReportMetric(float64(comp)/float64(raw), "comp/raw")
		})
	}
}
