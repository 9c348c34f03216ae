package segment

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
)

// pinnedFixture builds an inventory whose every bit is a function of this
// file alone: a seeded stream of observations folded by one goroutine, and
// a fixed BuiltUnix. (The simulator fixture's float summation order
// follows GOMAXPROCS, and its BuiltUnix the clock.) It populates all 256
// shards and all three grouping sets, and its hot and warm cells put
// every HyperLogLog layout in the file: sparse, dense as runs, dense raw.
func pinnedFixture() *inventory.Inventory {
	rng := rand.New(rand.NewSource(13))
	inv := inventory.New(inventory.BuildInfo{
		Resolution:  6,
		RawRecords:  16000,
		UsedRecords: 10000,
		BuiltUnix:   1700000000,
		Description: "segment writer pinned fixture",
	})
	cells := make([]hexgrid.Cell, 400)
	for i := range cells {
		cells[i] = hexgrid.LatLngToCell(geo.LatLng{Lat: 30 + 30*rng.Float64(), Lng: -20 + 50*rng.Float64()}, 6)
	}
	observe := func(cell hexgrid.Cell, mmsi uint32) {
		depart := int64(1690000000 + rng.Intn(1e6))
		now := depart + int64(rng.Intn(4e5))
		rec := model.TripRecord{
			PositionRecord: model.PositionRecord{
				MMSI: mmsi, Time: now,
				SOG: 25 * rng.Float64(), COG: 360 * rng.Float64(), Heading: 360 * rng.Float64(),
			},
			VType:      model.VesselType(1 + rng.Intn(4)),
			TripID:     uint64(mmsi)<<20 | uint64(rng.Intn(8)),
			Origin:     model.PortID(1 + rng.Intn(5)),
			Dest:       model.PortID(1 + rng.Intn(5)),
			DepartTime: depart,
			ArriveTime: now + int64(rng.Intn(4e5)),
		}
		o := inventory.Observation{Rec: rec, NextCell: cells[rng.Intn(len(cells))]}
		for _, set := range inventory.AllGroupSets {
			inv.Observe(inventory.NewGroupKey(set, cell, rec.VType, rec.Origin, rec.Dest), o)
		}
	}
	for i := 0; i < 8000; i++ {
		observe(cells[rng.Intn(len(cells))], uint32(200000000+rng.Intn(300)))
	}
	for i := 0; i < 2000; i++ { // the hot cell: thousands of distinct ships
		observe(cells[0], uint32(300000000+i))
	}
	for i := 0; i < 250; i++ { // the warm cell: a dense sketch that still encodes as runs
		observe(cells[1], uint32(400000000+i))
	}
	return inv
}

// pinnedFixtureCRC is the whole-file CRC32C of pinnedFixture's segment as
// written by the sequential writer this encoder replaced (commit 0574732,
// go1.24 linux/amd64).
const pinnedFixtureCRC = 0x49df58fb

// TestWriteBytesIdenticalAcrossProcs: the file must not depend on how many
// workers compressed it, and must equal what the parent commit wrote.
func TestWriteBytesIdenticalAcrossProcs(t *testing.T) {
	inv := pinnedFixture()
	dir := t.TempDir()
	var first []byte
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		path := filepath.Join(dir, "pinned.polseg")
		st, err := WriteFileSum(inv, path)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if st.Blocks != inventory.ShardCount {
			t.Fatalf("fixture fills %d of %d shards", st.Blocks, inventory.ShardCount)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if CRC(got) != st.Sum || int64(len(got)) != st.Size {
			t.Fatalf("GOMAXPROCS=%d: stats say crc %08x size %d, file has %08x %d", procs, st.Sum, st.Size, CRC(got), len(got))
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Fatalf("GOMAXPROCS=%d wrote different bytes than GOMAXPROCS=1", procs)
		}
	}
	// Go may fuse x*y+z on other architectures, which moves float bits in
	// the summaries themselves; the constant is amd64's.
	if runtime.GOARCH == "amd64" && CRC(first) != pinnedFixtureCRC {
		t.Fatalf("segment CRC32C %#08x, parent commit's writer produced %#08x", CRC(first), uint32(pinnedFixtureCRC))
	}
	got, err := Load(filepath.Join(dir, "pinned.polseg"))
	if err != nil || !inventory.Equal(inv, got) {
		t.Fatalf("pinned fixture does not round-trip: %v", err)
	}
}

// TestWriteFailureLeavesNothingBehind: an emitter that stops at the k-th
// block (or at the index) must return the injected error, leave the
// previous complete file at the destination byte for byte, and take every
// encoder goroutine down with it — workers parked on a hand-off nobody
// will ever receive are what a naive fan-out leaks here.
func TestWriteFailureLeavesNothingBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	inv := pinnedFixture()
	dir := t.TempDir()
	path := filepath.Join(dir, "out.polseg")
	if err := WriteFile(inv, path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for _, tc := range []struct{ fp, spec string }{
		{FPWriteBlock, "error(segment disk gone)*1"},
		{FPWriteBlock, "error(segment disk gone)*1@100"},
		{FPWriteBlock, "error(segment disk gone)*1@255"},
		{FPWriteIndex, "error(segment disk gone)*1"},
	} {
		if err := fault.Default().Enable(tc.fp, tc.spec); err != nil {
			t.Fatal(err)
		}
		err := WriteFile(inv, path)
		fault.Default().Disable(tc.fp)
		if !fault.IsInjected(err) {
			t.Fatalf("%s %s: want injected error, got %v", tc.fp, tc.spec, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
			t.Fatalf("%s %s: failed write touched the destination (%v)", tc.fp, tc.spec, err)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("%s %s: failed write left debris: %v", tc.fp, tc.spec, entries)
		}
		// WriteFile has already waited for its workers; a goroutine past
		// its last statement may still be counted for an instant.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s %s: %d goroutines before, %d after\n%s", tc.fp, tc.spec, baseline, n, buf[:runtime.Stack(buf, true)])
		}
	}
	if err := WriteFile(inv, path); err != nil {
		t.Fatalf("write after the faults cleared: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, good) {
		t.Fatal("write after the faults cleared produced different bytes")
	}
}
