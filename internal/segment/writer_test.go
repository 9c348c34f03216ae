package segment

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/testutil"
)

// The pinned fixture's two encodings, each with the format version it was
// written under (go1.24 linux/amd64; Go may fuse x*y+z on other
// architectures, which moves float bits in the summaries themselves).
const (
	pinnedSegVersion, pinnedSegCRC   = 2, 0x0cb2ada6
	pinnedWireVersion, pinnedWireCRC = 2, 0x3b6d8d56
)

// TestFormatBytesAndVersionMoveTogether: a codec edit changes these bytes,
// and must not ship under the version number that named the old ones.
func TestFormatBytesAndVersionMoveTogether(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned checksums are amd64's")
	}
	inv := testutil.PinnedInventory()
	var seg bytes.Buffer
	if _, err := Write(inv, &seg); err != nil {
		t.Fatal(err)
	}
	wire, err := inventory.Marshal(inv)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		img          []byte // 8-byte magic, then the version as a u32
		version, crc uint32
	}{
		{"POLSEG1 segment", seg.Bytes(), pinnedSegVersion, pinnedSegCRC},
		{"POLINV wire image", wire, pinnedWireVersion, pinnedWireCRC},
	} {
		if v, crc := binary.LittleEndian.Uint32(tc.img[8:]), CRC(tc.img); v != tc.version || crc != tc.crc {
			t.Errorf("%s: version %d, CRC32C %#08x; pinned: version %d, CRC32C %#08x — the encoding changed: bump the version and re-pin",
				tc.name, v, crc, tc.version, uint32(tc.crc))
		}
	}
}

// TestWriteBytesIdenticalAcrossProcs: the file must not depend on how many
// workers compressed it.
func TestWriteBytesIdenticalAcrossProcs(t *testing.T) {
	inv := testutil.PinnedInventory()
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
	if runtime.GOARCH == "amd64" && CRC(first) != pinnedSegCRC {
		t.Fatalf("segment CRC32C %#08x, pinned %#08x", CRC(first), uint32(pinnedSegCRC))
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
	inv := testutil.PinnedInventory()
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
