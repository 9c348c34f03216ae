package segment

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/deflate"
	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/testutil"
)

// The pinned fixture's two encodings, each with the format version it was
// written under (go1.24 linux/amd64; Go may fuse x*y+z on other
// architectures, which moves float bits in the summaries themselves). A
// segment's version names its layout and raw blocks, not how a block was
// deflated: pinnedSegLogical is the CRC32C of what the version names
// (logicalCRC), pinnedSegCRC that of the whole file the deflate kernel
// writes, and flateSegCRC that of the file compress/flate at level 6
// wrote for the same fixture before the kernel replaced it.
const (
	pinnedSegVersion, pinnedSegLogical = 2, 0x8459b6bd
	pinnedWireVersion, pinnedWireCRC   = 2, 0x3b6d8d56
	pinnedSegCRC, flateSegCRC          = 0xf23d67a3, 0x0cb2ada6
)

// blocksOf parses a segment image's tail and index.
func blocksOf(t testing.TB, img []byte) (Tail, []BlockInfo) {
	t.Helper()
	tail, err := ParseTail(img[len(img)-TailLen:], int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := ParseIndex(img[tail.IndexOff:tail.IndexOff+int64(tail.IndexLen)], tail)
	if err != nil {
		t.Fatal(err)
	}
	return tail, blocks
}

// logicalCRC is a CRC32C over what a segment's format version names: the
// header, then per index entry its shard, raw length and group counts
// with the inflated raw block, then the tail's group total — everything
// but the compressed bytes and the offsets, lengths and checksums that
// follow from them.
func logicalCRC(t testing.TB, img []byte) uint32 {
	tail, blocks := blocksOf(t, img)
	sum := crc32.Update(0, crcTable, img[:tail.HeaderLen])
	var b []byte
	for _, bi := range blocks {
		b = binary.LittleEndian.AppendUint16(b[:0], uint16(bi.Shard))
		b = binary.LittleEndian.AppendUint32(b, bi.RawLen)
		b = binary.LittleEndian.AppendUint32(b, bi.NGroups)
		for _, n := range bi.NSet {
			b = binary.LittleEndian.AppendUint32(b, n)
		}
		raw := make([]byte, bi.RawLen)
		if _, err := deflate.InflatePrefix(raw, img[bi.Off:bi.Off+int64(bi.CompLen)], nil); err != nil {
			t.Fatal(err)
		}
		sum = crc32.Update(crc32.Update(sum, crcTable, b), crcTable, raw)
	}
	return crc32.Update(sum, crcTable, binary.LittleEndian.AppendUint64(b[:0], uint64(tail.TotalGroups)))
}

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
		sum          func([]byte) uint32
	}{
		{"POLSEG1 segment", seg.Bytes(), pinnedSegVersion, pinnedSegLogical, func(b []byte) uint32 { return logicalCRC(t, b) }},
		{"POLINV wire image", wire, pinnedWireVersion, pinnedWireCRC, CRC},
	} {
		if v, crc := binary.LittleEndian.Uint32(tc.img[8:]), tc.sum(tc.img); v != tc.version || crc != tc.crc {
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
		t.Fatalf("segment CRC32C %#08x, pinned %#08x (the deflate kernel's bytes moved)", CRC(first), uint32(pinnedSegCRC))
	}
	got, err := Load(filepath.Join(dir, "pinned.polseg"))
	if err != nil || !inventory.Equal(inv, got) {
		t.Fatalf("pinned fixture does not round-trip: %v", err)
	}
}

// TestCompressFlateBlocksStillRead: a file whose blocks compress/flate
// wrote — every segment on disk before the deflate kernel — still opens,
// answers and loads. It is rebuilt here from the kernel's file: each block
// re-deflated by refDeflate, the index and tail resealed around the new
// lengths, offsets and checksums; it must be the very file the pin named.
func TestCompressFlateBlocksStillRead(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned checksums are amd64's")
	}
	inv := testutil.PinnedInventory()
	var seg bytes.Buffer
	if _, err := Write(inv, &seg); err != nil {
		t.Fatal(err)
	}
	img := seg.Bytes()
	tail, blocks := blocksOf(t, img)
	fw, _ := flate.NewWriter(nil, flate.DefaultCompression) // a valid level: no error
	var buf bytes.Buffer
	old := bytes.Clone(img[:tail.HeaderLen])
	idx := binary.LittleEndian.AppendUint32(nil, uint32(len(blocks)))
	for _, bi := range blocks {
		raw := make([]byte, bi.RawLen)
		if _, err := deflate.InflatePrefix(raw, img[bi.Off:bi.Off+int64(bi.CompLen)], nil); err != nil {
			t.Fatal(err)
		}
		comp := refDeflate(fw, &buf, raw)
		idx = binary.LittleEndian.AppendUint16(idx, uint16(bi.Shard))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(len(old)))
		idx = binary.LittleEndian.AppendUint32(idx, uint32(len(comp)))
		idx = binary.LittleEndian.AppendUint32(idx, bi.RawLen)
		idx = binary.LittleEndian.AppendUint32(idx, CRC(comp))
		idx = binary.LittleEndian.AppendUint32(idx, bi.NGroups)
		for _, n := range bi.NSet {
			idx = binary.LittleEndian.AppendUint32(idx, n)
		}
		old = append(old, comp...)
	}
	indexOff := len(old)
	old = append(old, idx...)
	old = binary.LittleEndian.AppendUint64(old, uint64(indexOff))
	old = binary.LittleEndian.AppendUint32(old, uint32(len(idx)))
	old = binary.LittleEndian.AppendUint32(old, CRC(idx))
	old = append(old, img[len(img)-TailLen+16:]...) // header length and CRC, groups, magic
	if got := CRC(old); got != flateSegCRC {
		t.Fatalf("rebuilt compress/flate file: CRC32C %#08x, pinned %#08x", got, uint32(flateSegCRC))
	}
	if len(img)*10000 > len(old)*10025 {
		t.Errorf("the kernel's file is %d bytes, compress/flate's %d: more than 0.25 %% apart", len(img), len(old))
	}

	path := filepath.Join(t.TempDir(), "flate.polseg")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	inv.Each(func(k inventory.GroupKey, want *inventory.CellSummary) bool {
		got, ok := r.Get(k)
		if !ok || !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("Get(%v) on the compress/flate file: found %v, or the summary differs", k, ok)
		}
		return true
	})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(path); err != nil || !inventory.Equal(inv, got) {
		t.Fatalf("the compress/flate file does not load Equal: %v", err)
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
