package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
)

// verifyDamaged exercises a damaged segment and fails the test if any
// path yields silently wrong results: every outcome must be either a
// typed corruption error or data bit-identical to the pristine original.
// Detection is proven by CRC-probing every block (cheap); the
// no-wrong-data property is spot-checked with sampled lookups.
func verifyDamaged(t *testing.T, path string, orig *inventory.Inventory, sample []inventory.GroupKey, what string) {
	t.Helper()
	r, err := Open(path, Options{})
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open returned untyped error: %v", what, err)
		}
		return
	}
	defer r.Close()
	// Open succeeded (damage sits in a block): some block probe must
	// fail, and every query must either agree with the original or error
	// with ErrCorrupt.
	if r.Info() != orig.Info() {
		t.Fatalf("%s: Open accepted a damaged header: %+v", what, r.Info())
	}
	bad := 0
	for _, bi := range r.Blocks() {
		if _, err := r.BlockBytes(bi.Shard); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: block %d untyped error: %v", what, bi.Shard, err)
			}
			bad++
		}
	}
	if bad == 0 {
		t.Fatalf("%s: damage was never detected — CRC coverage hole?", what)
	}
	for _, k := range sample {
		got, ok, err := r.Lookup(k)
		switch {
		case err != nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: Lookup(%v) untyped error: %v", what, k, err)
			}
		case !ok:
			t.Fatalf("%s: Lookup(%v) silently dropped the group", what, k)
		default:
			want, _ := orig.Get(k)
			if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) {
				t.Fatalf("%s: Lookup(%v) returned silently wrong data", what, k)
			}
		}
	}
}

func TestTruncatedSegment(t *testing.T) {
	inv := fixture(t)
	path, st := writeFixture(t, inv)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int64{
		0, 1, headerFixedLen - 1, headerFixedLen + 3,
		st.Size / 4, st.Size / 2, 3 * st.Size / 4,
		st.Size - TailLen - 1, st.Size - TailLen, st.Size - 8, st.Size - 1,
	}
	for _, n := range cuts {
		if n < 0 || n >= st.Size {
			continue
		}
		p := filepath.Join(t.TempDir(), "trunc.polseg")
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, Options{}); err == nil {
			t.Fatalf("Open accepted a segment truncated to %d/%d bytes", n, st.Size)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: untyped error: %v", n, err)
		}
	}
}

// TestBitFlipMatrix is the property test: flip one bit at sampled
// positions across every region of the file and require typed errors,
// never silently wrong results.
func TestBitFlipMatrix(t *testing.T) {
	inv := fixture(t)
	path, st := writeFixture(t, inv)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Sample every region: a stride through the whole file plus a denser
	// stride over the index and every byte of the tail (the structural
	// metadata where single flips are most dangerous).
	positions := map[int64]bool{}
	stride := st.Size / 97
	if stride < 1 {
		stride = 1
	}
	for p := int64(0); p < st.Size; p += stride {
		positions[p] = true
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	indexOff := r.tail.IndexOff
	r.Close()
	for p := indexOff; p < st.Size-TailLen; p += 7 {
		positions[p] = true
	}
	for p := st.Size - TailLen; p < st.Size; p++ {
		positions[p] = true
	}

	var sample []inventory.GroupKey
	inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		if len(sample)%3 == 0 || len(sample) < 64 {
			sample = append(sample, k)
		}
		return len(sample) < 128
	})

	dir := t.TempDir()
	p2 := filepath.Join(dir, "flip.polseg")
	for pos := range positions {
		data[pos] ^= 0x10
		if err := os.WriteFile(p2, data, 0o644); err != nil {
			t.Fatal(err)
		}
		data[pos] ^= 0x10
		verifyDamaged(t, p2, inv, sample, "bit flip at "+strconv.FormatInt(pos, 10))
	}
}

func TestGarbledIndex(t *testing.T) {
	inv := fixture(t)
	path, _ := writeFixture(t, inv)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	indexOff, indexLen := r.tail.IndexOff, r.tail.IndexLen
	r.Close()

	// Overwrite the whole index with a deterministic byte pattern.
	for i := 0; i < indexLen; i++ {
		data[indexOff+int64(i)] = byte(i*37 + 11)
	}
	p := filepath.Join(t.TempDir(), "garbled.polseg")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(p, Options{})
	if err == nil {
		t.Fatal("Open accepted a garbled index")
	}
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("garbled index: want ErrChecksum, got %v", err)
	}
}

func TestBitFlippedBlockIsTyped(t *testing.T) {
	inv := fixture(t)
	path, _ := writeFixture(t, inv)
	r, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := r.Blocks()
	if len(blocks) == 0 {
		t.Fatal("no blocks")
	}
	target := blocks[len(blocks)/2]
	r.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[target.Off+int64(target.CompLen)/2] ^= 0x01
	p := filepath.Join(t.TempDir(), "flipblock.polseg")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m := NewMetrics(nil)
	r2, err := Open(p, Options{Metrics: m})
	if err != nil {
		t.Fatalf("Open should succeed with a damaged block (lazy loading): %v", err)
	}
	defer r2.Close()

	// Find a key in the damaged shard; its Lookup must be ErrChecksum.
	var k inventory.GroupKey
	found := false
	inv.Each(func(key inventory.GroupKey, _ *inventory.CellSummary) bool {
		if inventory.ShardOf(key) == target.Shard {
			k, found = key, true
			return false
		}
		return true
	})
	if !found {
		t.Fatalf("no fixture key in shard %d", target.Shard)
	}
	if _, _, err := r2.Lookup(k); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Lookup in flipped block: want ErrChecksum, got %v", err)
	}
	// The View path swallows the error but counts and retains it.
	if _, ok := r2.Get(k); ok {
		t.Fatal("View Get returned data from a corrupt block")
	}
	if m.CorruptBlocks.Load() == 0 {
		t.Fatal("corrupt-block counter not incremented")
	}
	if err := r2.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Err(): want retained ErrCorrupt, got %v", err)
	}
	// Undamaged shards keep serving.
	healthy := false
	inv.Each(func(key inventory.GroupKey, _ *inventory.CellSummary) bool {
		if inventory.ShardOf(key) != target.Shard {
			if _, ok := r2.Get(key); !ok {
				t.Fatalf("healthy shard %d stopped serving", inventory.ShardOf(key))
			}
			healthy = true
			return false
		}
		return true
	})
	if !healthy {
		t.Fatal("no healthy shard exercised")
	}
}

// TestLyingRawLenRefused: an index entry whose RawLen is one byte short of
// or past what its block inflates to, the index checksum resealed over the
// lie, is caught by the exact-length inflate alone: Lookup on that shard
// fails with ErrCorrupt, and Load refuses the file.
func TestLyingRawLenRefused(t *testing.T) {
	inv := fixture(t)
	path, _ := writeFixture(t, inv)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := ParseTail(img[len(img)-TailLen:], int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := ParseIndex(img[tail.IndexOff:tail.IndexOff+int64(tail.IndexLen)], tail)
	if err != nil {
		t.Fatal(err)
	}
	i := len(blocks) / 2
	target := blocks[i]
	var k inventory.GroupKey
	inv.Each(func(key inventory.GroupKey, _ *inventory.CellSummary) bool {
		k = key
		return inventory.ShardOf(key) != target.Shard
	})
	if inventory.ShardOf(k) != target.Shard {
		t.Fatalf("no fixture key in shard %d", target.Shard)
	}
	for _, lie := range []uint32{target.RawLen - 1, target.RawLen + 1} {
		lied := bytes.Clone(img)
		binary.LittleEndian.PutUint32(lied[tail.IndexOff+4+int64(i*indexEntryLen)+14:], lie)
		p := filepath.Join(t.TempDir(), "lied.polseg")
		if err := os.WriteFile(p, reseal(lied), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p, Options{})
		if err != nil {
			t.Fatalf("RawLen %d for %d: Open reads only the index and must succeed: %v", lie, target.RawLen, err)
		}
		// The inflate refuses it, before the column checks could.
		if _, _, err := r.Lookup(k); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "inflate") {
			t.Errorf("RawLen %d for %d: Lookup = %v, want an inflate ErrCorrupt", lie, target.RawLen, err)
		}
		r.Close()
		if _, err := Load(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("RawLen %d for %d: Load = %v, want ErrCorrupt", lie, target.RawLen, err)
		}
	}
}

// TestWriteFailpoints arms the segment write failpoints and requires the
// atomic write path to leave no file (and no temp debris) behind.
func TestWriteFailpoints(t *testing.T) {
	inv := fixture(t)
	for _, fp := range []string{FPWriteBlock, FPWriteIndex} {
		t.Run(fp, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.polseg")
			if err := fault.Default().Enable(fp, "error(segment disk gone)*1"); err != nil {
				t.Fatal(err)
			}
			defer fault.Default().Disable(fp)
			err := WriteFile(inv, path)
			if err == nil {
				t.Fatal("WriteFile succeeded through an armed failpoint")
			}
			if !fault.IsInjected(err) {
				t.Fatalf("want injected error, got %v", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				t.Fatalf("failed write left %d files behind (%v)", len(entries), entries)
			}
			// Retry after the fault clears must succeed and verify.
			if err := WriteFile(inv, path); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if got, err := Load(path); err != nil || !inventory.Equal(inv, got) {
				t.Fatalf("retry produced unequal segment: %v", err)
			}
		})
	}
}
