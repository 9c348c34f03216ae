package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
)

// The fuzz target for the bytes a segment reader trusts from a disk or a
// primary: tail, index, block columns and the summaries in the blob. The
// committed corpus under testdata/fuzz is built by fuzzSeeds (go test
// ./internal/segment -run FuzzSeeds -update rewrites it).

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

// fuzzSeeds: a small segment, an empty one, the small one torn, bit-flipped
// and relabelled version 1.
func fuzzSeeds(t testing.TB) [][]byte {
	inv := inventory.New(inventory.BuildInfo{Resolution: 6, RawRecords: 20, UsedRecords: 12, BuiltUnix: 1700000000, Description: "fuzz seed"})
	for i := 0; i < 12; i++ {
		rec := model.TripRecord{VType: model.VesselType(1 + i%3), TripID: uint64(i % 5), Origin: 1, Dest: model.PortID(2 + i%2),
			DepartTime: 1690000000, ArriveTime: 1690090000 + int64(i)}
		rec.MMSI, rec.Time, rec.SOG, rec.COG, rec.Heading = uint32(210000000+i%7), 1690001000+int64(60*i), 11.5+float64(i)/8, float64(15*i), float64(14*i)
		cell := hexgrid.Cell(0x86194ad07ffffff + uint64(i%2)<<27)
		for _, set := range inventory.AllGroupSets {
			inv.Observe(inventory.NewGroupKey(set, cell, rec.VType, rec.Origin, rec.Dest), inventory.Observation{Rec: rec, NextCell: cell})
		}
	}
	var small, empty bytes.Buffer
	if _, err := Write(inv, &small); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(inventory.New(inv.Info()), &empty); err != nil {
		t.Fatal(err)
	}
	valid := small.Bytes()
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40
	v1 := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	return [][]byte{valid, empty.Bytes(), valid[:len(valid)-7], flipped, reseal(v1)}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated, and current: the
// seeds are rewritten only with -update, and a codec change that leaves the
// committed ones behind fails here.
func TestFuzzSeedsCommitted(t *testing.T) {
	for _, target := range []string{"FuzzLoadBytes", "FuzzSegmentLookup"} {
		seedsCommitted(t, filepath.Join("testdata", "fuzz", target))
	}
}

func seedsCommitted(t *testing.T, dir string) {
	for i, seed := range fuzzSeeds(t) {
		path, want := filepath.Join(dir, fmt.Sprintf("seed-%d", i)), fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if *updateSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(path); err != nil || (string(got) != want && runtime.GOARCH == "amd64") {
			// (Elsewhere Go may fuse x*y+z, which moves float bits in the seeds.)
			t.Errorf("%s is missing or stale (%v): run go test ./internal/segment -run FuzzSeeds -update", path, err)
		}
	}
}

// reseal returns img with every checksum recomputed over the bytes it
// covers, as far as the tail and index geometry can be followed — so a
// mutation reaches the parser behind the checksum instead of stopping at
// it. nil when not even the tail parses.
func reseal(img []byte) []byte {
	if len(img) < TailLen {
		return nil
	}
	img = bytes.Clone(img)
	tail := img[len(img)-TailLen:]
	t, err := ParseTail(tail, int64(len(img)))
	if err != nil {
		return nil
	}
	idx := img[t.IndexOff : t.IndexOff+int64(t.IndexLen)]
	for e := idx[4:]; len(e) >= indexEntryLen; e = e[indexEntryLen:] {
		off, n := binary.LittleEndian.Uint64(e[2:]), uint64(binary.LittleEndian.Uint32(e[10:]))
		if off <= uint64(len(img)) && n <= uint64(len(img))-off {
			binary.LittleEndian.PutUint32(e[18:], CRC(img[off:off+n]))
		}
	}
	binary.LittleEndian.PutUint32(tail[12:], CRC(idx))
	binary.LittleEndian.PutUint32(tail[20:], CRC(img[:t.HeaderLen]))
	return img
}

// FuzzLoadBytes: never panic, and never allocate past what the file's own
// bytes can justify (the process would die here); every refusal wraps
// ErrCorrupt; an image that loads writes again to one that loads Equal.
// Each input is tried as it is and with its checksums resealed.
func FuzzLoadBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, reseal(data)} {
			inv, err := LoadBytes(img, "fuzz")
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("refusal does not wrap ErrCorrupt: %v", err)
				}
				continue
			}
			var out bytes.Buffer
			if _, err := Write(inv, &out); err != nil {
				t.Fatal(err)
			}
			again, err := LoadBytes(out.Bytes(), "rewritten")
			if err != nil || !inventory.Equal(inv, again) {
				t.Fatalf("a loaded image does not survive a rewrite: %v", err)
			}
		}
	})
}

// FuzzSegmentLookup: a reader opened over the image, as it is and with its
// checksums resealed, looks up every key its blocks' columns name, in a
// seeded order, through a cache one entry smaller than the block count, so
// entries load short, grow and evict. It never panics, and every refusal
// wraps ErrCorrupt. Where LoadBytes accepts the image, the reader accepts
// every lookup and serves LoadBytes's summaries, cells and OD cells.
func FuzzSegmentLookup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, reseal(data)} {
			want, lerr := LoadBytes(img, "fuzz")
			r, err := openBytes(img, "fuzz")
			if err != nil {
				if !errors.Is(err, ErrCorrupt) || lerr == nil {
					t.Fatalf("open: %v (LoadBytes: %v)", err, lerr)
				}
				continue
			}
			refused := func(what string, err error) {
				if !errors.Is(err, ErrCorrupt) || lerr == nil {
					t.Fatalf("%s: %v (LoadBytes: %v)", what, err, lerr)
				}
			}
			r.cache = newShardCache(max(len(r.index)-1, 1))
			var keys []inventory.GroupKey
			for i := range r.index {
				bi := &r.index[i]
				p, err := r.inflate(bi, make([]byte, bi.RawLen), func(*inventory.SealedShard) int { return 0 })
				if err != nil {
					refused(fmt.Sprintf("shard %d columns", bi.Shard), err)
					continue
				}
				for g := range p.Len() {
					keys = append(keys, p.Key(g))
				}
			}
			rng := rand.New(rand.NewSource(int64(len(img))))
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				got, ok, err := r.Lookup(k)
				if err != nil {
					refused(fmt.Sprintf("Lookup(%v)", k), err)
					continue
				}
				if lerr != nil {
					continue
				}
				if w, wok := want.Get(k); !ok || !wok || !bytes.Equal(got.AppendBinary(nil), w.AppendBinary(nil)) {
					t.Fatalf("Lookup(%v) = %v: not LoadBytes's summary", k, ok)
				}
			}
			if lerr != nil {
				continue
			}
			for _, set := range inventory.AllGroupSets {
				if !slices.Equal(r.Cells(set), want.Cells(set)) {
					t.Fatalf("Cells(%v) not LoadBytes's", set)
				}
			}
			for _, k := range keys {
				if k.Set == inventory.GSCellODType && !slices.Equal(r.ODCells(k.Origin, k.Dest, k.VType), want.ODCells(k.Origin, k.Dest, k.VType)) {
					t.Fatalf("ODCells(%v) not LoadBytes's", k)
				}
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
