package inventory

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
)

// The fuzz target for the summary bytes a segment blob or a wire image
// hands DecodeCellSummary. The committed corpus under testdata/fuzz is
// built by fuzzSeeds (go test ./internal/inventory -run FuzzSeeds -update
// rewrites it).

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

// fuzzSeeds: an empty summary, a small one, one whose ship sketch went
// dense, the small one torn and bit-flipped, and an empty one whose speed
// digest claims 2^30 centroids.
func fuzzSeeds() [][]byte {
	rng := rand.New(rand.NewSource(5))
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 52, Lng: 4}, 6)
	small, dense := NewCellSummary(), NewCellSummary()
	for i := 0; i < 9; i++ {
		small.Add(obs(rng, cell, uint32(227000000+i%3), uint64(i%2), 1, 2))
	}
	for i := 0; i < 400; i++ {
		dense.Add(obs(rng, cell, uint32(227000000+i), uint64(i%7), 1, 2))
	}
	valid := small.AppendBinary(nil)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)*2/3] ^= 0x40
	// An empty digest ends in its centroid count, one zero byte: everything
	// up to there, the claim, and the rest of the summary as it was.
	e := NewCellSummary()
	empty := e.AppendBinary(nil)
	at := len(e.SpeedDig.AppendBinary(e.Speed.AppendBinary(e.HeadingBins.AppendBinary(e.Heading.AppendBinary(
		e.CourseBins.AppendBinary(e.Course.AppendBinary(e.Ships.AppendBinary([]byte{0}))))))))
	bomb := append(binary.AppendUvarint(bytes.Clone(empty[:at-1]), 1<<30), empty[at:]...)
	return [][]byte{empty, valid, dense.AppendBinary(nil), valid[:len(valid)-7], flipped, bomb}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated, and current: the
// seeds are rewritten only with -update, and a codec change that leaves the
// committed ones behind fails here.
func TestFuzzSeedsCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeCellSummary")
	for i, seed := range fuzzSeeds() {
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
			t.Errorf("%s is missing or stale (%v): run go test ./internal/inventory -run FuzzSeeds -update", path, err)
		}
	}
}

// What decoding len(x) bytes may allocate: a fixed multiple of the input —
// the densest legal elements are a top-N entry, three one-byte varints
// into a 24-byte entry, and a digest centroid, two into 16 bytes: 8 bytes
// a byte, held at twice that — plus the summary's fixed parts, which
// include two register files of up to 64 KiB once a sketch of the highest
// precision passes the sparse limit.
const (
	fuzzAllocPerByte = 16
	fuzzAllocFixed   = 192 << 10
)

// FuzzDecodeCellSummary: never panic; never allocate past that bound,
// whatever counts the bytes claim; a summary that decodes encodes to bytes
// that decode to an equal summary.
func FuzzDecodeCellSummary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, _, err := DecodeCellSummary(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocPerByte*len(data)+fuzzAllocFixed); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		enc := s.AppendBinary(nil)
		again, rest, err := DecodeCellSummary(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded summary does not decode: %v (%d trailing bytes)", err, len(rest))
		}
		if !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatal("decode∘encode is not the identity on a decoded summary")
		}
	})
}
