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
	"slices"
	"strings"
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

// sealedSeeds: a block's shard id then its bytes — the fullest shard of a
// small inventory, an empty one, and that block torn, bit-flipped, with two
// keys swapped, two offsets swapped, a byte past its blob, filed under the
// next shard, claiming 2^32-1 groups, and with a records column one off
// its first summary's count.
func sealedSeeds() [][]byte {
	rng := rand.New(rand.NewSource(8))
	inv := New(BuildInfo{Resolution: 6})
	var per [ShardCount]int
	for i, k := range randomKeys(rng, 1200, 6) {
		inv.Observe(k, obs(rng, k.Cell, uint32(227000000+i%11), uint64(i%5), 1, 2))
		per[shardFor(k)]++
	}
	full, empty := 0, 0
	for i, n := range per {
		if n > per[full] {
			full = i
		}
		if n == 0 {
			empty = i
		}
	}
	valid := inv.AppendShardBlock(nil, full)
	seed := func(shard int, raw []byte) []byte { return append([]byte{byte(shard)}, raw...) }
	b, _ := ParseSealedShard(full, valid, len(valid))
	flipped, swappedKeys, swappedOffs := bytes.Clone(valid), bytes.Clone(valid), bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x08
	k0, k1 := b.key(0), b.key(1)
	copy(swappedKeys[blockHead:], k1)
	copy(swappedKeys[blockHead+keyBytes:], k0)
	at := blockHead + b.n*(keyBytes+8) + 4
	copy(swappedOffs[at:], valid[at+4:at+8])
	copy(swappedOffs[at+4:], valid[at:at+4])
	huge := binary.LittleEndian.AppendUint32(nil, 1<<32-1)
	miscounted := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(miscounted[blockHead+b.n*keyBytes:], b.records(0)+1)
	return [][]byte{
		seed(full, valid), seed(empty, inv.AppendShardBlock(nil, empty)),
		seed(full, valid[:len(valid)-5]), seed(full, flipped), seed(full, swappedKeys), seed(full, swappedOffs),
		seed(full, append(bytes.Clone(valid), 0)), seed((full+1)%ShardCount, valid), seed(full, append(huge, valid[4:40]...)),
		seed(full, miscounted),
	}
}

// TestAdoptRefusesMiscountedBlock: a block whose records column disagrees
// with a summary parses, since the parser reads no summary, but does not
// adopt — a re-seal copies that column, so a wrong one would outlive it.
func TestAdoptRefusesMiscountedBlock(t *testing.T) {
	seeds := sealedSeeds()
	seed := seeds[len(seeds)-1]
	b, err := ParseSealedShard(int(seed[0]), seed[1:], len(seed)-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Adopt(BuildInfo{Resolution: 6}, []*SealedShard{b}); err == nil || !strings.Contains(err.Error(), "the column says") {
		t.Fatalf("Adopt = %v, want the records column refused", err)
	}
}

// TestSealedPrefix: a block cut anywhere past its columns parses as a
// prefix of its whole length, and of no other; it decodes the summaries it
// holds as the whole block does and refuses the rest; Over carries it onto
// a longer prefix of the same block only; Adopt refuses it.
func TestSealedPrefix(t *testing.T) {
	raw := sealedSeeds()[0][1:]
	shard := int(sealedSeeds()[0][0])
	whole, err := ParseSealedShard(shard, raw, len(raw))
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{len(raw)}
	for cut := whole.blob(); cut < len(raw); cut += 97 {
		cuts = append(cuts, cut)
	}
	for _, cut := range cuts {
		p, err := ParseSealedShard(shard, raw[:cut], len(raw))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, err := ParseSealedShard(shard, raw[:cut], len(raw)+1); err == nil {
			t.Fatalf("cut %d: a prefix parsed against the wrong length", cut)
		}
		for i := range p.Len() {
			got, gerr := p.Summary(i)
			_, terr := p.Transitions(i)
			if held := p.End(i) <= cut; held != (gerr == nil) || held != (terr == nil) {
				t.Fatalf("cut %d, group %d ending at %d: Summary = %v", cut, i, p.End(i), gerr)
			} else if held && !bytes.Equal(got.AppendBinary(nil), whole.mustSummary(i).AppendBinary(nil)) {
				t.Fatalf("cut %d, group %d: not the whole block's summary", cut, i)
			}
		}
		if _, err := p.Over(raw); err != nil {
			t.Fatalf("cut %d: Over the whole block: %v", cut, err)
		}
		other := bytes.Clone(raw)
		other[blockHead] ^= 1
		if _, err := p.Over(other); err == nil {
			t.Fatalf("cut %d: Over a block with other columns", cut)
		}
		if _, err := Adopt(BuildInfo{Resolution: 6}, []*SealedShard{p}); (err == nil) != (cut == len(raw)) {
			t.Fatalf("cut %d of %d: Adopt = %v", cut, len(raw), err)
		}
	}
	if _, err := ParseSealedShard(shard, raw[:whole.blob()-1], len(raw)); err == nil {
		t.Fatal("a prefix short of the columns parsed")
	}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated, and current: the
// seeds are rewritten only with -update, and a codec change that leaves the
// committed ones behind fails here.
func TestFuzzSeedsCommitted(t *testing.T) {
	for target, seeds := range map[string][][]byte{"FuzzDecodeCellSummary": fuzzSeeds(), "FuzzSealedShard": sealedSeeds()} {
		dir := filepath.Join("testdata", "fuzz", target)
		for i, seed := range seeds {
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
		s, rest, err := DecodeCellSummary(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzAllocPerByte*len(data)+fuzzAllocFixed); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		// The transitions-only read skips what the whole decode builds: it
		// must refuse what that refuses — but a key listed twice in the
		// port lists, which a skip does not sort to see — and agree on
		// what it accepts.
		tr, trRest, trErr := decodeTransitions(data)
		if err != nil {
			if trErr == nil && !strings.Contains(err.Error(), "decode origins") && !strings.Contains(err.Error(), "decode destinations") {
				t.Fatalf("the transitions read accepts what the decode refuses: %v", err)
			}
			return
		}
		if trErr != nil || len(trRest) != len(rest) || !slices.Equal(tr.Top(TopNCapacity), s.TopTransitions(TopNCapacity)) {
			t.Fatalf("the transitions read differs from the decode: %v", trErr)
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

// FuzzSealedShard: the block parser never panics and allocates nothing in
// proportion to what the bytes claim (the bound is the fixed allowance
// above: TotalAlloc counts the fuzzing engine's own allocations too); a block it accepts keeps its
// promises (keys ascending, in their shard, found where they stand). A
// block whose summaries all decode adopts, writes back verbatim, and takes
// a fold — one of its groups merged again — exactly as an open copy of it
// merges in place; the folded shard's block parses and adopts Equal.
func FuzzSealedShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shard, raw := int(data[0]), data[1:]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := ParseSealedShard(shard, raw, len(raw))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > fuzzAllocFixed {
			t.Fatalf("parsing %d bytes allocated %d", len(raw), got)
		}
		if err != nil {
			return
		}
		for i := range b.Len() {
			k := b.Key(i)
			if shardFor(k) != shard || (i > 0 && bytes.Compare(b.key(i-1), b.key(i)) >= 0) {
				t.Fatalf("group %d: key %v out of order or outside shard %d", i, k, shard)
			}
			if j, ok := b.Find(k); !ok || j != i {
				t.Fatalf("group %d: Find = %d, %v", i, j, ok)
			}
		}
		if b.Len() == 0 {
			return
		}
		info := BuildInfo{Resolution: b.Key(0).Cell.Resolution()}
		inv, err := Adopt(info, []*SealedShard{b})
		if err != nil {
			return
		}
		if !bytes.Equal(inv.AppendShardBlock(nil, shard), raw) {
			t.Fatal("an adopted block does not write back verbatim")
		}
		ref := New(info)
		inv.Each(func(k GroupKey, s *CellSummary) bool {
			ref.Put(k, s)
			return true
		})
		k := b.Key(b.Len() / 2)
		s, _ := inv.Get(k)
		period := New(info)
		period.Put(k, s.clone())
		ref.Put(k, s.clone())
		if err := inv.MergeFrom(period); err != nil {
			t.Fatal(err)
		}
		if !Equal(inv, ref) {
			t.Fatal("a fold into the sealed shard differs from the in-place merge")
		}
		block := inv.AppendShardBlock(nil, shard)
		folded, err := ParseSealedShard(shard, block, len(block))
		if err != nil {
			t.Fatalf("the folded shard's block does not parse: %v", err)
		}
		again, err := Adopt(info, []*SealedShard{folded})
		if err != nil || !Equal(again, ref) {
			t.Fatalf("the folded shard's block does not adopt Equal: %v", err)
		}
	})
}
