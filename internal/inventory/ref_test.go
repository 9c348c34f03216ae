package inventory

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
)

// The coordinator's fold as it stood before MergeImage — every partial
// decoded into a throw-away inventory (refUnmarshal, the parent's Unmarshal
// verbatim) and deep-copied into the result by MergeFrom, in ascending
// order — kept as the reference MergeImage is held to.

func refUnmarshal(data []byte) (*Inventory, error) {
	if len(data) < len(wireMagic)+4 || !bytes.Equal(data[:len(wireMagic)], wireMagic) {
		return nil, fmt.Errorf("inventory: bad magic")
	}
	p := data[len(wireMagic):]
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("inventory: truncated wire image")
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	version := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if version != wireVersion {
		return nil, fmt.Errorf("inventory: wire image version %d, only version %d is read (coordinator and workers must run the same build)", version, wireVersion)
	}
	if err := need(4 + 8 + 8 + 8 + 4); err != nil {
		return nil, err
	}
	var info BuildInfo
	info.Resolution = int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	info.RawRecords = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	info.UsedRecords = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	info.BuiltUnix = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	descLen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if err := need(descLen + 8); err != nil {
		return nil, err
	}
	info.Description = string(p[:descLen])
	p = p[descLen:]
	numGroups := binary.LittleEndian.Uint64(p)
	p = p[8:]

	inv := New(info)
	for i := uint64(0); i < numGroups; i++ {
		if err := need(keyBytes + 4); err != nil {
			return nil, err
		}
		key, err := decodeKey(p[:keyBytes])
		if err != nil {
			return nil, err
		}
		p = p[keyBytes:]
		bodyLen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if err := need(bodyLen); err != nil {
			return nil, err
		}
		s, rest, err := DecodeCellSummary(p[:bodyLen])
		if err != nil {
			return nil, fmt.Errorf("inventory: group %d: %w", i, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("inventory: group %d: %d trailing bytes", i, len(rest))
		}
		p = p[bodyLen:]
		inv.Put(key, s)
	}
	if err := inv.Validate(); err != nil {
		return nil, err
	}
	return inv, nil
}

// refFold is the parent coordinator's loop over the images, in order.
func refFold(t testing.TB, info BuildInfo, images [][]byte) *Inventory {
	t.Helper()
	final := New(info)
	for i, img := range images {
		partial, err := refUnmarshal(img)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if err := final.MergeFrom(partial); err != nil {
			t.Fatal(err)
		}
	}
	return final
}

// partialImages builds the wire images of n partial inventories whose keys
// overlap: groups of all three grouping sets drawn from one pool of cells,
// summaries of a few observations each — some with NaN speed, course and
// heading, some empty. The first two partials are large enough for the
// shard-parallel path, the last stays on the serial one.
func partialImages(t testing.TB, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(28))
	cells := make([]hexgrid.Cell, 3000)
	for i := range cells {
		cells[i] = hexgrid.LatLngToCell(geo.LatLng{Lat: rng.Float64()*140 - 70, Lng: rng.Float64()*360 - 180}, 6)
	}
	var images [][]byte
	for p := 0; p < n; p++ {
		inv := New(BuildInfo{Resolution: 6, RawRecords: int64(1000 * (p + 1)), UsedRecords: int64(700 * (p + 1))})
		groups := 3 * parallelMergeThreshold / 2
		if p == n-1 {
			groups = parallelMergeThreshold / 8
		}
		for g := 0; g < groups; g++ {
			c := cells[rng.Intn(len(cells))]
			key := NewGroupKey(GroupSet(1+rng.Intn(3)), c, model.VesselType(1+rng.Intn(4)), model.PortID(rng.Intn(5)), model.PortID(rng.Intn(5)))
			s := NewCellSummary()
			for j := rng.Intn(6); j > 0; j-- {
				o := obs(rng, c, uint32(227000000+rng.Intn(50)), uint64(rng.Intn(20)), 1, 2)
				if rng.Intn(8) == 0 {
					o.Rec.SOG, o.Rec.COG, o.Rec.Heading = math.NaN(), math.NaN(), math.NaN()
				}
				s.Add(o)
			}
			inv.Put(key, s)
		}
		img, err := Marshal(inv)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	return images
}

// TestMergeImageMatchesUnmarshalMergeFrom: folding the images one
// MergeImage call at a time, in ascending order, gives the reference fold's
// groups bit for bit (compared by AppendBinary) and its record counters, at
// GOMAXPROCS 1, 2 and 8.
func TestMergeImageMatchesUnmarshalMergeFrom(t *testing.T) {
	images := partialImages(t, 4)
	info := BuildInfo{Resolution: 6, Description: "fold"}
	want := refFold(t, info, images)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := New(info)
		for i, img := range images {
			if err := got.MergeImage(img); err != nil {
				t.Fatalf("GOMAXPROCS %d, image %d: %v", procs, i, err)
			}
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if got.Len() != want.Len() || got.Info() != want.Info() {
			t.Fatalf("GOMAXPROCS %d: %d groups, info %+v; reference %d, %+v", procs, got.Len(), got.Info(), want.Len(), want.Info())
		}
		var gb, wb []byte
		want.Each(func(k GroupKey, ws *CellSummary) bool {
			gs, ok := got.Get(k)
			if !ok {
				t.Fatalf("GOMAXPROCS %d: group %v missing", procs, k)
			}
			if gb, wb = gs.AppendBinary(gb[:0]), ws.AppendBinary(wb[:0]); !bytes.Equal(gb, wb) {
				t.Fatalf("GOMAXPROCS %d: group %v differs from the reference fold", procs, k)
			}
			return true
		})
	}
}
