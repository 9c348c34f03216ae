package inventory_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

// footprintFields are the sketch fields of a CellSummary, the ones that
// own memory beyond the struct.
var footprintFields = []string{
	"Ships", "CourseBins", "HeadingBins", "SpeedDig", "Trips",
	"ETODig", "ATADig", "Origins", "Dests", "Transitions",
}

func init() {
	inventory.SegmentRoundTrip = func(inv *inventory.Inventory) (*inventory.Inventory, error) {
		var seg bytes.Buffer
		if _, err := segment.Write(inv, &seg); err != nil {
			return nil, err
		}
		return segment.LoadBytes(seg.Bytes(), "round trip")
	}
}

// liveHeap is the heap still reachable once two collections in a row free
// nothing: a sync.Pool lets go of its contents over two.
func liveHeap() uint64 {
	var m runtime.MemStats
	last, still := uint64(1<<64-1), 0
	for still < 2 {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc < last {
			still = 0
		} else {
			still++
		}
		last = m.HeapAlloc
	}
	return last
}

// materialise decodes every group of a segment image into an open
// inventory (Each → Put), the form a build leaves: one CellSummary a group.
// The sealed inventory it read from is garbage on return.
func materialise(b *testing.B, seg []byte) *inventory.Inventory {
	loaded, err := segment.LoadBytes(seg, "footprint")
	if err != nil {
		b.Fatal(err)
	}
	open := inventory.New(loaded.Info())
	loaded.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		open.Put(k, s)
		return true
	})
	return open
}

// sealed loads a segment image and publishes it, as a heap server does:
// the snapshot holds the segment's blocks as they inflated.
func sealed(b *testing.B, seg []byte) *inventory.Inventory {
	master, err := segment.LoadBytes(seg, "footprint")
	if err != nil {
		b.Fatal(err)
	}
	return master.Snapshot()
}

// heldAfterFold loads a segment image into a master, as a primary restores
// a checkpoint, folds a period re-observing one of its groups into it and
// publishes, returning the master and the snapshot.
func heldAfterFold(b *testing.B, seg []byte) (master, snap *inventory.Inventory) {
	master, err := segment.LoadBytes(seg, "footprint")
	if err != nil {
		b.Fatal(err)
	}
	period := inventory.New(master.Info())
	master.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		c := inventory.NewCellSummary()
		c.Merge(s)
		period.Put(k, c)
		return false
	})
	if err := master.MergeFrom(period); err != nil {
		b.Fatal(err)
	}
	return master, master.Snapshot()
}

// BenchmarkSummaryFootprint reports what a group weighs on the heap: a
// testutil fleet (24 vessels × 12 days, sim seed 1) is written to a segment
// and decoded from it into an open inventory, a CellSummary a group, as a
// build leaves it (Each → Put). It reports live bytes per group in total
// ("B/group"), beside its CellSummary.AppendBinary bytes ("raw-B/group"),
// and per sketch field ("<field>-B/group": the field's place in the struct
// plus what it points to, measured by zeroing that field in every group and
// collecting). "struct-B/group" is the rest: the struct's other fields,
// its size-class slack and its map slot. "sealed-B/group" is a heap
// server's snapshot of the same segment (segment.LoadBytes, then Snapshot):
// every shard held as its block. "held-B/group" is what a live primary or
// heap replica holds: the loaded master kept alive beside its snapshot
// after one fold (MergeFrom of a one-group period, then Snapshot), which
// overlays one summary on one block; it reads sealed-B/group when the two
// share their blocks and about twice that when each holds its own.
func BenchmarkSummaryFootprint(b *testing.B) {
	for _, res := range []int{6, 7} {
		b.Run("res"+string(rune('0'+res)), func(b *testing.B) {
			inv := testutil.Build(b, sim.Config{Vessels: 24, Days: 12, Seed: 1}, res).Inventory
			var seg bytes.Buffer
			if _, err := segment.Write(inv, &seg); err != nil {
				b.Fatal(err)
			}
			var raw []byte
			rawTotal := 0
			inv.Each(func(_ inventory.GroupKey, s *inventory.CellSummary) bool {
				raw = s.AppendBinary(raw[:0])
				rawTotal += len(raw)
				return true
			})
			groups := float64(inv.Len())
			inv = nil

			var snap *inventory.Inventory
			var before, after uint64
			for range b.N {
				snap = nil
				before = liveHeap()
				snap = sealed(b, seg.Bytes())
				after = liveHeap()
			}
			b.ReportMetric(float64(int64(after-before))/groups, "sealed-B/group")
			runtime.KeepAlive(snap)
			for range b.N {
				snap = nil
				before = liveHeap()
				snap = materialise(b, seg.Bytes())
				after = liveHeap()
			}
			b.StopTimer()
			total := float64(int64(after-before)) / groups
			b.ReportMetric(total, "B/group")
			b.ReportMetric(float64(rawTotal)/groups, "raw-B/group")

			rest, prev := total, after
			typ := reflect.TypeOf(inventory.CellSummary{})
			for _, name := range footprintFields {
				f, _ := typ.FieldByName(name)
				snap.Each(func(_ inventory.GroupKey, s *inventory.CellSummary) bool {
					reflect.ValueOf(s).Elem().FieldByIndex(f.Index).SetZero()
					return true
				})
				now := liveHeap()
				field := float64(f.Type.Size()) + float64(int64(prev-now))/groups
				prev, rest = now, rest-field
				b.ReportMetric(field, strings.ToLower(name)+"-B/group")
			}
			b.ReportMetric(rest, "struct-B/group")
			runtime.KeepAlive(snap)

			before = liveHeap()
			master, held := heldAfterFold(b, seg.Bytes())
			b.ReportMetric(float64(int64(liveHeap()-before))/groups, "held-B/group")
			runtime.KeepAlive(master)
			runtime.KeepAlive(held)
			runtime.KeepAlive(&seg) // live through every reading, as it was in before
		})
	}
}

// BenchmarkSealedGet reports what a lookup costs on the two kinds of shard
// (ns/op and allocs/op per Get): "open" reads the summary a build left in
// its map, "sealed" finds the key in a block by binary search and decodes
// the summary from its bytes, as every Get on a heap snapshot or a loaded
// segment does. The keys are every group of the footprint fleet (24 × 12,
// sim seed 1, res 6), in one shuffled order; "sealed-cell" takes only the
// (cell) groups, which hold the most traffic, and so the largest sketches.
func BenchmarkSealedGet(b *testing.B) {
	open := testutil.Build(b, sim.Config{Vessels: 24, Days: 12, Seed: 1}, 6).Inventory
	var seg bytes.Buffer
	if _, err := segment.Write(open, &seg); err != nil {
		b.Fatal(err)
	}
	sealed, err := segment.LoadBytes(seg.Bytes(), "sealed-get")
	if err != nil {
		b.Fatal(err)
	}
	var keys, cells []inventory.GroupKey
	open.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		keys = append(keys, k)
		if k.Set == inventory.GSCell {
			cells = append(cells, k)
		}
		return true
	})
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, tc := range []struct {
		name string
		inv  *inventory.Inventory
		keys []inventory.GroupKey
	}{{"open", open, keys}, {"sealed", sealed, keys}, {"open-cell", open, cells}, {"sealed-cell", sealed, cells}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				if _, ok := tc.inv.Get(tc.keys[i%len(tc.keys)]); !ok {
					b.Fatal("missing key")
				}
			}
		})
	}
}
