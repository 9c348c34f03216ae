package inventory_test

import (
	"bytes"
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

// materialise loads a segment image and publishes it, as a heap server
// does; the master it loaded into is garbage on return.
func materialise(b *testing.B, seg []byte) *inventory.Inventory {
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
// and materialised from it as a heap server does (decode → Put →
// Snapshot, master dropped). It reports live bytes per group in total
// ("B/group"), beside its CellSummary.AppendBinary bytes ("raw-B/group"),
// and per sketch field ("<field>-B/group": the field's place in the struct
// plus what it points to, measured by zeroing that field in every group and
// collecting). "struct-B/group" is the rest: the struct's other fields,
// its size-class slack and its map slot. "held-B/group" is what a live
// primary or heap replica holds: the loaded master kept alive beside its
// snapshot after one fold (MergeFrom of a one-group period, then
// Snapshot); it reads B/group when the two share their summaries and
// about twice that when each holds its own.
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
