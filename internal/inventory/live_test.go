package inventory

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
)

// testObservation builds a minimal observation at the given position.
func testObservation(mmsi uint32, t int64, p geo.LatLng) Observation {
	return Observation{
		Rec: model.TripRecord{
			PositionRecord: model.PositionRecord{MMSI: mmsi, Time: t, Pos: p, SOG: 12, COG: 45, Heading: 44},
			VType:          model.VesselCargo,
			TripID:         uint64(mmsi)<<32 | uint64(t),
			Origin:         model.PortID(1),
			Dest:           model.PortID(2),
			DepartTime:     t - 1000,
			ArriveTime:     t + 1000,
		},
		NextCell: hexgrid.InvalidCell,
	}
}

// TestConcurrentSnapshotServing exercises the documented live-serving
// pattern under the race detector: a single writer merges micro-batch
// period inventories into a master and publishes Snapshot() results (which
// share every shard and summary with it) through an atomic pointer, while
// reader goroutines concurrently hit Get, At, Cells, ODCells (the lazy
// per-shard index path) and ODSummary of what it returns, and the t-digest
// reads that fold pending points in (Quantile, AppendBinary) on whatever
// snapshot is current — so a summary that reached a snapshot with points
// pending is a race. The master starts sealed, from 8 000 groups, so folds
// overlay its blocks and re-seal some, and the readers decode from blocks
// and read overlays at once. Readers must never observe a partially merged
// inventory: every published snapshot's group count and record totals are
// internally consistent and monotonically non-decreasing.
func TestConcurrentSnapshotServing(t *testing.T) {
	const res = 6
	base := geo.LatLng{Lat: 35, Lng: 18}

	master := New(BuildInfo{Resolution: res})
	prefill := randomKeys(rand.New(rand.NewSource(41)), 8000, res)
	for i, k := range prefill {
		master.Observe(k, testObservation(uint32(200000000+i%97), int64(i), k.Cell.LatLng()))
	}
	var snap atomic.Pointer[Inventory]
	snap.Store(master.Snapshot())

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A goroutine's loads are sequential, so the group count it
			// observes must never shrink (snapshots only grow).
			var maxSeen int64
			for i := 0; !stop.Load(); i++ {
				inv := snap.Load()
				n := int64(inv.Len())
				// Snapshots are immutable: all reads must be coherent.
				var records uint64
				var buf []byte
				inv.Each(func(_ GroupKey, s *CellSummary) bool {
					records += s.Records
					s.SpeedDig.Quantile(0.5)
					s.ATADig.Quantile(0.9)
					buf = s.AppendBinary(buf[:0])
					return true
				})
				if n > 0 && records == 0 {
					t.Error("snapshot has groups but zero records")
					return
				}
				if n < maxSeen {
					t.Errorf("snapshot shrank: %d groups after %d", n, maxSeen)
					return
				}
				maxSeen = n
				s, ok := inv.Get(prefill[(g*1000+i)%len(prefill)])
				if !ok || s.Records == 0 {
					t.Error("a prefilled group is missing or empty")
					return
				}
				s.SpeedDig.Quantile(0.1)
				if s, ok := inv.At(base); ok {
					s.SpeedDig.Quantile(0.9)
				}
				inv.Cells(GSCell)
				for _, c := range inv.ODCells(model.PortID(1), model.PortID(2), model.VesselCargo) {
					s, ok := inv.ODSummary(c, model.PortID(1), model.PortID(2), model.VesselCargo)
					if !ok {
						t.Errorf("ODCells names %v, ODSummary has no group there", c)
						return
					}
					s.SpeedDig.Quantile(0.5)
					if tr, ok := inv.ODTransitions(c, model.PortID(1), model.PortID(2), model.VesselCargo); !ok || !slices.Equal(tr, s.TopTransitions(TopNCapacity)) {
						t.Errorf("ODTransitions(%v) differ from its summary's", c)
						return
					}
				}
			}
		}()
	}

	// Writer: 40 micro-batch periods of 25 observations each.
	var overlaid bool
	for period := 0; period < 40; period++ {
		p := New(BuildInfo{Resolution: res})
		for i := 0; i < 25; i++ {
			pos := geo.Destination(base, float64((period*25+i)%360), float64(i)*8000)
			cell := hexgrid.LatLngToCell(pos, res)
			o := testObservation(uint32(200000000+i%7), int64(period*1000+i), pos)
			for _, set := range AllGroupSets {
				p.Observe(NewGroupKey(set, cell, o.Rec.VType, o.Rec.Origin, o.Rec.Dest), o)
			}
		}
		if err := master.MergeFrom(p); err != nil {
			t.Fatal(err)
		}
		for _, sh := range master.shards {
			overlaid = overlaid || (sh != nil && sh.base != nil && len(sh.groups) > 0)
		}
		snap.Store(master.Snapshot())
	}
	stop.Store(true)
	wg.Wait()

	final := snap.Load()
	if final.Len() != master.Len() {
		t.Fatalf("final snapshot has %d groups, master %d", final.Len(), master.Len())
	}
	if err := final.Validate(); err != nil {
		t.Fatal(err)
	}
	if !overlaid {
		t.Fatal("no fold left an overlay on a sealed block: the readers never read one")
	}
}

// deepCopy builds a copy of an open inv that shares no state with it: a
// fresh inventory merged from inv, which clones every summary of an open
// source (of a shared one it would share them all).
func deepCopy(t testing.TB, inv *Inventory) *Inventory {
	t.Helper()
	c := New(inv.Info())
	if err := c.MergeFrom(inv); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMergedCopyIndependence verifies a merged copy shares no mutable
// state: mutating the original must not affect the copy's summaries or
// counts.
func TestMergedCopyIndependence(t *testing.T) {
	inv := New(BuildInfo{Resolution: 6, Description: "orig"})
	pos := geo.LatLng{Lat: 10, Lng: 10}
	cell := hexgrid.LatLngToCell(pos, 6)
	key := NewGroupKey(GSCell, cell, model.VesselCargo, 1, 2)
	inv.Observe(key, testObservation(200000001, 1000, pos))

	c := deepCopy(t, inv)
	if c.Len() != 1 || c.Info() != inv.Info() {
		t.Fatalf("clone mismatch: len=%d info=%+v", c.Len(), c.Info())
	}
	// Mutate the original heavily.
	for i := 0; i < 50; i++ {
		inv.Observe(key, testObservation(200000002, int64(2000+i), pos))
	}
	cs, ok := c.Get(key)
	if !ok {
		t.Fatal("clone lost the group")
	}
	if cs.Records != 1 {
		t.Fatalf("clone records = %d after mutating original, want 1", cs.Records)
	}
	os, _ := inv.Get(key)
	if os.Records != 51 {
		t.Fatalf("original records = %d, want 51", os.Records)
	}
}
