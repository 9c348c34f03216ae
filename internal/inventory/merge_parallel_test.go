package inventory

import (
	"math/rand"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
)

// buildBigInventory returns an inventory with well over
// parallelMergeThreshold groups so MergeFrom takes the parallel path.
func buildBigInventory(t *testing.T, seed int64, n int) *Inventory {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inv := New(BuildInfo{Resolution: 6})
	for i := 0; i < n; i++ {
		ll := geo.LatLng{Lat: rng.Float64()*140 - 70, Lng: rng.Float64()*360 - 180}
		c := hexgrid.LatLngToCell(ll, 6)
		key := NewGroupKey(GSCellType, c, model.VesselTanker, 0, 0)
		s := NewCellSummary()
		s.Add(Observation{Rec: model.TripRecord{
			PositionRecord: model.PositionRecord{MMSI: uint32(200000000 + i), Pos: ll, SOG: 10},
			VType:          model.VesselTanker,
		}})
		inv.Put(key, s)
	}
	return inv
}

// TestMergeFromParallelMatchesSerial merges the same large source into
// two identical destinations — one via the parallel path, one forced
// serial — and requires identical results. Guards the parallel
// shard fan-out against lost or double-counted groups.
func TestMergeFromParallelMatchesSerial(t *testing.T) {
	src := buildBigInventory(t, 1, 3*parallelMergeThreshold)
	if src.Len() < parallelMergeThreshold {
		t.Fatalf("source too small to trigger parallel merge: %d", src.Len())
	}
	for trial := 0; trial < 20; trial++ {
		dstA := buildBigInventory(t, 2, parallelMergeThreshold)
		dstB := deepCopy(t, dstA)
		if err := dstA.MergeFrom(src); err != nil { // parallel (count >= threshold)
			t.Fatal(err)
		}
		// Serial reference: merge shard-sized pieces so count stays
		// under the threshold for each call.
		if err := mergeSerially(dstB, src); err != nil {
			t.Fatal(err)
		}
		if dstA.Len() != dstB.Len() {
			t.Fatalf("trial %d: parallel merge len %d, serial %d", trial, dstA.Len(), dstB.Len())
		}
		mismatch := 0
		dstB.Each(func(k GroupKey, want *CellSummary) bool {
			got, ok := dstA.Get(k)
			if !ok || got.Records != want.Records {
				mismatch++
			}
			return true
		})
		if mismatch > 0 {
			t.Fatalf("trial %d: %d groups differ between parallel and serial merge", trial, mismatch)
		}
	}
}

// mergeSerially folds src into dst in pieces small enough that every
// MergeFrom call stays on the serial path.
func mergeSerially(dst, src *Inventory) error {
	piece := New(BuildInfo{Resolution: src.Info().Resolution})
	flush := func() error {
		if piece.Len() == 0 {
			return nil
		}
		if err := dst.MergeFrom(piece); err != nil {
			return err
		}
		piece = New(BuildInfo{Resolution: src.Info().Resolution})
		return nil
	}
	var err error
	src.Each(func(k GroupKey, s *CellSummary) bool {
		piece.Put(k, s)
		if piece.Len() >= parallelMergeThreshold-1 {
			if err = flush(); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return flush()
}
