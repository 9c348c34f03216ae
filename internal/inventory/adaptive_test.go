package inventory

import (
	"math/rand"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
)

// buildFineInventory creates a res-7 inventory with one dense cluster and a
// long sparse trail.
func buildFineInventory(t testing.TB) (*Inventory, hexgrid.Cell) {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	inv := New(BuildInfo{Resolution: 7, RawRecords: 100000, Description: "adaptive fixture"})
	dense := hexgrid.LatLngToCell(geo.LatLng{Lat: 51.9, Lng: 3.5}, 7)
	// Dense cluster: disk of res-7 cells with many records each.
	for _, c := range hexgrid.GridDisk(dense, 4) {
		s := NewCellSummary()
		for j := 0; j < 200; j++ {
			s.Add(obs(rng, c, uint32(227000000+j%40), uint64(j%30), 1, 2))
		}
		inv.Put(NewGroupKey(GSCell, c, 0, 0, 0), s)
	}
	// Sparse trail far away: isolated cells with few records.
	trail := hexgrid.LatLngToCell(geo.LatLng{Lat: 35, Lng: -40}, 7)
	cur := trail
	for i := 0; i < 60; i++ {
		s := NewCellSummary()
		for j := 0; j < 3; j++ {
			s.Add(obs(rng, cur, 227000001, uint64(i), 1, 2))
		}
		inv.Put(NewGroupKey(GSCell, cur, 0, 0, 0), s)
		cur = cur.Neighbors()[0]
	}
	return inv, dense
}

func TestRollUpConservesRecords(t *testing.T) {
	fine, _ := buildFineInventory(t)
	coarse, err := RollUp(fine, 6)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Info().Resolution != 6 {
		t.Errorf("rolled-up resolution %d", coarse.Info().Resolution)
	}
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := func(inv *Inventory) (total uint64) {
		inv.Each(func(k GroupKey, s *CellSummary) bool {
			if k.Set == GSCell {
				total += s.Records
			}
			return true
		})
		return total
	}
	if got, want := sum(coarse), sum(fine); got != want {
		t.Errorf("records not conserved: %d vs %d", got, want)
	}
	if coarse.CountGroups(GSCell) >= fine.CountGroups(GSCell) {
		t.Errorf("roll-up must reduce group count: %d vs %d",
			coarse.CountGroups(GSCell), fine.CountGroups(GSCell))
	}
	// The source must be untouched.
	if err := fine.Validate(); err != nil {
		t.Fatal(err)
	}
	if fine.Info().Resolution != 7 {
		t.Error("roll-up mutated the source")
	}
}

func TestRollUpMatchesDirectParentMerge(t *testing.T) {
	fine, dense := buildFineInventory(t)
	coarse, err := RollUp(fine, 6)
	if err != nil {
		t.Fatal(err)
	}
	parent := dense.Parent(6)
	want := NewCellSummary()
	for _, c := range fine.Cells(GSCell) {
		if c.Parent(6) == parent {
			s, _ := fine.Cell(c)
			want.Merge(s)
		}
	}
	got, ok := coarse.Cell(parent)
	if !ok {
		t.Fatal("parent cell missing after roll-up")
	}
	if got.Records != want.Records {
		t.Errorf("parent records %d, want %d", got.Records, want.Records)
	}
	if got.Ships.Estimate() != want.Ships.Estimate() {
		t.Error("ships sketch differs from direct merge")
	}
}

func TestRollUpRejectsBadTarget(t *testing.T) {
	fine, _ := buildFineInventory(t)
	if _, err := RollUp(fine, 7); err == nil {
		t.Error("same resolution must fail")
	}
	if _, err := RollUp(fine, 8); err == nil {
		t.Error("finer resolution must fail")
	}
	if _, err := RollUp(fine, -1); err == nil {
		t.Error("negative resolution must fail")
	}
}

func TestBuildAdaptiveKeepsDenseFine(t *testing.T) {
	fine, dense := buildFineInventory(t)
	ai, err := BuildAdaptive(fine, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	fineCount, coarseCount := ai.CountByResolution()
	if fineCount == 0 {
		t.Fatal("no fine cells preserved in the dense area")
	}
	if coarseCount == 0 {
		t.Fatal("no coarse cells produced in the sparse area")
	}
	if ai.fineRes != 7 || ai.coarseRes != 6 {
		t.Errorf("resolutions %d/%d", ai.fineRes, ai.coarseRes)
	}
	// Dense-area lookup returns a fine cell; sparse-area lookup a coarse
	// one.
	d, ok := ai.At(dense.LatLng())
	if !ok || d.Cell.Resolution() != 7 {
		t.Errorf("dense lookup: %+v ok=%v", d, ok)
	}
	s, ok := ai.At(geo.LatLng{Lat: 35, Lng: -40})
	if !ok || s.Cell.Resolution() != 6 {
		t.Errorf("sparse lookup: %+v ok=%v", s, ok)
	}
	if _, ok := ai.At(geo.LatLng{Lat: -60, Lng: 100}); ok {
		t.Error("uncovered area must report !ok")
	}
	// The adaptive inventory is smaller than the uniform fine one but
	// conserves records.
	if ai.Len() >= fine.CountGroups(GSCell) {
		t.Errorf("adaptive %d cells, fine %d: no compression", ai.Len(), fine.CountGroups(GSCell))
	}
	var fineTotal uint64
	fine.Each(func(k GroupKey, cs *CellSummary) bool {
		if k.Set == GSCell {
			fineTotal += cs.Records
		}
		return true
	})
	if ai.TotalRecords() != fineTotal {
		t.Errorf("records not conserved: %d vs %d", ai.TotalRecords(), fineTotal)
	}
}

func TestBuildAdaptiveThresholdExtremes(t *testing.T) {
	fine, _ := buildFineInventory(t)
	// Threshold 0: everything stays fine.
	all, err := BuildAdaptive(fine, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, c := all.CountByResolution()
	if c != 0 || f != fine.CountGroups(GSCell) {
		t.Errorf("threshold 0: fine=%d coarse=%d", f, c)
	}
	// Huge threshold: everything collapses to coarse.
	none, err := BuildAdaptive(fine, 6, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	f, c = none.CountByResolution()
	if f != 0 || c == 0 {
		t.Errorf("huge threshold: fine=%d coarse=%d", f, c)
	}
	if _, err := BuildAdaptive(fine, 7, 10); err == nil {
		t.Error("equal resolutions must fail")
	}
}

func TestMergeFromIncrementalBuilds(t *testing.T) {
	// Two period inventories merge into the running total (the
	// incremental-update path) with exact record conservation.
	jan, dense := buildFineInventory(t)
	feb, _ := buildFineInventory(t) // same fixture: doubles every count
	total := New(jan.Info())
	if err := total.MergeFrom(jan); err != nil {
		t.Fatal(err)
	}
	if err := total.MergeFrom(feb); err != nil {
		t.Fatal(err)
	}
	js, _ := jan.Cell(dense)
	ts, ok := total.Cell(dense)
	if !ok || ts.Records != 2*js.Records {
		t.Fatalf("merged records %d, want %d", ts.Records, 2*js.Records)
	}
	if total.Info().RawRecords != 3*jan.Info().RawRecords {
		// New(jan.Info()) starts with jan's raw count, then two merges add
		// two more.
		t.Errorf("raw records %d", total.Info().RawRecords)
	}
	// Sources untouched.
	js2, _ := jan.Cell(dense)
	if js2.Records != js.Records {
		t.Error("merge mutated a source inventory")
	}
	// Resolution mismatch is rejected.
	coarse, err := RollUp(jan, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := total.MergeFrom(coarse); err == nil {
		t.Error("resolution mismatch must fail")
	}
}

// BenchmarkRollUp merges the fine fixture into res 6 (§5 future work).
func BenchmarkRollUp(b *testing.B) {
	fine, _ := buildFineInventory(b)
	for range b.N {
		if _, err := RollUp(fine, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildAdaptive builds the non-uniform inventory from the fine
// fixture (§5 future work).
func BenchmarkBuildAdaptive(b *testing.B) {
	fine, _ := buildFineInventory(b)
	for range b.N {
		if _, err := BuildAdaptive(fine, 6, 50); err != nil {
			b.Fatal(err)
		}
	}
}
