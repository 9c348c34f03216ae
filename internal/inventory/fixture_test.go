package inventory_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

// TestCellOrderMatchesSortSlice: Cells and ODCells sort with slices.Sort,
// and on a simulated fleet every list equals the same cells shuffled and
// put in order by the sort.Slice they used before.
func TestCellOrderMatchesSortSlice(t *testing.T) {
	inv := testutil.Build(t, sim.Config{Vessels: 20, Days: 20, Seed: 55}, 6).Inventory
	rng := rand.New(rand.NewSource(1))
	check := func(what string, got []hexgrid.Cell) {
		t.Helper()
		want := slices.Clone(got)
		rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !slices.Equal(got, want) {
			t.Fatalf("%s: order differs from sort.Slice", what)
		}
	}
	for _, set := range inventory.AllGroupSets {
		cells := inv.Cells(set)
		if len(cells) == 0 {
			t.Fatalf("%v: no cells", set)
		}
		check(set.String(), cells)
		for i := 1; i < len(cells); i++ {
			if cells[i] == cells[i-1] {
				t.Fatalf("%v: cell %v listed twice", set, cells[i])
			}
		}
	}
	ods := map[inventory.GroupKey]bool{}
	inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		if k.Set == inventory.GSCellODType {
			k.Cell = hexgrid.InvalidCell
			if !ods[k] {
				ods[k] = true
				check(k.String(), inv.ODCells(k.Origin, k.Dest, k.VType))
			}
		}
		return true
	})
	if len(ods) == 0 {
		t.Fatal("fixture has no OD groups")
	}
}

// TestCellGroupsAreOnePerCell is the premise of Utilization and /v1/info
// counting GSCell groups instead of listing cells; the per-set counts they
// read agree with a scan of the groups, on the master and a snapshot.
func TestCellGroupsAreOnePerCell(t *testing.T) {
	inv := testutil.Build(t, sim.Config{Vessels: 20, Days: 20, Seed: 55}, 6).Inventory
	scan := map[inventory.GroupSet]int{}
	inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		scan[k.Set]++
		return true
	})
	snap := inv.Snapshot()
	for _, set := range inventory.AllGroupSets {
		if inv.CountGroups(set) != scan[set] || snap.CountGroups(set) != scan[set] {
			t.Fatalf("%v: counted %d (snapshot %d), scan finds %d", set, inv.CountGroups(set), snap.CountGroups(set), scan[set])
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	n := inv.CountGroups(inventory.GSCell)
	if cells := len(inv.Cells(inventory.GSCell)); n != cells || n == 0 {
		t.Fatalf("%d GSCell groups, %d cells", n, cells)
	}
	want := float64(n) / float64(hexgrid.NumCells(inv.Info().Resolution))
	if got := inv.Utilization(); got != want {
		t.Fatalf("utilization %v, want %v", got, want)
	}
}
