package stats_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

// refAppendSummary is version 1's CellSummary.AppendBinary: the fixed-width
// record count, then each sketch through its reference encoder
// (reference_test.go).
func refAppendSummary(buf []byte, s *inventory.CellSummary) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, s.Records)
	buf = s.Ships.RefAppendBinary(buf)
	buf = s.Course.RefAppendBinary(buf)
	buf = s.CourseBins.RefAppendBinary(buf)
	buf = s.Heading.RefAppendBinary(buf)
	buf = s.HeadingBins.RefAppendBinary(buf)
	buf = s.Speed.RefAppendBinary(buf)
	buf = s.SpeedDig.RefAppendBinary(buf)
	buf = s.Trips.RefAppendBinary(buf)
	buf = s.ETO.RefAppendBinary(buf)
	buf = s.ETODig.RefAppendBinary(buf)
	buf = s.ATA.RefAppendBinary(buf)
	buf = s.ATADig.RefAppendBinary(buf)
	buf = s.Origins.RefAppendBinary(buf)
	buf = s.Dests.RefAppendBinary(buf)
	buf = s.Transitions.RefAppendBinary(buf)
	return buf
}

// TestFixturesDecodeToTheReferenceBits: the dense codec loses nothing. For
// every group of the pinned fixture (every HyperLogLog layout, all three
// grouping sets) and of a simulated fleet (real sketch contents), the summary
// decoded from its new bytes re-encodes through the version-1 reference to
// exactly the bytes the reference gives the original.
func TestFixturesDecodeToTheReferenceBits(t *testing.T) {
	for name, inv := range map[string]*inventory.Inventory{
		"pinned": testutil.PinnedInventory(),
		"sim":    testutil.Build(t, sim.Config{Vessels: 12, Days: 12, Seed: 42}, 6).Inventory,
	} {
		var dense, ref, got []byte
		var denseTotal, refTotal int
		inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
			dense, ref = s.AppendBinary(dense[:0]), refAppendSummary(ref[:0], s)
			denseTotal, refTotal = denseTotal+len(dense), refTotal+len(ref)
			d, rest, err := inventory.DecodeCellSummary(dense)
			if err != nil || len(rest) != 0 {
				t.Fatalf("%s %v: decode: %v (%d trailing bytes)", name, k, err, len(rest))
			}
			if got = refAppendSummary(got[:0], d); !bytes.Equal(got, ref) {
				t.Fatalf("%s %v: the decoded summary's reference encoding differs from the original's", name, k)
			}
			return true
		})
		if inv.Len() == 0 || denseTotal*3 > refTotal*2 {
			t.Errorf("%s: %d groups, %d B dense against %d B fixed-width: want under two thirds", name, inv.Len(), denseTotal, refTotal)
		}
		t.Logf("%s: %d groups, %.0f B/group dense, %.0f B/group fixed-width", name, inv.Len(),
			float64(denseTotal)/float64(inv.Len()), float64(refTotal)/float64(inv.Len()))
	}
}
