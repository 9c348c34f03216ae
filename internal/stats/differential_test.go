package stats_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/stats"
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

// refCellSummary is CellSummary as it stood before the flat layout: each
// sketch behind its own pointer, built from the Ref* sketches
// (refsketch_test.go), encoded in today's format.
type refCellSummary struct {
	Records                     uint64
	Ships, Trips                *stats.RefHyperLogLog
	Course, Heading             stats.CircularMean
	CourseBins, HeadingBins     *stats.RefAngularHistogram
	Speed, ETO, ATA             stats.Welford
	SpeedDig, ETODig, ATADig    *stats.RefTDigest
	Origins, Dests, Transitions *stats.RefTopN
}

func newRefCellSummary() *refCellSummary {
	return &refCellSummary{
		Ships:       stats.NewRefHyperLogLog(stats.HLLPrecision),
		CourseBins:  stats.NewRefAngularHistogram(stats.DefaultAngularBins),
		HeadingBins: stats.NewRefAngularHistogram(stats.DefaultAngularBins),
		SpeedDig:    stats.NewRefTDigest(stats.DefaultCompression),
		Trips:       stats.NewRefHyperLogLog(stats.HLLPrecision),
		ETODig:      stats.NewRefTDigest(stats.DefaultCompression),
		ATADig:      stats.NewRefTDigest(stats.DefaultCompression),
		Origins:     stats.NewRefTopN(inventory.TopNCapacity),
		Dests:       stats.NewRefTopN(inventory.TopNCapacity),
		Transitions: stats.NewRefTopN(inventory.TopNCapacity),
	}
}

func (s *refCellSummary) Add(o inventory.Observation) {
	r := o.Rec
	s.Records++
	s.Ships.AddUint64(uint64(r.MMSI))
	if !math.IsNaN(r.COG) {
		s.Course.Add(r.COG)
		s.CourseBins.Add(r.COG)
	}
	if !math.IsNaN(r.Heading) {
		s.Heading.Add(r.Heading)
		s.HeadingBins.Add(r.Heading)
	}
	if !math.IsNaN(r.SOG) {
		s.Speed.Add(r.SOG)
		s.SpeedDig.Add(r.SOG)
	}
	s.Trips.AddUint64(r.TripID)
	s.ETO.Add(r.ETO())
	s.ETODig.Add(r.ETO())
	s.ATA.Add(r.ATA())
	s.ATADig.Add(r.ATA())
	s.Origins.Add(uint64(r.Origin))
	s.Dests.Add(uint64(r.Dest))
	if o.NextCell != hexgrid.InvalidCell {
		s.Transitions.Add(uint64(o.NextCell))
	}
}

func (s *refCellSummary) Merge(o *refCellSummary) {
	s.Records += o.Records
	s.Ships.Merge(o.Ships)
	s.Course.Merge(&o.Course)
	s.CourseBins.Merge(o.CourseBins)
	s.Heading.Merge(&o.Heading)
	s.HeadingBins.Merge(o.HeadingBins)
	s.Speed.Merge(&o.Speed)
	s.SpeedDig.Merge(o.SpeedDig)
	s.Trips.Merge(o.Trips)
	s.ETO.Merge(&o.ETO)
	s.ETODig.Merge(o.ETODig)
	s.ATA.Merge(&o.ATA)
	s.ATADig.Merge(o.ATADig)
	s.Origins.Merge(o.Origins)
	s.Dests.Merge(o.Dests)
	s.Transitions.Merge(o.Transitions)
}

func (s *refCellSummary) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, s.Records)
	buf = s.Ships.AppendBinary(buf)
	buf = s.Course.AppendBinary(buf)
	buf = s.CourseBins.AppendBinary(buf)
	buf = s.Heading.AppendBinary(buf)
	buf = s.HeadingBins.AppendBinary(buf)
	buf = s.Speed.AppendBinary(buf)
	buf = s.SpeedDig.AppendBinary(buf)
	buf = s.Trips.AppendBinary(buf)
	buf = s.ETO.AppendBinary(buf)
	buf = s.ETODig.AppendBinary(buf)
	buf = s.ATA.AppendBinary(buf)
	buf = s.ATADig.AppendBinary(buf)
	buf = s.Origins.AppendBinary(buf)
	buf = s.Dests.AppendBinary(buf)
	buf = s.Transitions.AppendBinary(buf)
	return buf
}

// TestSummaryStreamsMatchReference: seeded streams of observations folded
// by Observe into inventories, and those merged with MergeFrom, published
// with Snapshot and carried through the codec, end every group with the
// bytes the reference summary gives the same stream folded by Add and
// Merge — the pointer layout's NewCellSummary + Merge copy included. A few
// cells, vessels and ports, and repeated values, keep the sketches meeting
// their ties; hundreds of vessels in one cell carry its ship sketch past
// the sparse limit.
func TestSummaryStreamsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	anchor := hexgrid.LatLngToCell(geo.LatLng{Lat: 52, Lng: 4}, 6)
	nb := anchor.Neighbors()
	cells := append([]hexgrid.Cell{anchor}, nb[:]...)
	observe := func() inventory.Observation {
		cell := cells[rng.Intn(len(cells))]
		next := hexgrid.InvalidCell
		if rng.Intn(3) > 0 {
			next = cells[rng.Intn(len(cells))]
		}
		now := int64(1000 + 60*rng.Intn(50))
		sog := float64(rng.Intn(4))
		if rng.Intn(2) == 0 {
			sog = rng.Float64() * 20
		}
		return inventory.Observation{
			Rec: model.TripRecord{
				PositionRecord: model.PositionRecord{
					MMSI: uint32(227000000 + rng.Intn(400)), Time: now, Pos: cell.LatLng(),
					SOG: sog, COG: float64(rng.Intn(360)), Heading: rng.Float64() * 360,
				},
				TripID: uint64(rng.Intn(40)), Origin: model.PortID(1 + rng.Intn(20)), Dest: model.PortID(1 + rng.Intn(3)),
				DepartTime: 0, ArriveTime: 4000,
			},
			NextCell: next,
		}
	}
	key := func(o inventory.Observation) inventory.GroupKey {
		return inventory.NewGroupKey(inventory.GSCell, hexgrid.LatLngToCell(o.Rec.Pos, 6), 0, 0, 0)
	}

	master := inventory.New(inventory.BuildInfo{Resolution: 6})
	ref := map[inventory.GroupKey]*refCellSummary{}
	check := func(what string, inv *inventory.Inventory) {
		t.Helper()
		if inv.Len() != len(ref) {
			t.Fatalf("%s: %d groups, reference %d", what, inv.Len(), len(ref))
		}
		for k, rs := range ref {
			s, ok := inv.Get(k)
			if !ok {
				t.Fatalf("%s: group %v missing", what, k)
			}
			if got, want := s.AppendBinary(nil), rs.AppendBinary(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s: group %v: bytes differ from the reference\n got %x\nwant %x", what, k, got, want)
			}
		}
	}
	for round := 0; round < 40; round++ {
		period := inventory.New(inventory.BuildInfo{Resolution: 6})
		refPeriod := map[inventory.GroupKey]*refCellSummary{}
		for i := rng.Intn(1500); i > 0; i-- {
			o := observe()
			k := key(o)
			period.Observe(k, o)
			if refPeriod[k] == nil {
				refPeriod[k] = newRefCellSummary()
			}
			refPeriod[k].Add(o)
		}
		if rng.Intn(3) == 0 { // the partial crossed a wire
			image, _ := inventory.Marshal(period)
			period = inventory.New(inventory.BuildInfo{Resolution: 6})
			if err := period.MergeImage(image); err != nil {
				t.Fatal(err)
			}
		}
		if err := master.MergeFrom(period); err != nil {
			t.Fatal(err)
		}
		for k, rs := range refPeriod {
			if ref[k] == nil {
				ref[k] = newRefCellSummary()
			}
			ref[k].Merge(rs)
		}
		check("master", master)
		check("snapshot", master.Snapshot())
	}
}
