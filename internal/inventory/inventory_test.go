package inventory

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/stats"
)

// obs builds a deterministic observation in the given cell.
func obs(rng *rand.Rand, cell hexgrid.Cell, mmsi uint32, trip uint64, origin, dest model.PortID) Observation {
	next := hexgrid.InvalidCell
	if rng.Intn(3) > 0 {
		next = cell.Neighbors()[rng.Intn(6)]
	}
	depart := int64(1000)
	arrive := int64(100000)
	now := depart + rng.Int63n(arrive-depart)
	return Observation{
		Rec: model.TripRecord{
			PositionRecord: model.PositionRecord{
				MMSI: mmsi, Time: now, Pos: cell.LatLng(),
				SOG: 8 + rng.Float64()*10, COG: rng.Float64() * 360, Heading: rng.Float64() * 360,
			},
			VType: model.VesselContainer, TripID: trip,
			Origin: origin, Dest: dest, DepartTime: depart, ArriveTime: arrive,
		},
		NextCell: next,
	}
}

func TestGroupKeyConstruction(t *testing.T) {
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 52, Lng: 4}, 6)
	k1 := NewGroupKey(GSCell, cell, model.VesselTanker, 3, 7)
	if k1.VType != 0 || k1.Origin != 0 || k1.Dest != 0 {
		t.Errorf("GSCell must zero other dimensions: %+v", k1)
	}
	k2 := NewGroupKey(GSCellType, cell, model.VesselTanker, 3, 7)
	if k2.VType != model.VesselTanker || k2.Origin != 0 {
		t.Errorf("GSCellType: %+v", k2)
	}
	k3 := NewGroupKey(GSCellODType, cell, model.VesselTanker, 3, 7)
	if k3.Origin != 3 || k3.Dest != 7 || k3.VType != model.VesselTanker {
		t.Errorf("GSCellODType: %+v", k3)
	}
	for _, k := range []GroupKey{k1, k2, k3} {
		if k.String() == "" {
			t.Error("keys must render")
		}
	}
	for _, gs := range AllGroupSets {
		if gs.String() == "" {
			t.Error("group sets must render")
		}
	}
}

func TestGroupKeyEncodingRoundTrip(t *testing.T) {
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: -10, Lng: 100}, 7)
	keys := []GroupKey{
		NewGroupKey(GSCell, cell, 0, 0, 0),
		NewGroupKey(GSCellType, cell, model.VesselBulk, 0, 0),
		NewGroupKey(GSCellODType, cell, model.VesselPassenger, 12, 99),
	}
	for _, k := range keys {
		enc := appendKey(nil, k)
		if len(enc) != keyBytes {
			t.Fatalf("key encodes to %d bytes, want %d", len(enc), keyBytes)
		}
		got, err := decodeKey(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Errorf("round trip: %+v vs %+v", got, k)
		}
	}
	if _, err := decodeKey([]byte{1, 2}); err == nil {
		t.Error("short key must fail")
	}
}

func TestGroupKeyHashDistinct(t *testing.T) {
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 1, Lng: 103}, 6)
	other := cell.Neighbors()[0]
	seen := map[uint64]GroupKey{}
	for _, k := range []GroupKey{
		NewGroupKey(GSCell, cell, 0, 0, 0),
		NewGroupKey(GSCell, other, 0, 0, 0),
		NewGroupKey(GSCellType, cell, model.VesselCargo, 0, 0),
		NewGroupKey(GSCellType, cell, model.VesselTanker, 0, 0),
		NewGroupKey(GSCellODType, cell, model.VesselCargo, 1, 2),
		NewGroupKey(GSCellODType, cell, model.VesselCargo, 2, 1),
	} {
		h := k.Hash64()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %v and %v", prev, k)
		}
		seen[h] = k
		if h != k.Hash64() {
			t.Error("hash must be deterministic")
		}
	}
}

func TestCellSummaryAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 52, Lng: 4}, 6)
	s := NewCellSummary()
	const n = 1000
	for i := 0; i < n; i++ {
		s.Add(obs(rng, cell, uint32(227000000+i%25), uint64(i%40), 3, 7))
	}
	if s.Records != n {
		t.Errorf("records %d, want %d", s.Records, n)
	}
	ships := s.Ships.Estimate()
	if ships < 23 || ships > 27 {
		t.Errorf("ships %d, want ≈ 25", ships)
	}
	trips := s.Trips.Estimate()
	if trips < 37 || trips > 43 {
		t.Errorf("trips %d, want ≈ 40", trips)
	}
	mean := s.Speed.Mean()
	if mean < 12 || mean > 14 {
		t.Errorf("speed mean %v, want ≈ 13", mean)
	}
	p10, p50, p90 := s.SpeedPercentiles()
	if !(p10 < p50 && p50 < p90) {
		t.Errorf("percentiles not ordered: %v %v %v", p10, p50, p90)
	}
	if top := s.Origins.Top(1); len(top) != 1 || top[0].Key != 3 {
		t.Errorf("top origin %v, want 3", top)
	}
	if dest, _ := s.TopDestination(); dest != 7 {
		t.Errorf("top destination %d, want 7", dest)
	}
	trans := s.TopTransitions(6)
	if len(trans) == 0 {
		t.Error("transitions must be recorded")
	}
	for _, tr := range trans {
		if !hexgrid.Cell(tr.Key).Valid() {
			t.Error("transition keys must be valid cells")
		}
	}
	// ETO + ATA must equal total trip duration on average.
	if got := s.ETO.Mean() + s.ATA.Mean(); math.Abs(got-99000) > 1 {
		t.Errorf("ETO+ATA mean %v, want 99000", got)
	}
	if binTotal(&s.CourseBins) != n || binTotal(&s.HeadingBins) != n {
		t.Error("angular bins must count every record")
	}
}

func TestCellSummaryEmptyTopsAndNaNs(t *testing.T) {
	s := NewCellSummary()
	if p, c := s.TopDestination(); p != model.NoPort || c != 0 {
		t.Error("empty summary has no top destination")
	}
	if top := s.Origins.Top(1); len(top) != 0 {
		t.Error("empty summary has no top origin")
	}
	// NaN course/heading/speed records must not poison the sketches.
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 0, Lng: 0}, 6)
	s.Add(Observation{Rec: model.TripRecord{
		PositionRecord: model.PositionRecord{
			MMSI: 227000001, Pos: cell.LatLng(),
			SOG: math.NaN(), COG: math.NaN(), Heading: math.NaN(),
		},
		TripID: 1, Origin: 1, Dest: 2, DepartTime: 0, ArriveTime: 100,
	}})
	if s.Records != 1 {
		t.Error("record must count")
	}
	if s.Speed.Weight() != 0 {
		t.Error("NaN speed must not enter the speed stats")
	}
	if binTotal(&s.CourseBins) != 0 {
		t.Error("NaN course must not enter the bins")
	}
}

func TestCellSummaryMergeEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 30, Lng: -20}, 6)
	all := NewCellSummary()
	parts := []*CellSummary{NewCellSummary(), NewCellSummary(), NewCellSummary()}
	observations := make([]Observation, 3000)
	for i := range observations {
		observations[i] = obs(rng, cell, uint32(227000000+i%50), uint64(i%60), model.PortID(1+i%4), model.PortID(5+i%3))
	}
	for i, o := range observations {
		all.Add(o)
		parts[i%3].Add(o)
	}
	merged := NewCellSummary()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Records != all.Records {
		t.Errorf("records %d vs %d", merged.Records, all.Records)
	}
	if merged.Ships.Estimate() != all.Ships.Estimate() {
		t.Errorf("ships %d vs %d", merged.Ships.Estimate(), all.Ships.Estimate())
	}
	if math.Abs(merged.Speed.Mean()-all.Speed.Mean()) > 1e-9 {
		t.Error("speed mean differs after merge")
	}
	if math.Abs(merged.ATA.Std()-all.ATA.Std()) > 1e-6 {
		t.Error("ATA std differs after merge")
	}
	mc, ac := merged.Course.Mean(), all.Course.Mean()
	if math.IsNaN(mc) != math.IsNaN(ac) || (!math.IsNaN(mc) && geo.AngleDiff(mc, ac) > 1e-9) {
		t.Error("course mean differs after merge")
	}
	am := all.Dests.Top(3)
	mm := merged.Dests.Top(3)
	for i := range am {
		if am[i].Key != mm[i].Key {
			t.Errorf("destination ranking differs at %d", i)
		}
	}
	merged.Merge(nil) // must not panic
}

func TestCellSummaryBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 52, Lng: 4}, 6)
	s := NewCellSummary()
	for i := 0; i < 2000; i++ {
		s.Add(obs(rng, cell, uint32(227000000+i%30), uint64(i%20), 1, 2))
	}
	buf := s.AppendBinary(nil)
	got, rest, err := DecodeCellSummary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if got.Records != s.Records || got.Ships.Estimate() != s.Ships.Estimate() {
		t.Error("counts differ after round trip")
	}
	if math.Abs(got.Speed.Mean()-s.Speed.Mean()) > 1e-12 {
		t.Error("speed mean differs")
	}
	gp10, gp50, gp90 := got.SpeedPercentiles()
	p10, p50, p90 := s.SpeedPercentiles()
	if gp10 != p10 || gp50 != p50 || gp90 != p90 {
		t.Error("percentiles differ")
	}
	// Decoded summaries must still merge.
	got.Merge(s)
	if got.Records != 2*s.Records {
		t.Error("decoded summary must remain mergeable")
	}
	// Corruption checks.
	for _, cut := range []int{3, 9, 20, len(buf) / 2} {
		if _, _, err := DecodeCellSummary(buf[:cut]); err == nil {
			t.Errorf("truncation at %d must fail", cut)
		}
	}
}

// TestEmptySummaryFootprint: an inventory holds one summary per group and
// most groups know one or two ports, so what a summary costs before it has
// seen anything is what a decoded inventory mostly costs. With three
// top-N tables eagerly sized for TopNCapacity it was 2 968 bytes in 25
// allocations; grown on demand, 1 122 in 16; with every sketch held by
// value, 768 in one.
func TestEmptySummaryFootprint(t *testing.T) {
	enc := NewCellSummary().AppendBinary(nil)
	for name, mk := range map[string]func() *CellSummary{
		"new": NewCellSummary,
		"decoded": func() *CellSummary {
			s, _, err := DecodeCellSummary(enc)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		const n = 512
		keep := make([]*CellSummary, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = mk()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1500 {
			t.Errorf("%s: an empty summary allocates %d bytes, want ≤ 1500", name, per)
		}
		runtime.KeepAlive(keep)
	}
}

// TestObserveNewGroupAllocations: a group's first observation costs the
// summary and the first entry of each sketch that keeps a slice — two
// distinct-count sketches, three digests, three top-N lists — and nothing
// for map growth when the shard has room: 9 allocations, where a summary of
// pointers to sketches cost 27. Further observations of the group cost
// nothing but the amortised growth of its digests' buffers.
func TestObserveNewGroupAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inv := New(BuildInfo{Resolution: 6})
	keys := randomKeys(rng, 4096, 6)
	for i := range inv.shards {
		inv.writeShard(i, 64) // room for its share of the keys: no map growth
	}
	o := testObservation(227000001, 5000, keys[0].Cell.LatLng())
	o.NextCell = keys[1].Cell
	n := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		inv.Observe(keys[n], o)
		n++
	}); allocs != 1+8 {
		t.Errorf("Observe of a new group: %.1f allocations, want 9", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { inv.Observe(keys[0], o) }); allocs != 0 {
		t.Errorf("Observe into a group with room: %.1f allocations, want 0", allocs)
	}
}

func buildTestInventory(t *testing.T, res int) (*Inventory, hexgrid.Cell) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	inv := New(BuildInfo{Resolution: res, RawRecords: 100000, UsedRecords: 60000, Description: "test"})
	anchor := hexgrid.LatLngToCell(geo.LatLng{Lat: 52, Lng: 4}, res)
	cells := hexgrid.GridDisk(anchor, 5)
	for i, c := range cells {
		for _, set := range AllGroupSets {
			s := NewCellSummary()
			for j := 0; j < 20+i; j++ {
				s.Add(obs(rng, c, uint32(227000000+j), uint64(j), model.PortID(1+i%3), model.PortID(4+i%2)))
			}
			inv.Put(NewGroupKey(set, c, model.VesselContainer, model.PortID(1+i%3), model.PortID(4+i%2)), s)
		}
	}
	return inv, anchor
}

func TestInventoryQueries(t *testing.T) {
	inv, anchor := buildTestInventory(t, 6)
	if err := inv.Validate(); err != nil {
		t.Fatal(err)
	}
	if inv.Len() != 91*3 {
		t.Errorf("groups %d, want %d", inv.Len(), 91*3)
	}
	if inv.CountGroups(GSCell) != 91 {
		t.Errorf("GSCell groups %d, want 91", inv.CountGroups(GSCell))
	}
	if len(inv.Cells(GSCell)) != 91 {
		t.Error("cells mismatch")
	}
	s, ok := inv.Cell(anchor)
	if !ok || s.Records == 0 {
		t.Fatal("anchor cell missing")
	}
	// Location query must hit the same summary.
	s2, ok := inv.At(anchor.LatLng())
	if !ok || s2 != s {
		t.Error("At() must resolve to the cell summary")
	}
	if _, ok := inv.Cell(hexgrid.LatLngToCell(geo.LatLng{Lat: -40, Lng: 170}, 6)); ok {
		t.Error("far-away cell must be absent")
	}
	dest, count, ok := inv.MostFrequentDestination(anchor)
	if !ok || dest == model.NoPort || count == 0 {
		t.Error("most frequent destination query failed")
	}
	// Type and OD summaries exist for the anchor.
	if _, ok := inv.TypeSummary(anchor, model.VesselContainer); !ok {
		t.Error("type summary missing")
	}
	cellsOD := inv.ODCells(1, 4, model.VesselContainer)
	if len(cellsOD) == 0 {
		t.Error("OD cells must be found")
	}
	if _, ok := inv.ODSummary(cellsOD[0], 1, 4, model.VesselContainer); !ok {
		t.Error("OD summary missing")
	}
	if got := inv.ODCells(99, 98, model.VesselTanker); got != nil {
		t.Error("unknown OD key must yield nil")
	}
	// Each visits all groups and stops early when asked.
	visits := 0
	inv.Each(func(GroupKey, *CellSummary) bool { visits++; return visits < 10 })
	if visits != 10 {
		t.Errorf("Each early-stop visited %d", visits)
	}
}

func TestInventoryCompressionAndUtilization(t *testing.T) {
	inv, _ := buildTestInventory(t, 6)
	c := inv.Compression(GSCell)
	want := 1 - 91.0/100000
	if math.Abs(c-want) > 1e-9 {
		t.Errorf("compression %v, want %v", c, want)
	}
	u := inv.Utilization()
	if u <= 0 || u > 1e-4 {
		t.Errorf("global utilization %v implausible for 91 cells", u)
	}
	// Coverage utilization within the disk's bounding box must be high.
	box := geo.BBox{MinLat: 51, MinLng: 2, MaxLat: 53, MaxLng: 6}
	cu := inv.CoverageUtilization(box)
	if cu <= 0 || cu > 1 {
		t.Errorf("coverage utilization %v out of range", cu)
	}
	empty := New(BuildInfo{Resolution: 6})
	if empty.Compression(GSCell) != 0 || empty.Utilization() != 0 {
		t.Error("empty inventory metrics must be 0")
	}
	if empty.CoverageUtilization(box) != 0 {
		t.Error("empty coverage utilization must be 0")
	}
}

// TestCellsCentredInCountsCoverBBoxCentres: the lattice count equals the
// cells of CoverBBox's covering whose centre lies in the box, and a
// whole-ocean box at res 7 is counted without listing its cells.
func TestCellsCentredInCountsCoverBBoxCentres(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for res := 4; res <= 6; res++ {
		for i := 0; i < 20; i++ {
			lat, lng := -70+140*rng.Float64(), -170+330*rng.Float64()
			box := geo.BBox{MinLat: lat, MinLng: lng, MaxLat: lat + 0.2 + 3*rng.Float64(), MaxLng: lng + 0.2 + 8*rng.Float64()}
			want := 0
			for _, c := range hexgrid.CoverBBox(box, res) {
				if box.Contains(c.LatLng()) {
					want++
				}
			}
			if got := cellsCentredIn(box, res); got != int64(want) {
				t.Errorf("res %d box %+v: counted %d, CoverBBox has %d centres inside", res, box, got, want)
			}
		}
	}
	pacific := geo.BBox{MinLat: -60, MinLng: -179.9, MaxLat: 60, MaxLng: -70}
	var n int64
	if allocs := testing.AllocsPerRun(1, func() { n = cellsCentredIn(pacific, 7) }); allocs > 0 {
		t.Errorf("counting a res-7 ocean allocates %.0f times, want none", allocs)
	}
	p, q := geo.ProjectEqualArea(geo.LatLng{Lat: -60, Lng: -179.9}), geo.ProjectEqualArea(geo.LatLng{Lat: 60, Lng: -70})
	if area := (q.X - p.X) * (q.Y - p.Y) / 1e6 / hexgrid.AvgCellAreaKm2(7); math.Abs(float64(n)-area) > 1e-3*area {
		t.Errorf("res-7 ocean: %d centres, box area holds %.0f cells", n, area)
	}
	inv, _ := buildTestInventory(t, 7)
	if allocs := testing.AllocsPerRun(1, func() { inv.CoverageUtilization(pacific) }); allocs > 8 {
		t.Errorf("res-7 ocean coverage utilization allocates %.0f times, want at most 8", allocs)
	}
}

func TestInventoryPutMerges(t *testing.T) {
	inv := New(BuildInfo{Resolution: 6})
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 10, Lng: 10}, 6)
	key := NewGroupKey(GSCell, cell, 0, 0, 0)
	rng := rand.New(rand.NewSource(4))
	a := NewCellSummary()
	a.Add(obs(rng, cell, 227000001, 1, 1, 2))
	b := NewCellSummary()
	b.Add(obs(rng, cell, 227000002, 2, 1, 2))
	inv.Put(key, a)
	inv.Put(key, b)
	s, _ := inv.Get(key)
	if s.Records != 2 {
		t.Errorf("Put must merge duplicates: records %d", s.Records)
	}
}

func TestInventoryValidateRejectsBadKeys(t *testing.T) {
	inv := New(BuildInfo{Resolution: 6})
	cell7 := hexgrid.LatLngToCell(geo.LatLng{Lat: 1, Lng: 1}, 7)
	inv.Put(NewGroupKey(GSCell, cell7, 0, 0, 0), NewCellSummary())
	if err := inv.Validate(); err == nil {
		t.Error("resolution mismatch must fail validation")
	}
	inv2 := New(BuildInfo{Resolution: 6})
	inv2.Put(GroupKey{Set: 9, Cell: hexgrid.LatLngToCell(geo.LatLng{Lat: 1, Lng: 1}, 6)}, NewCellSummary())
	if err := inv2.Validate(); err == nil {
		t.Error("unknown grouping set must fail validation")
	}
}

func TestWireImageRejectsCorruption(t *testing.T) {
	inv, _ := buildTestInventory(t, 6)
	data, err := Marshal(inv)
	if err != nil {
		t.Fatal(err)
	}
	merge := func(b []byte) error { return New(BuildInfo{Resolution: 6}).MergeImage(b) }
	// Bad magic.
	bad := append([]byte("XXXXXXXX"), data[8:]...)
	if err := merge(bad); err == nil {
		t.Error("bad magic must fail")
	}
	// Truncations at various depths.
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		if err := merge(data[:int(float64(len(data))*frac)]); err == nil {
			t.Errorf("truncation at %.0f%% must fail", frac*100)
		}
	}
	// A key whose cell is not at the image's resolution.
	key := append([]byte(nil), data...)
	at := len(wireMagic) + 4 + 4 + 8 + 8 + 8 + 4 + len(inv.Info().Description) + 8 + 1
	binary.BigEndian.PutUint64(key[at:], uint64(hexgrid.LatLngToCell(geo.LatLng{Lat: 1, Lng: 1}, 7)))
	if err := merge(key); err == nil || !strings.Contains(err.Error(), "bad key") {
		t.Errorf("resolution-7 key in a resolution-6 image: %v", err)
	}
}

func BenchmarkCellSummaryAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 52, Lng: 4}, 6)
	observations := make([]Observation, 1024)
	for i := range observations {
		observations[i] = obs(rng, cell, uint32(227000000+i%30), uint64(i%20), 1, 2)
	}
	s := NewCellSummary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(observations[i%1024])
	}
}

func BenchmarkCellSummaryMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 52, Lng: 4}, 6)
	mk := func() *CellSummary {
		s := NewCellSummary()
		for i := 0; i < 1000; i++ {
			s.Add(obs(rng, cell, uint32(227000000+i%30), uint64(i%20), 1, 2))
		}
		return s
	}
	x, y := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := NewCellSummary()
		z.Merge(x)
		z.Merge(y)
	}
}

// binTotal is an angular histogram's total observed weight.
func binTotal(h *stats.AngularHistogram) uint64 {
	var t uint64
	for _, c := range h.Bins() {
		t += c
	}
	return t
}
