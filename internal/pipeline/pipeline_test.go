package pipeline

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

func rec(mmsi uint32, t int64, lat, lng, sog, cog float64) model.PositionRecord {
	return model.PositionRecord{
		MMSI: mmsi, Time: t, Pos: geo.LatLng{Lat: lat, Lng: lng},
		SOG: sog, COG: cog, Heading: cog, Status: ais.StatusUnderWayEngine,
	}
}

func TestValidRanges(t *testing.T) {
	good := rec(227000001, 100, 52, 4, 12, 180)
	if !validRanges(good) {
		t.Error("good record rejected")
	}
	bad := []model.PositionRecord{
		rec(227000001, 100, 91, 4, 12, 180),    // lat out of range
		rec(227000001, 100, 52, 181, 12, 180),  // lng out of range
		rec(227000001, 100, 52, 4, -1, 180),    // negative speed
		rec(227000001, 100, 52, 4, 102.3, 180), // speed sentinel
		rec(227000001, 100, 52, 4, 12, 360),    // course out of range
		rec(227000001, 100, 52, 4, 12, -5),     // negative course
		{MMSI: 227000001, Time: 100, Pos: geo.LatLng{Lat: 52, Lng: 4}, SOG: math.NaN(), COG: 10},
		{MMSI: 227000001, Time: 100, Pos: geo.LatLng{Lat: 52, Lng: 4}, SOG: 10, COG: math.NaN()},
	}
	for i, r := range bad {
		if validRanges(r) {
			t.Errorf("bad record %d accepted: %+v", i, r)
		}
	}
	// Heading 511-style missing values: NaN heading is allowed.
	nanHeading := good
	nanHeading.Heading = math.NaN()
	if !validRanges(nanHeading) {
		t.Error("NaN heading must be allowed (not-available)")
	}
	badHeading := good
	badHeading.Heading = 400
	if validRanges(badHeading) {
		t.Error("heading 400 must be rejected")
	}
	badStatus := good
	badStatus.Status = ais.NavStatus(16)
	if validRanges(badStatus) {
		t.Error("status 16 must be rejected")
	}
}

func TestCleanVesselSortsAndDedupes(t *testing.T) {
	recs := []model.PositionRecord{
		rec(1, 300, 52.002, 4, 10, 90),
		rec(1, 100, 52.000, 4, 10, 90),
		rec(1, 200, 52.001, 4, 10, 90),
		rec(1, 200, 52.001, 4, 10, 90), // duplicate timestamp
	}
	out := CleanVessel(recs, 50)
	if len(out) != 3 {
		t.Fatalf("got %d records, want 3", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Time <= out[i-1].Time {
			t.Fatal("output not strictly ordered")
		}
	}
}

func TestCleanVesselDropsInfeasibleTransitions(t *testing.T) {
	// Records 60 s apart; a 2 km hop implies ~65 knots and must be dropped.
	recs := []model.PositionRecord{
		rec(1, 0, 52.0, 4.0, 10, 90),
		rec(1, 60, 52.0, 4.004, 10, 90),  // ~270 m: fine
		rec(1, 120, 52.0, 4.035, 10, 90), // ~2.1 km from previous: ~68 kn
		rec(1, 180, 52.0, 4.012, 10, 90), // feasible from record 2
	}
	out := CleanVessel(recs, 50)
	if len(out) != 3 {
		t.Fatalf("got %d records, want 3 (teleport dropped)", len(out))
	}
	for _, r := range out {
		if r.Pos.Lng == 4.035 {
			t.Error("teleport record survived")
		}
	}
}

func TestCleanVesselDropsRangeViolations(t *testing.T) {
	recs := []model.PositionRecord{
		rec(1, 0, 52, 4, 10, 90),
		rec(1, 60, 91, 4, 10, 90),   // bad lat
		rec(1, 120, 52, 4, 200, 90), // bad speed
		rec(1, 180, 52.001, 4, 10, 90),
	}
	out := CleanVessel(recs, 50)
	if len(out) != 2 {
		t.Fatalf("got %d, want 2", len(out))
	}
}

func TestCleanVesselEmpty(t *testing.T) {
	if out := CleanVessel(nil, 50); len(out) != 0 {
		t.Error("empty input must give empty output")
	}
}

// tripFixture builds a synthetic vessel track Rotterdam → out at sea →
// Felixstowe with in-port records on both ends.
func tripFixture(t *testing.T) ([]model.PositionRecord, *ports.Index, model.PortID, model.PortID) {
	t.Helper()
	gaz := ports.Default()
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	rtm, _ := gaz.ByName("Rotterdam")
	flx, _ := gaz.ByName("Felixstowe")
	var recs []model.PositionRecord
	tt := int64(1000)
	// In-port records at Rotterdam.
	for i := 0; i < 3; i++ {
		recs = append(recs, rec(1, tt, rtm.Pos.Lat, rtm.Pos.Lng, 0.1, 0))
		tt += 600
	}
	// Sea leg: straight line towards Felixstowe (~230 km), steps of ~5.5 km
	// every 600 s (~18 kn).
	const steps = 40
	for i := 1; i <= steps; i++ {
		f := float64(i) / float64(steps+2)
		p := geo.Interpolate(rtm.Pos, flx.Pos, f)
		// Keep the sea leg strictly outside every fence so that slicing the
		// track at the in-port boundary gives a genuinely origin-less tail.
		if _, inPort := idx.PortAt(p); inPort {
			tt += 600
			continue
		}
		recs = append(recs, rec(1, tt, p.Lat, p.Lng, 17, geo.InitialBearing(p, flx.Pos)))
		tt += 600
	}
	// In-port records at Felixstowe.
	for i := 0; i < 3; i++ {
		recs = append(recs, rec(1, tt, flx.Pos.Lat, flx.Pos.Lng, 0.1, 0))
		tt += 600
	}
	return recs, idx, rtm.ID, flx.ID
}

func TestExtractTripsBasic(t *testing.T) {
	recs, idx, origin, dest := tripFixture(t)
	trips := ExtractTrips(recs, idx, 2)
	if len(trips) != 1 {
		t.Fatalf("got %d trips, want 1", len(trips))
	}
	trip := trips[0]
	if trip.Origin != origin || trip.Dest != dest {
		t.Errorf("O/D %d→%d, want %d→%d", trip.Origin, trip.Dest, origin, dest)
	}
	if trip.ID == 0 {
		t.Error("trip id must be set")
	}
	if len(trip.Records) == 0 {
		t.Fatal("no trip records")
	}
	// The paper: depart = first record outside port geometries; arrive =
	// last record outside.
	if trip.DepartTime != trip.Records[0].Time {
		t.Error("depart time must be the first outside record")
	}
	if trip.ArriveTime != trip.Records[len(trip.Records)-1].Time {
		t.Error("arrive time must be the last outside record")
	}
	// No trip record may lie inside a port fence.
	for _, r := range trip.Records {
		if _, inPort := idx.PortAt(r.Pos); inPort {
			t.Error("in-port record leaked into trip")
		}
	}
}

func TestExtractTripsNoOriginExcluded(t *testing.T) {
	// A vessel first seen mid-sea has no origin: its records are excluded
	// until it calls at a port.
	recs, idx, _, _ := tripFixture(t)
	// Drop the initial in-port records.
	atSea := recs[3:]
	trips := ExtractTrips(atSea, idx, 2)
	if len(trips) != 0 {
		t.Fatalf("got %d trips from an origin-less track, want 0", len(trips))
	}
}

func TestExtractTripsUnfinishedExcluded(t *testing.T) {
	recs, idx, _, _ := tripFixture(t)
	// Drop the final in-port records: the trip never completes.
	unfinished := recs[:len(recs)-3]
	trips := ExtractTrips(unfinished, idx, 2)
	if len(trips) != 0 {
		t.Fatalf("got %d trips from an unfinished track, want 0", len(trips))
	}
}

func TestExtractTripsMultiLeg(t *testing.T) {
	// Two consecutive trips: A→B then B→A.
	recs, idx, origin, dest := tripFixture(t)
	second := make([]model.PositionRecord, 0, len(recs))
	lastT := recs[len(recs)-1].Time
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		lastT += 600
		r.Time = lastT
		second = append(second, r)
	}
	both := append(append([]model.PositionRecord{}, recs...), second...)
	trips := ExtractTrips(both, idx, 2)
	if len(trips) != 2 {
		t.Fatalf("got %d trips, want 2", len(trips))
	}
	if trips[0].Origin != origin || trips[0].Dest != dest {
		t.Error("first leg O/D wrong")
	}
	if trips[1].Origin != dest || trips[1].Dest != origin {
		t.Error("second leg O/D wrong")
	}
	if trips[0].ID == trips[1].ID {
		t.Error("trips must have distinct ids")
	}
}

func TestRunEndToEnd(t *testing.T) {
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 12, Days: 18, Seed: 21, NoiseRate: 0.01}, gaz)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dataflow.NewContext(4)
	records := dataflow.Generate(ctx, 12, func(part int) []model.PositionRecord {
		recs, _ := s.VesselTrack(part)
		return recs
	})
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	res, err := Run(records, s.Fleet().StaticIndex(), idx, Options{
		Resolution:  6,
		Description: "end-to-end test",
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.RawRecords == 0 || st.TripRecords == 0 || st.Trips == 0 || st.Groups == 0 {
		t.Fatalf("degenerate stats: %s", st)
	}
	// Monotone reduction through the stages.
	if st.ValidRecords > st.CommercialOnly || st.FeasibleRecords > st.ValidRecords ||
		st.TripRecords > st.FeasibleRecords {
		t.Errorf("stage counts not monotone: %s", st)
	}
	// Noise must be cleaned: with 1% noise, valid < commercial strictly.
	if st.ValidRecords >= st.CommercialOnly {
		t.Errorf("range cleaning removed nothing: %s", st)
	}
	inv := res.Inventory
	if err := inv.Validate(); err != nil {
		t.Fatal(err)
	}
	if inv.Info().RawRecords != st.RawRecords || inv.Info().UsedRecords != st.TripRecords {
		t.Error("inventory build info mismatch")
	}
	// All three grouping sets populated, with GSCell ≤ GSCellType ≤ GSCellODType.
	c1 := inv.CountGroups(inventory.GSCell)
	c2 := inv.CountGroups(inventory.GSCellType)
	c3 := inv.CountGroups(inventory.GSCellODType)
	if c1 == 0 || c2 < c1 || c3 < c2 {
		t.Errorf("grouping set sizes c1=%d c2=%d c3=%d violate hierarchy", c1, c2, c3)
	}
	// GSCell records must sum exactly to TripRecords.
	var sum uint64
	inv.Each(func(k inventory.GroupKey, cs *inventory.CellSummary) bool {
		if k.Set == inventory.GSCell {
			sum += cs.Records
		}
		return true
	})
	if int64(sum) != st.TripRecords {
		t.Errorf("GSCell records %d != trip records %d", sum, st.TripRecords)
	}
	// Compression must be high. (The paper's 99.7% needs year-scale record
	// density — hundreds of records per cell; 12 vessels × 18 days gives a
	// few records per cell, so the bound here is looser. The full Table-4
	// shape is asserted by the polbench harness at benchmark scale.)
	if comp := inv.Compression(inventory.GSCell); comp < 0.7 {
		t.Errorf("compression %.4f, want > 0.7", comp)
	}
}

// TestRunEvaluatesInputOnce pins the one-action rule: Run's only action is
// the Collect of the partition folds, so a generated source is produced once per
// partition, and the raw count is what the vessel partitions received — also
// on a Context a second run shares.
func TestRunEvaluatesInputOnce(t *testing.T) {
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 4, Days: 10, Seed: 51}, gaz)
	if err != nil {
		t.Fatal(err)
	}
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	ctx := dataflow.NewContext(2)
	for run := 1; run <= 2; run++ {
		var calls [4]atomic.Int64
		var rows atomic.Int64
		records := dataflow.Generate(ctx, len(calls), func(part int) []model.PositionRecord {
			calls[part].Add(1)
			recs, _ := s.VesselTrack(part)
			rows.Add(int64(len(recs)))
			return recs
		})
		res, err := Run(records, s.Fleet().StaticIndex(), idx, Options{Resolution: 6})
		if err != nil {
			t.Fatal(err)
		}
		for part := range calls {
			if n := calls[part].Load(); n != 1 {
				t.Errorf("run %d: partition %d generated %d times, want 1", run, part, n)
			}
		}
		// rows counts every generator call, so it only equals the rows one
		// evaluation produced when the calls check above holds too.
		if got, want := res.Stats.RawRecords, rows.Load(); got != want || want == 0 {
			t.Errorf("run %d: Stats.RawRecords %d, want the %d rows generated", run, got, want)
		}
		if got := res.Inventory.Info().RawRecords; got != res.Stats.RawRecords {
			t.Errorf("run %d: Info().RawRecords %d, want %d", run, got, res.Stats.RawRecords)
		}
	}
}

func TestRunResolutionShape(t *testing.T) {
	// Table 4 shape: res 7 yields more cells and lower utilization than
	// res 6 on the same data.
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 10, Days: 15, Seed: 31}, gaz)
	if err != nil {
		t.Fatal(err)
	}
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	static := s.Fleet().StaticIndex()

	build := func(res int) *inventory.Inventory {
		ctx := dataflow.NewContext(4)
		records := dataflow.Generate(ctx, 10, func(part int) []model.PositionRecord {
			recs, _ := s.VesselTrack(part)
			return recs
		})
		r, err := Run(records, static, idx, Options{Resolution: res, GroupSets: []inventory.GroupSet{inventory.GSCell}})
		if err != nil {
			t.Fatal(err)
		}
		return r.Inventory
	}
	inv6 := build(6)
	inv7 := build(7)
	cells6 := len(inv6.Cells(inventory.GSCell))
	cells7 := len(inv7.Cells(inventory.GSCell))
	if cells7 <= cells6 {
		t.Errorf("res 7 cells (%d) must exceed res 6 cells (%d)", cells7, cells6)
	}
	if u6, u7 := inv6.Utilization(), inv7.Utilization(); u7 >= u6 {
		t.Errorf("utilization must drop with finer resolution: res6 %.3g, res7 %.3g", u6, u7)
	}
	if c6, c7 := inv6.Compression(inventory.GSCell), inv7.Compression(inventory.GSCell); c7 >= c6 {
		t.Errorf("compression must drop with finer resolution: res6 %.5f, res7 %.5f", c6, c7)
	}
}

func TestRunTransitionsAreNeighbors(t *testing.T) {
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 6, Days: 12, Seed: 41}, gaz)
	if err != nil {
		t.Fatal(err)
	}
	ctx := dataflow.NewContext(2)
	records := dataflow.Generate(ctx, 6, func(part int) []model.PositionRecord {
		recs, _ := s.VesselTrack(part)
		return recs
	})
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	res, err := Run(records, s.Fleet().StaticIndex(), idx, Options{Resolution: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Most transitions should be to nearby cells (grid distance small):
	// reports arrive every few minutes, so a vessel rarely skips far.
	var total, near int
	res.Inventory.Each(func(k inventory.GroupKey, cs *inventory.CellSummary) bool {
		if k.Set != inventory.GSCell {
			return true
		}
		for _, tr := range cs.TopTransitions(8) {
			total++
			if d := hexgrid.GridDistance(k.Cell, hexgrid.Cell(tr.Key)); d >= 1 && d <= 4 {
				near++
			}
		}
		return true
	})
	if total == 0 {
		t.Fatal("no transitions recorded")
	}
	if frac := float64(near) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of transitions are near neighbours", frac*100)
	}
}

func TestRunNonCommercialExcluded(t *testing.T) {
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 4, Days: 10, Seed: 51}, gaz)
	if err != nil {
		t.Fatal(err)
	}
	// Degrade vessel 0 to a non-commercial profile in the static inventory.
	static := s.Fleet().StaticIndex()
	v0 := s.Fleet().Vessels[0]
	v0.GRT = 400
	static[v0.MMSI] = v0
	ctx := dataflow.NewContext(2)
	records := dataflow.Generate(ctx, 4, func(part int) []model.PositionRecord {
		recs, _ := s.VesselTrack(part)
		return recs
	})
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	res, err := Run(records, static, idx, Options{Resolution: 6})
	if err != nil {
		t.Fatal(err)
	}
	// No summary may contain the excluded vessel: compare ship estimates.
	merged := inventory.NewCellSummary()
	res.Inventory.Each(func(k inventory.GroupKey, cs *inventory.CellSummary) bool {
		if k.Set == inventory.GSCell {
			merged.Ships.Merge(&cs.Ships)
		}
		return true
	})
	if got := merged.Ships.Estimate(); got > 3 {
		t.Errorf("distinct ships %d, want <= 3 after exclusion", got)
	}
}

func TestRunUnknownVesselsExcluded(t *testing.T) {
	// Records with no static info must be dropped entirely.
	gaz := ports.Default()
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	ctx := dataflow.NewContext(2)
	records := dataflow.Parallelize(ctx, []model.PositionRecord{
		rec(999999999, 100, 52, 4, 10, 90),
		rec(999999999, 200, 52.01, 4, 10, 90),
	}, 1)
	res, err := Run(records, map[uint32]model.VesselInfo{}, idx, Options{Resolution: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inventory.Len() != 0 {
		t.Errorf("unknown vessels produced %d groups", res.Inventory.Len())
	}
	if res.Stats.String() == "" {
		t.Error("stats must render")
	}
}

// recordBits is a record's fields as bits, so NaN compares equal to
// itself and a flipped bit shows.
func recordBits(r model.PositionRecord) [8]uint64 {
	return [8]uint64{uint64(r.MMSI), uint64(r.Time), math.Float64bits(r.Pos.Lat), math.Float64bits(r.Pos.Lng),
		math.Float64bits(r.SOG), math.Float64bits(r.COG), math.Float64bits(r.Heading), uint64(r.Status)}
}

func sameBits(a, b []model.PositionRecord) bool {
	return slices.EqualFunc(a, b, func(x, y model.PositionRecord) bool { return recordBits(x) == recordBits(y) })
}

// TestRunLeavesInputUntouched: Run cleans each vessel's reports in place in
// memory the shuffle owns, never in its input. A commercial vessel's track
// gets an out-of-range row, a NaN-speed row, duplicate timestamps and two
// rows out of time order, so the in-place filter, sort and dedup all run;
// the input is cut into 1, 2 and 7 partitions, which splits that vessel
// across partitions, from Generate and from Parallelize. Every input row is
// bit-identical afterwards, and CleanVessel leaves its argument so too.
func TestRunLeavesInputUntouched(t *testing.T) {
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 6, Days: 10, Seed: 33}, gaz)
	if err != nil {
		t.Fatal(err)
	}
	static := s.Fleet().StaticIndex()
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	var all, noisy []model.PositionRecord
	for i := 0; i < 6; i++ {
		track, _ := s.VesselTrack(i)
		if len(track) < 10 {
			continue
		}
		if info := static[track[0].MMSI]; noisy == nil && info.IsCommercial() {
			bad, nan := track[3], track[5]
			bad.Pos.Lat = 91
			nan.SOG = math.NaN()
			track = append(track, bad, nan, track[7], track[8]) // two duplicate timestamps
			track[1], track[2] = track[2], track[1]
			noisy = track
		}
		all = append(all, track...)
	}
	if noisy == nil {
		t.Fatal("no commercial vessel in the fleet")
	}
	want := slices.Clone(all)
	for _, inParts := range []int{1, 2, 7} {
		for _, gen := range []bool{false, true} {
			ctx := dataflow.NewContext(2)
			records := dataflow.Parallelize(ctx, all, inParts)
			if gen {
				records = dataflow.Generate(ctx, inParts, func(p int) []model.PositionRecord {
					return all[p*len(all)/inParts : (p+1)*len(all)/inParts]
				})
			}
			res, err := Run(records, static, idx, Options{Resolution: 6, Partitions: 3})
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Stats; st.RawRecords != int64(len(all)) || st.ValidRecords > st.CommercialOnly-4 || st.Groups == 0 {
				t.Fatalf("%d input partitions (generated %v): the noise was not cleaned: %s", inParts, gen, st)
			}
			if !sameBits(all, want) {
				t.Fatalf("%d input partitions (generated %v): Run wrote to its input", inParts, gen)
			}
		}
	}
	track := slices.Clone(noisy)
	if cleaned := CleanVessel(track, MaxSpeedKnots); len(cleaned) > len(noisy)-4 {
		t.Fatalf("CleanVessel kept %d of %d rows", len(cleaned), len(noisy))
	}
	if !sameBits(track, noisy) {
		t.Error("CleanVessel wrote to its argument")
	}
}

func BenchmarkPipelineEndToEnd(b *testing.B) {
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 8, Days: 10, Seed: 61}, gaz)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate tracks once; benchmark the pipeline only.
	tracks := make([][]model.PositionRecord, 8)
	var total int
	for i := range tracks {
		tracks[i], _ = s.VesselTrack(i)
		total += len(tracks[i])
	}
	static := s.Fleet().StaticIndex()
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := dataflow.NewContext(4)
		records := dataflow.Generate(ctx, 8, func(part int) []model.PositionRecord { return tracks[part] })
		if _, err := Run(records, static, idx, Options{Resolution: 6}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total), "records/op")
}
