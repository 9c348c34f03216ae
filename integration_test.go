package pol_test

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/eta"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
)

// TestEndToEndWireFormat exercises the full production data path: the
// simulator emits real AIVDM sentences, the feed reader decodes them back
// (as polbuild -in does), the pipeline builds the inventory from the
// decoded records, the inventory round-trips through its file format, and
// the disk reader answers an ETA query — every substrate in one flow.
func TestEndToEndWireFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end flow is slow")
	}
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 10, Days: 15, Seed: 33}, gaz)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Simulator → NMEA archive (the polgen step).
	var buf bytes.Buffer
	w := feed.NewWriter(&buf)
	for _, v := range s.Fleet().Vessels {
		if err := w.WriteStatic(v, s.Config().Start.Unix()); err != nil {
			t.Fatal(err)
		}
	}
	var emitted int
	for i := range s.Fleet().Vessels {
		recs, _ := s.VesselTrack(i)
		for _, r := range recs {
			if err := w.WritePosition(r); err != nil {
				t.Fatal(err)
			}
			emitted++
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// 2. NMEA archive → decoded records + reconstructed static inventory
	// (the polbuild ingest step).
	r := feed.NewReader(&buf)
	records, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != emitted {
		t.Fatalf("decoded %d of %d emitted records", len(records), emitted)
	}
	static := r.StaticsAsVesselInfo()
	if len(static) != 10 {
		t.Fatalf("static inventory %d vessels, want 10", len(static))
	}

	// 3. Pipeline → inventory. The wire-reconstructed static inventory has
	// estimated tonnage; all simulated vessels must still pass the
	// commercial filter.
	for mmsi, v := range static {
		if !v.IsCommercial() {
			t.Fatalf("vessel %d fails commercial filter after wire round trip: %+v", mmsi, v)
		}
	}
	ctx := dataflow.NewContext(0)
	ds := dataflow.Parallelize(ctx, records, 8)
	portIdx := ports.NewIndex(gaz, ports.IndexResolution)
	result, err := pipeline.Run(ds, static, portIdx, pipeline.Options{
		Resolution:  6,
		Description: "integration wire-format test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if result.Stats.Trips == 0 || result.Stats.TripRecords == 0 {
		t.Fatalf("pipeline produced no trips: %s", result.Stats)
	}
	// Positions pass through the AIS wire at 1/600000° resolution, so the
	// wire-built inventory must closely match a direct in-memory build.
	direct, err := pipeline.Run(
		dataflow.Generate(dataflow.NewContext(0), 10, func(i int) []model.PositionRecord {
			recs, _ := s.VesselTrack(i)
			return recs
		}),
		s.Fleet().StaticIndex(), portIdx, pipeline.Options{Resolution: 6})
	if err != nil {
		t.Fatal(err)
	}
	wireRecs := float64(result.Stats.TripRecords)
	directRecs := float64(direct.Stats.TripRecords)
	if math.Abs(wireRecs-directRecs)/directRecs > 0.02 {
		t.Errorf("wire-built trip records %v differ from direct %v by > 2%%", wireRecs, directRecs)
	}

	// 4. Inventory → segment file → heap (the polrender -inv step).
	path := filepath.Join(t.TempDir(), "wire.polinv")
	if err := segment.WriteFile(result.Inventory, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := segment.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !inventory.Equal(loaded, result.Inventory) {
		t.Fatalf("file round trip changed the inventory: %d vs %d groups", loaded.Len(), result.Inventory.Len())
	}

	// 5. A use-case query over the loaded inventory: some mid-ocean record
	// must produce an ETA estimate.
	est := eta.New(loaded)
	answered := false
	for _, rec := range records {
		if _, ok := est.Estimate(eta.Query{Pos: rec.Pos}); ok {
			answered = true
			break
		}
	}
	if !answered {
		t.Error("no location in the dataset produced an ETA estimate")
	}

	// 6. Disk random access (the polserve -inv step) agrees with the
	// in-memory map for a sample of keys.
	reader, err := segment.Open(path, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	checked := 0
	loaded.Each(func(k inventory.GroupKey, want *inventory.CellSummary) bool {
		got, ok, err := reader.Lookup(k)
		if err != nil || !ok || got.Records != want.Records {
			t.Fatalf("disk lookup %v: ok=%v err=%v", k, ok, err)
		}
		checked++
		return checked < 25
	})
}
