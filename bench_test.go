// Benchmarks regenerating the paper's evaluation artifacts — one benchmark
// per table and figure (see DESIGN.md §3 for the experiment index), plus
// the query-cost comparison behind the §4 compression claim. Run with:
//
//	go test -bench=. -benchmem
//
// The polbench command prints the corresponding paper-vs-measured numbers.
package pol_test

import (
	"sync"
	"testing"

	"github.com/patternsoflife/pol/internal/anomaly"
	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/eta"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/predict"
	"github.com/patternsoflife/pol/internal/render"
	"github.com/patternsoflife/pol/internal/routing"
	"github.com/patternsoflife/pol/internal/sim"
)

// benchLab is the shared fixture: a simulated fleet and its inventories,
// built once across all benchmarks.
type benchLab struct {
	sim     *sim.Simulator
	gaz     *ports.Gazetteer
	portIdx *ports.Index
	tracks  [][]model.PositionRecord
	voyages []sim.Voyage
	records int64
	inv6    *inventory.Inventory
	inv7    *inventory.Inventory
}

var (
	labOnce sync.Once
	labInst *benchLab
)

const (
	benchVessels = 30
	benchDays    = 15
)

func getLab(b *testing.B) *benchLab {
	b.Helper()
	labOnce.Do(func() {
		gaz := ports.Default()
		s, err := sim.New(sim.Config{Vessels: benchVessels, Days: benchDays, Seed: 1}, gaz)
		if err != nil {
			panic(err)
		}
		l := &benchLab{
			sim:     s,
			gaz:     gaz,
			portIdx: ports.NewIndex(gaz, ports.IndexResolution),
			tracks:  make([][]model.PositionRecord, benchVessels),
		}
		for i := 0; i < benchVessels; i++ {
			recs, voys := s.VesselTrack(i)
			l.tracks[i] = recs
			l.voyages = append(l.voyages, voys...)
			l.records += int64(len(recs))
		}
		l.inv6 = l.build(6)
		l.inv7 = l.build(7)
		labInst = l
	})
	return labInst
}

func (l *benchLab) build(res int) *inventory.Inventory {
	ctx := dataflow.NewContext(0)
	records := dataflow.Generate(ctx, len(l.tracks), func(i int) []model.PositionRecord { return l.tracks[i] })
	result, err := pipeline.Run(records, l.sim.Fleet().StaticIndex(), l.portIdx,
		pipeline.Options{Resolution: res})
	if err != nil {
		panic(err)
	}
	return result.Inventory
}

func (l *benchLab) completedVoyage(minTrack int) (sim.Voyage, []model.PositionRecord) {
	end := l.sim.Config().Start.Unix() + int64(l.sim.Config().Days)*86400
	for _, v := range l.voyages {
		if v.ArriveTime >= end {
			continue
		}
		var track []model.PositionRecord
		for i, info := range l.sim.Fleet().Vessels {
			if info.MMSI == v.MMSI {
				for _, r := range l.tracks[i] {
					if r.Time >= v.DepartTime && r.Time <= v.ArriveTime {
						track = append(track, r)
					}
				}
				break
			}
		}
		if len(track) >= minTrack {
			return v, track
		}
	}
	panic("bench: no completed voyage with enough track")
}

// BenchmarkTable1DatasetGeneration measures synthetic AIS generation (the
// Table-1 dataset substitute): one vessel-month of reports per op.
func BenchmarkTable1DatasetGeneration(b *testing.B) {
	l := getLab(b)
	b.ReportMetric(float64(l.records)/float64(benchVessels), "records/vessel")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _ := l.sim.VesselTrack(i % benchVessels)
		if len(recs) == 0 {
			b.Fatal("empty track")
		}
	}
}

// BenchmarkTable3FeatureExtraction measures the grouping-set aggregation
// (Table 2/3): a full pipeline pass building all three grouping sets.
func BenchmarkTable3FeatureExtraction(b *testing.B) {
	l := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv := l.build(6)
		if inv.Len() == 0 {
			b.Fatal("empty inventory")
		}
	}
	b.ReportMetric(float64(l.records), "records/op")
}

// BenchmarkTable4BuildResolution6/7 measure the Table-4 builds at the
// paper's two resolutions.
func BenchmarkTable4BuildResolution6(b *testing.B) {
	l := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.build(6)
	}
}

func BenchmarkTable4BuildResolution7(b *testing.B) {
	l := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.build(7)
	}
}

// BenchmarkFigure1GlobalMaps renders the global speed and course maps.
func BenchmarkFigure1GlobalMaps(b *testing.B) {
	l := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.SpeedMap(l.inv6, render.WorldBox, 800, 24)
		render.CourseMap(l.inv6, render.WorldBox, 800)
	}
}

// BenchmarkFigure4BalticMaps renders the three regional maps.
func BenchmarkFigure4BalticMaps(b *testing.B) {
	l := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.TripFrequencyMap(l.inv6, render.BalticBox, 400)
		render.SpeedMap(l.inv6, render.BalticBox, 400, 24)
		render.CourseMap(l.inv6, render.BalticBox, 400)
	}
}

// BenchmarkFigure5ATAMap renders the global time-to-destination map.
func BenchmarkFigure5ATAMap(b *testing.B) {
	l := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.ATAMap(l.inv6, render.WorldBox, 800)
	}
}

// BenchmarkFigure6DestinationCells runs the most-frequent-destination
// classification over every cell (the Figure-6 query).
func BenchmarkFigure6DestinationCells(b *testing.B) {
	l := getLab(b)
	cells := l.inv6.Cells(inventory.GSCell)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched := 0
		for _, c := range cells {
			if _, _, ok := l.inv6.MostFrequentDestination(c); ok {
				matched++
			}
		}
		if matched == 0 {
			b.Fatal("no destinations")
		}
	}
	b.ReportMetric(float64(len(cells)), "cells/op")
}

// BenchmarkQueryFullScan is the paper's baseline: computing one location's
// statistics by scanning every raw record (what the inventory avoids).
func BenchmarkQueryFullScan(b *testing.B) {
	l := getLab(b)
	cells := l.inv6.Cells(inventory.GSCell)
	target := cells[len(cells)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, track := range l.tracks {
			for _, r := range track {
				if hexgrid.LatLngToCell(r.Pos, 6) == target {
					hits++
				}
			}
		}
	}
	b.ReportMetric(float64(l.records), "records-scanned/op")
}

// BenchmarkQueryInventory is the same question answered by the inventory:
// one group lookup (the §4 "99.7% fewer hits" claim).
func BenchmarkQueryInventory(b *testing.B) {
	l := getLab(b)
	cells := l.inv6.Cells(inventory.GSCell)
	target := cells[len(cells)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := l.inv6.Cell(target); !ok {
			b.Fatal("missing cell")
		}
	}
}

// BenchmarkETAEstimation measures one baseline ETA query (§4.1.2).
func BenchmarkETAEstimation(b *testing.B) {
	l := getLab(b)
	v, track := l.completedVoyage(20)
	est := eta.New(l.inv6)
	q := eta.Query{Pos: track[len(track)/2].Pos, VType: v.VType, Origin: v.Route.Origin, Dest: v.Route.Dest}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := est.Estimate(q); !ok {
			b.Fatal("no estimate")
		}
	}
}

// BenchmarkDestinationPrediction replays a voyage through the streaming
// predictor (§4.1.3).
func BenchmarkDestinationPrediction(b *testing.B) {
	l := getLab(b)
	v, track := l.completedVoyage(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := predict.New(l.inv6, v.VType)
		for _, r := range track {
			p.Observe(r.Pos)
		}
		if _, ok := p.Best(); !ok {
			b.Fatal("no prediction")
		}
	}
	b.ReportMetric(float64(len(track)), "reports/op")
}

// BenchmarkRouteForecast builds the OD transition graph and runs A*
// (§4.1.3).
func BenchmarkRouteForecast(b *testing.B) {
	l := getLab(b)
	v, track := l.completedVoyage(40)
	destPort, _ := l.gaz.ByID(v.Route.Dest)
	from := track[len(track)/4].Pos
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.Forecast(l.inv6, v.Route.Origin, v.Route.Dest, v.VType, from, destPort.Pos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnomalyScore measures one normalcy evaluation.
func BenchmarkAnomalyScore(b *testing.B) {
	l := getLab(b)
	_, track := l.completedVoyage(20)
	sc := anomaly.New(l.inv6)
	rec := track[len(track)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Score(rec, model.VesselContainer)
	}
}

// BenchmarkInventoryRollUp measures the hierarchical res-7 → res-6 merge
// (paper §5 future work).
func BenchmarkInventoryRollUp(b *testing.B) {
	l := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inventory.RollUp(l.inv7, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInventoryAdaptive measures the non-uniform inventory build
// (paper §5 future work).
func BenchmarkInventoryAdaptive(b *testing.B) {
	l := getLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inventory.BuildAdaptive(l.inv7, 6, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObservation builds a minimal observation at the given position.
func benchObservation(mmsi uint32, t int64, p geo.LatLng) inventory.Observation {
	return inventory.Observation{
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

// BenchmarkPublishLargeInventory is the headline publish benchmark: a live
// master holding the full res-7 inventory receives a 16-key micro-batch
// delta, then publishes a copy-on-write serving snapshot, which re-copies
// only the shards the delta dirtied — its cost stays proportional to the
// delta, not to the inventory.
func BenchmarkPublishLargeInventory(b *testing.B) {
	l := getLab(b)
	var keys []inventory.GroupKey
	l.inv7.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		keys = append(keys, k)
		return true
	})
	const delta = 16
	// A private mutable copy: the lab's inventory is shared by every benchmark.
	master := inventory.New(l.inv7.Info())
	if err := master.MergeFrom(l.inv7); err != nil {
		b.Fatal(err)
	}
	master.Snapshot() // prime: measure steady-state publishes
	b.ReportAllocs()
	b.ReportMetric(float64(master.Len()), "groups")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < delta; j++ {
			k := keys[(i*delta+j)%len(keys)]
			master.Observe(k, benchObservation(uint32(210000000+j), int64(i*delta+j), k.Cell.LatLng()))
		}
		snap := master.Snapshot()
		if snap.Len() != master.Len() {
			b.Fatalf("published %d groups, master has %d", snap.Len(), master.Len())
		}
	}
}

// BenchmarkShuffleAllocs measures the dataflow hash shuffle on the
// pipeline's partition-by-vessel step: one full repartition of the fleet's
// records per op. The typed-hasher + count-then-fill bucketing keeps
// allocations per op fixed regardless of record count.
func BenchmarkShuffleAllocs(b *testing.B) {
	l := getLab(b)
	ctx := dataflow.NewContext(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := dataflow.Generate(ctx, len(l.tracks), func(i int) []model.PositionRecord { return l.tracks[i] })
		keyed := dataflow.KeyBy(records, "bench.key", func(r model.PositionRecord) uint32 { return r.MMSI })
		shuffled := dataflow.RepartitionByKey(keyed, "bench.shuffle", 8)
		rows, err := dataflow.Collect(shuffled)
		if err != nil {
			b.Fatal(err)
		}
		if int64(len(rows)) != l.records {
			b.Fatalf("shuffle produced %d rows, want %d", len(rows), l.records)
		}
	}
	b.ReportMetric(float64(l.records), "records/op")
}

// BenchmarkGeofencing measures the per-record port test dominating trip
// extraction.
func BenchmarkGeofencing(b *testing.B) {
	l := getLab(b)
	pts := []geo.LatLng{
		{Lat: 51.95, Lng: 4.05},  // inside Rotterdam
		{Lat: 45, Lng: -40},      // open ocean
		{Lat: 1.25, Lng: 103.82}, // inside Singapore
		{Lat: 30, Lng: 140},      // open ocean
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.portIdx.PortAt(pts[i%len(pts)])
	}
}
