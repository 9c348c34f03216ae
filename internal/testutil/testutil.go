// Package testutil builds simulator-backed fixtures shared by the tests of
// the use-case packages (eta, predict, routing, anomaly) and the benchmark
// harness.
package testutil

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// Fixture is a built inventory together with the simulator that produced
// it, giving tests access to voyage ground truth.
type Fixture struct {
	Sim       *sim.Simulator
	Inventory *inventory.Inventory
	Stats     pipeline.Stats
	Voyages   []sim.Voyage
	Tracks    map[uint32][]model.PositionRecord
}

// Build runs the simulator and the full pipeline at the given resolution.
func Build(tb testing.TB, cfg sim.Config, res int) *Fixture {
	tb.Helper()
	gaz := ports.Default()
	s, err := sim.New(cfg, gaz)
	if err != nil {
		tb.Fatal(err)
	}
	n := len(s.Fleet().Vessels)
	tracks := make([][]model.PositionRecord, n)
	voyagesPer := make([][]sim.Voyage, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tracks[i], voyagesPer[i] = s.VesselTrack(i)
		}(i)
	}
	wg.Wait()

	ctx := dataflow.NewContext(0)
	records := dataflow.Generate(ctx, n, func(part int) []model.PositionRecord { return tracks[part] })
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	res2, err := pipeline.Run(records, s.Fleet().StaticIndex(), idx, pipeline.Options{
		Resolution:  res,
		Description: "testutil fixture: " + cfg.Describe(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	f := &Fixture{
		Sim:       s,
		Inventory: res2.Inventory,
		Stats:     res2.Stats,
		Tracks:    make(map[uint32][]model.PositionRecord, n),
	}
	for i := 0; i < n; i++ {
		f.Voyages = append(f.Voyages, voyagesPer[i]...)
		f.Tracks[s.Fleet().Vessels[i].MMSI] = tracks[i]
	}
	return f
}

// CompletedVoyages returns voyages that finished before the simulation end
// (truncated voyages have unreliable arrival ground truth).
func (f *Fixture) CompletedVoyages() []sim.Voyage {
	end := f.Sim.Config().Start.Unix() + int64(f.Sim.Config().Days)*86400
	var out []sim.Voyage
	for _, v := range f.Voyages {
		if v.ArriveTime < end {
			out = append(out, v)
		}
	}
	return out
}

// TrackDuring returns a voyage's reports between departure and arrival.
func (f *Fixture) TrackDuring(v sim.Voyage) []model.PositionRecord {
	var out []model.PositionRecord
	for _, r := range f.Tracks[v.MMSI] {
		if r.Time >= v.DepartTime && r.Time <= v.ArriveTime {
			out = append(out, r)
		}
	}
	return out
}

// PinnedInventory builds an inventory whose every bit is a function of this
// function alone (Build's float sums follow GOMAXPROCS, its BuiltUnix the
// clock), so tests can pin checksums of its encodings. It fills all 256
// shards, all three grouping sets, and — in its hot and warm cells — every
// HyperLogLog layout: sparse, dense as runs, dense raw.
func PinnedInventory() *inventory.Inventory {
	rng := rand.New(rand.NewSource(13))
	inv := inventory.New(inventory.BuildInfo{
		Resolution:  6,
		RawRecords:  16000,
		UsedRecords: 10000,
		BuiltUnix:   1700000000,
		Description: "segment writer pinned fixture",
	})
	cells := make([]hexgrid.Cell, 400)
	for i := range cells {
		cells[i] = hexgrid.LatLngToCell(geo.LatLng{Lat: 30 + 30*rng.Float64(), Lng: -20 + 50*rng.Float64()}, 6)
	}
	observe := func(cell hexgrid.Cell, mmsi uint32) {
		depart := int64(1690000000 + rng.Intn(1e6))
		now := depart + int64(rng.Intn(4e5))
		rec := model.TripRecord{
			PositionRecord: model.PositionRecord{
				MMSI: mmsi, Time: now,
				SOG: 25 * rng.Float64(), COG: 360 * rng.Float64(), Heading: 360 * rng.Float64(),
			},
			VType:      model.VesselType(1 + rng.Intn(4)),
			TripID:     uint64(mmsi)<<20 | uint64(rng.Intn(8)),
			Origin:     model.PortID(1 + rng.Intn(5)),
			Dest:       model.PortID(1 + rng.Intn(5)),
			DepartTime: depart,
			ArriveTime: now + int64(rng.Intn(4e5)),
		}
		o := inventory.Observation{Rec: rec, NextCell: cells[rng.Intn(len(cells))]}
		for _, set := range inventory.AllGroupSets {
			inv.Observe(inventory.NewGroupKey(set, cell, rec.VType, rec.Origin, rec.Dest), o)
		}
	}
	for i := 0; i < 8000; i++ {
		observe(cells[rng.Intn(len(cells))], uint32(200000000+rng.Intn(300)))
	}
	for i := 0; i < 2000; i++ { // the hot cell: thousands of distinct ships
		observe(cells[0], uint32(300000000+i))
	}
	for i := 0; i < 250; i++ { // the warm cell: a dense sketch that still encodes as runs
		observe(cells[1], uint32(400000000+i))
	}
	return inv
}
