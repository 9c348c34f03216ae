package routing

import (
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

var fixture *testutil.Fixture

func getFixture(t *testing.T) *testutil.Fixture {
	t.Helper()
	if fixture == nil {
		fixture = testutil.Build(t, sim.Config{Vessels: 25, Days: 30, Seed: 77}, 6)
	}
	return fixture
}

// pickVoyage returns a completed voyage with a reasonably long track.
func pickVoyage(t *testing.T, f *testutil.Fixture) sim.Voyage {
	t.Helper()
	for _, v := range f.CompletedVoyages() {
		if len(f.TrackDuring(v)) > 100 {
			return v
		}
	}
	t.Fatal("no suitable voyage")
	return sim.Voyage{}
}

func TestBuildGraph(t *testing.T) {
	f := getFixture(t)
	v := pickVoyage(t, f)
	g, err := Build(f.Inventory, v.Route.Origin, v.Route.Dest, v.VType)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() < 10 {
		t.Fatalf("graph has only %d cells", g.Size())
	}
	// Every vertex must carry the OD summary's resolution.
	res := f.Inventory.Info().Resolution
	for _, c := range f.Inventory.ODCells(v.Route.Origin, v.Route.Dest, v.VType) {
		if _, ok := g.cells[c]; !ok {
			t.Error("OD cell missing from graph")
		}
		if c.Resolution() != res {
			t.Error("cell at wrong resolution")
		}
	}
}

func TestBuildNoHistory(t *testing.T) {
	f := getFixture(t)
	if _, err := Build(f.Inventory, 9999, 9998, model.VesselTanker); err != ErrNoHistory {
		t.Errorf("got %v, want ErrNoHistory", err)
	}
}

func TestForecastFollowsActualTrack(t *testing.T) {
	f := getFixture(t)
	v := pickVoyage(t, f)
	track := f.TrackDuring(v)
	start := track[len(track)/4] // forecast from 25% into the trip
	destPort, _ := f.Sim.Gazetteer().ByID(v.Route.Dest)

	path, err := Forecast(f.Inventory, v.Route.Origin, v.Route.Dest, v.VType, start.Pos, destPort.Pos)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 5 {
		t.Fatalf("forecast path has only %d cells", len(path))
	}
	// The forecast must start near the vessel and end near the destination.
	if d := geo.Haversine(path[0].LatLng(), start.Pos); d > 50e3 {
		t.Errorf("path starts %.0f km from the vessel", d/1000)
	}
	if d := geo.Haversine(path[len(path)-1].LatLng(), destPort.Pos); d > 60e3 {
		t.Errorf("path ends %.0f km from the destination", d/1000)
	}
	// Forecast cells must track the actual remaining trajectory: for most
	// remaining reports, the nearest forecast cell center is close.
	remaining := track[len(track)/4:]
	covered := 0
	for _, r := range remaining {
		best := 1e18
		for _, c := range path {
			if d := geo.Haversine(r.Pos, c.LatLng()); d < best {
				best = d
			}
		}
		if best < 60e3 {
			covered++
		}
	}
	if frac := float64(covered) / float64(len(remaining)); frac < 0.7 {
		t.Errorf("forecast covers only %.0f%% of the actual remaining track", frac*100)
	}
}

func TestForecastPathsAreConnectedTransitions(t *testing.T) {
	f := getFixture(t)
	v := pickVoyage(t, f)
	destPort, _ := f.Sim.Gazetteer().ByID(v.Route.Dest)
	originPort, _ := f.Sim.Gazetteer().ByID(v.Route.Origin)
	path, err := Forecast(f.Inventory, v.Route.Origin, v.Route.Dest, v.VType, originPort.Pos, destPort.Pos)
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive path cells must be recorded transitions, hence near each
	// other on the grid.
	for i := 1; i < len(path); i++ {
		if d := hexgrid.GridDistance(path[i-1], path[i]); d < 0 || d > 8 {
			t.Errorf("path hop %d has grid distance %d", i, d)
		}
	}
}

func TestNearest(t *testing.T) {
	f := getFixture(t)
	v := pickVoyage(t, f)
	g, err := Build(f.Inventory, v.Route.Origin, v.Route.Dest, v.VType)
	if err != nil {
		t.Fatal(err)
	}
	track := f.TrackDuring(v)
	mid := track[len(track)/2]
	c, ok := g.Nearest(mid.Pos)
	if !ok {
		t.Fatal("nearest failed")
	}
	if d := geo.Haversine(c.LatLng(), mid.Pos); d > 30e3 {
		t.Errorf("nearest vertex %.0f km away from an on-route point", d/1000)
	}
	empty := &Graph{cells: map[hexgrid.Cell][]edge{}}
	if _, ok := empty.Nearest(mid.Pos); ok {
		t.Error("empty graph must report !ok")
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	// Two isolated cells with no transitions: no path.
	a := hexgrid.LatLngToCell(geo.LatLng{Lat: 0, Lng: 0}, 6)
	b := hexgrid.LatLngToCell(geo.LatLng{Lat: 30, Lng: 30}, 6)
	g := &Graph{cells: map[hexgrid.Cell][]edge{a: nil, b: nil}}
	if _, err := g.ShortestPath(a.LatLng(), b.LatLng()); err != ErrNoPath {
		t.Errorf("got %v, want ErrNoPath", err)
	}
	// Path to self is trivially the start cell.
	path, err := g.ShortestPath(a.LatLng(), a.LatLng())
	if err != nil || len(path) != 1 || path[0] != a {
		t.Errorf("self path: %v, %v", path, err)
	}
}

func BenchmarkForecast(b *testing.B) {
	f := testutil.Build(b, sim.Config{Vessels: 15, Days: 20, Seed: 87}, 6)
	var v sim.Voyage
	for _, cand := range f.CompletedVoyages() {
		if len(f.TrackDuring(cand)) > 100 {
			v = cand
			break
		}
	}
	if v.MMSI == 0 {
		b.Fatal("no voyage")
	}
	destPort, _ := f.Sim.Gazetteer().ByID(v.Route.Dest)
	originPort, _ := f.Sim.Gazetteer().ByID(v.Route.Origin)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Forecast(f.Inventory, v.Route.Origin, v.Route.Dest, v.VType, originPort.Pos, destPort.Pos); err != nil {
			b.Fatal(err)
		}
	}
}
