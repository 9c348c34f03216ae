package render

import (
	"image"
	"image/png"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

var fixture *testutil.Fixture

func getFixture(tb testing.TB) *testutil.Fixture {
	tb.Helper()
	if fixture == nil {
		fixture = testutil.Build(tb, sim.Config{Vessels: 20, Days: 20, Seed: 77}, 6)
	}
	return fixture
}

func TestMapDimensionsAndBackground(t *testing.T) {
	box := geo.BBox{MinLat: 0, MinLng: 0, MaxLat: 10, MaxLng: 20}
	img := Map(box, 200, 6, func(hexgrid.Cell) (float64, bool) { return 0, false }, SequentialRamp)
	b := img.Bounds()
	if b.Dx() != 200 {
		t.Errorf("width %d, want 200", b.Dx())
	}
	if b.Dy() != 100 { // aspect ratio 10/20
		t.Errorf("height %d, want 100", b.Dy())
	}
	// All pixels background.
	for _, p := range []image.Point{{0, 0}, {100, 50}, {199, 99}} {
		if img.RGBAAt(p.X, p.Y) != Background {
			t.Errorf("pixel %v not background", p)
		}
	}
	// Minimum size clamps.
	tiny := Map(box, 1, 6, func(hexgrid.Cell) (float64, bool) { return 0, false }, SequentialRamp)
	if tiny.Bounds().Dx() < 16 || tiny.Bounds().Dy() < 8 {
		t.Error("minimum canvas size not enforced")
	}
}

func TestMapPaintsDataCells(t *testing.T) {
	center := geo.LatLng{Lat: 5, Lng: 10}
	cell := hexgrid.LatLngToCell(center, 5)
	box := geo.BBox{MinLat: 0, MinLng: 5, MaxLat: 10, MaxLng: 15}
	img := Map(box, 300, 5, func(c hexgrid.Cell) (float64, bool) {
		if c == cell {
			return 1, true
		}
		return 0, false
	}, SequentialRamp)
	// The pixel at the cell center must be hot red; a far corner must be
	// background.
	x := int((center.Lng - box.MinLng) / (box.MaxLng - box.MinLng) * float64(img.Bounds().Dx()))
	y := int((box.MaxLat - center.Lat) / (box.MaxLat - box.MinLat) * float64(img.Bounds().Dy()))
	got := img.RGBAAt(x, y)
	if got == Background {
		t.Fatal("data cell rendered as background")
	}
	if got.R < 180 || got.B > 80 {
		t.Errorf("v=1 pixel %v not hot red", got)
	}
	if img.RGBAAt(2, 2) != Background {
		t.Error("empty corner must be background")
	}
}

func TestSequentialRampEnds(t *testing.T) {
	lo := SequentialRamp(0)
	hi := SequentialRamp(1)
	if lo.B < lo.R {
		t.Errorf("v=0 should be blue: %v", lo)
	}
	if hi.R < hi.B {
		t.Errorf("v=1 should be red: %v", hi)
	}
	if SequentialRamp(math.NaN()) != SequentialRamp(0) {
		t.Error("NaN clamps to 0")
	}
	if SequentialRamp(2) != SequentialRamp(1) {
		t.Error("overflow clamps to 1")
	}
}

func TestAngularRampPaperAnchors(t *testing.T) {
	// Figure 1: green is north, red is south, blue is east, yellow is west.
	n := AngularRamp(0)
	e := AngularRamp(90)
	s := AngularRamp(180)
	w := AngularRamp(270)
	if !(n.G > n.R && n.G > n.B) {
		t.Errorf("north %v should be green", n)
	}
	if !(e.B > e.R && e.B > e.G) {
		t.Errorf("east %v should be blue", e)
	}
	if !(s.R > s.G && s.R > s.B) {
		t.Errorf("south %v should be red", s)
	}
	if !(w.R > 150 && w.G > 150 && w.B < 100) {
		t.Errorf("west %v should be yellow", w)
	}
	if AngularRamp(360) != AngularRamp(0) {
		t.Error("ramp must wrap at 360")
	}
	if AngularRamp(-90) != AngularRamp(270) {
		t.Error("negative angles must wrap")
	}
}

func TestHeatRampMonotoneBrightness(t *testing.T) {
	prev := -1.0
	for v := 0.0; v <= 1.0; v += 0.1 {
		c := HeatRamp(v)
		lum := 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
		if lum < prev {
			t.Fatalf("heat ramp brightness not monotone at %v", v)
		}
		prev = lum
	}
}

func TestFigureRenderersProduceData(t *testing.T) {
	f := getFixture(t)
	inv := f.Inventory
	count := func(img *image.RGBA) (data int) {
		b := img.Bounds()
		for y := 0; y < b.Dy(); y += 2 {
			for x := 0; x < b.Dx(); x += 2 {
				if img.RGBAAt(x, y) != Background {
					data++
				}
			}
		}
		return data
	}
	speed := SpeedMap(inv, WorldBox, 400, 24)
	if n := count(speed); n == 0 {
		t.Error("speed map has no data pixels")
	}
	course := CourseMap(inv, WorldBox, 400)
	if n := count(course); n == 0 {
		t.Error("course map has no data pixels")
	}
	ata := ATAMap(inv, WorldBox, 400)
	if n := count(ata); n == 0 {
		t.Error("ATA map has no data pixels")
	}
	freq := TripFrequencyMap(inv, BalticBox, 300)
	_ = freq // the Baltic may legitimately be sparse at small fleet sizes
	// Figure 6 with the paper's three highlight ports.
	gaz := f.Sim.Gazetteer()
	var ids []model.PortID
	for _, name := range []string{"Singapore", "Shanghai", "Rotterdam"} {
		p, ok := gaz.ByName(name)
		if !ok {
			t.Fatalf("port %s missing", name)
		}
		ids = append(ids, p.ID)
	}
	dest := DestinationMap(inv, WorldBox, 400, ids)
	// Highlighted-destination cells may be absent in a tiny simulation, but
	// the call must succeed with correct geometry.
	if dest.Bounds().Dx() != 400 {
		t.Error("destination map geometry wrong")
	}
}

func TestSpeedMapValuesMatchInventory(t *testing.T) {
	f := getFixture(t)
	inv := f.Inventory
	cells := inv.Cells(inventory.GSCell)
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	// Pick a data cell and confirm its pixel is not background and encodes
	// a plausible speed colour.
	var target hexgrid.Cell
	for _, c := range cells {
		if s, ok := inv.Cell(c); ok && s.Speed.Weight() > 5 && WorldBox.Contains(c.LatLng()) {
			target = c
			break
		}
	}
	if target == hexgrid.InvalidCell {
		t.Fatal("no suitable cell")
	}
	// Zoom into the cell so pixels are much smaller than the hexagon; the
	// center pixel must then take the cell's colour.
	p := target.LatLng()
	box := geo.BBox{MinLat: p.Lat - 0.5, MinLng: p.Lng - 1, MaxLat: p.Lat + 0.5, MaxLng: p.Lng + 1}
	img := SpeedMap(inv, box, 400, 24)
	if img.RGBAAt(img.Bounds().Dx()/2, img.Bounds().Dy()/2) == Background {
		t.Error("inventory cell rendered as background")
	}
}

func TestWritePNG(t *testing.T) {
	img := Map(geo.BBox{MinLat: 0, MinLng: 0, MaxLat: 5, MaxLng: 10}, 64, 4,
		func(hexgrid.Cell) (float64, bool) { return 0.5, true }, SequentialRamp)
	path := filepath.Join(t.TempDir(), "test.png")
	if err := WritePNG(img, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decoded, err := png.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds() != img.Bounds() {
		t.Error("decoded bounds differ")
	}
	if err := WritePNG(img, filepath.Join(t.TempDir(), "no/such/dir/x.png")); err == nil {
		t.Error("unwritable path must error")
	}
}

// BenchmarkFigures renders Figures 4–6 from the test fleet's inventory;
// BenchmarkSpeedMapGlobal is Figure 1's speed half.
func BenchmarkFigures(b *testing.B) {
	f := getFixture(b)
	inv := f.Inventory
	var ids []model.PortID
	for _, name := range []string{"Singapore", "Shanghai", "Rotterdam"} {
		p, _ := f.Sim.Gazetteer().ByName(name)
		ids = append(ids, p.ID)
	}
	for _, fig := range []struct {
		name string
		draw func()
	}{
		{"fig4-baltic", func() {
			TripFrequencyMap(inv, BalticBox, 400)
			SpeedMap(inv, BalticBox, 400, 24)
			CourseMap(inv, BalticBox, 400)
		}},
		{"fig5-ata", func() { ATAMap(inv, WorldBox, 800) }},
		{"fig6-destinations", func() { DestinationMap(inv, WorldBox, 800, ids) }},
	} {
		b.Run(fig.name, func(b *testing.B) {
			for range b.N {
				fig.draw()
			}
		})
	}
}

func BenchmarkSpeedMapGlobal(b *testing.B) {
	f := testutil.Build(b, sim.Config{Vessels: 10, Days: 10, Seed: 99}, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpeedMap(f.Inventory, WorldBox, 800, 24)
	}
}

func TestDotMapPaintsSubpixelCells(t *testing.T) {
	// A single populated res-6 cell on a world map: pixel sampling would
	// likely miss it; the dot map must paint it.
	cell := hexgrid.LatLngToCell(geo.LatLng{Lat: 10, Lng: 20}, 6)
	img := DotMap(WorldBox, 800, []hexgrid.Cell{cell},
		func(c hexgrid.Cell) (float64, bool) { return 1, c == cell }, SequentialRamp)
	painted := 0
	b := img.Bounds()
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			if img.RGBAAt(x, y) != Background {
				painted++
			}
		}
	}
	if painted == 0 {
		t.Fatal("dot map painted nothing")
	}
	if painted > 50 {
		t.Errorf("single cell painted %d pixels; dots should be small", painted)
	}
}

func TestUseDotsSelection(t *testing.T) {
	// World view at res 6: cells are subpixel → dots.
	if !useDots(WorldBox, 1600, 6) {
		t.Error("world map at res 6 should use dots")
	}
	// Harbour zoom: pixels much smaller than cells → pixel sampling.
	zoom := geo.BBox{MinLat: 51.5, MinLng: 3.5, MaxLat: 52.5, MaxLng: 4.5}
	if useDots(zoom, 800, 6) {
		t.Error("harbour zoom should pixel-sample")
	}
}
