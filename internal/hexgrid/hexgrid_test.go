package hexgrid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/patternsoflife/pol/internal/geo"
)

// randomPoint returns a deterministic pseudo-random coordinate away from the
// extreme poles, where cells are clipped by the projection strip.
func randomPoint(rng *rand.Rand) geo.LatLng {
	return geo.LatLng{
		Lat: rng.Float64()*170 - 85,
		Lng: rng.Float64()*360 - 180,
	}
}

func TestNumCellsMatchesH3(t *testing.T) {
	// The grid is calibrated against H3 cell counts 120·7^r + 2.
	want := map[int]int64{
		0: 122,
		1: 842,
		2: 5882,
		6: 14117882,
		7: 98825162,
	}
	for res, n := range want {
		if got := NumCells(res); got != n {
			t.Errorf("NumCells(%d) = %d, want %d", res, got, n)
		}
	}
	if NumCells(-1) != 0 || NumCells(16) != 0 {
		t.Error("out-of-range resolutions must report 0 cells")
	}
}

func TestAvgCellAreaMatchesH3(t *testing.T) {
	// Paper §3.3.3: resolutions 6 and 7 cover ~36 and ~5 km². (H3: 36.129
	// and 5.161 km² average.) Calibration must land within 2%.
	cases := map[int]float64{6: 36.129, 7: 5.161}
	for res, want := range cases {
		got := AvgCellAreaKm2(res)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("res %d area = %.3f km², want ≈ %.3f", res, got, want)
		}
	}
}

func TestTotalAreaConsistency(t *testing.T) {
	// NumCells × cell area must equal the Earth's surface area within the
	// column-rounding tolerance. Resolutions 0-1 have so few columns that
	// rounding to an even count is coarse; calibration is meaningful from
	// res 2 up.
	for res := 2; res <= 10; res++ {
		total := float64(NumCells(res)) * AvgCellAreaKm2(res)
		if math.Abs(total-geo.EarthSurfaceAreaKm2)/geo.EarthSurfaceAreaKm2 > 0.05 {
			t.Errorf("res %d: cells × area = %.0f km², want ≈ %.0f", res, total, geo.EarthSurfaceAreaKm2)
		}
	}
}

func TestLatLngToCellRoundTrip(t *testing.T) {
	// The center of the cell containing p must be within one circumradius
	// (projected) of p.
	rng := rand.New(rand.NewSource(42))
	for res := 0; res <= 9; res++ {
		maxDistM := EdgeLengthKm(res) * 1000 * 1.01
		for i := 0; i < 200; i++ {
			p := randomPoint(rng)
			c := LatLngToCell(p, res)
			if !c.Valid() {
				t.Fatalf("res %d: invalid cell for %v", res, p)
			}
			pp := geo.ProjectEqualArea(p)
			cc := geo.ProjectEqualArea(c.LatLng())
			dx := math.Abs(pp.X - cc.X)
			if w := geo.ProjectionWidth(); dx > w/2 {
				dx = w - dx
			}
			d := math.Hypot(dx, pp.Y-cc.Y)
			if d > maxDistM {
				t.Errorf("res %d: point %v is %.0f m from center of its cell (max %.0f)", res, p, d, maxDistM)
			}
		}
	}
}

func TestCellCenterMapsToSameCell(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for res := 0; res <= 10; res++ {
		for i := 0; i < 100; i++ {
			c := LatLngToCell(randomPoint(rng), res)
			if got := LatLngToCell(c.LatLng(), res); got != c {
				t.Errorf("res %d: center of %v maps to %v", res, c, got)
			}
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	if LatLngToCell(geo.LatLng{Lat: 0, Lng: 0}, -1) != InvalidCell {
		t.Error("negative resolution must be invalid")
	}
	if LatLngToCell(geo.LatLng{Lat: 0, Lng: 0}, 16) != InvalidCell {
		t.Error("resolution 16 must be invalid")
	}
	if LatLngToCell(geo.LatLng{Lat: 95, Lng: 0}, 6) != InvalidCell {
		t.Error("latitude 95 must be invalid")
	}
	if InvalidCell.Valid() {
		t.Error("zero cell must be invalid")
	}
	if Cell(^uint64(0)).Valid() {
		t.Error("all-ones cell must be invalid")
	}
}

func TestResolutionEncoding(t *testing.T) {
	p := geo.LatLng{Lat: 51.95, Lng: 4.14}
	for res := 0; res <= MaxResolution; res++ {
		c := LatLngToCell(p, res)
		if c.Resolution() != res {
			t.Errorf("cell %v: resolution %d, want %d", c, c.Resolution(), res)
		}
		if !c.Valid() {
			t.Errorf("res %d: cell should be valid", res)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		c := LatLngToCell(randomPoint(rng), rng.Intn(12))
		got, err := ParseCell(c.String())
		if err != nil {
			t.Fatalf("parse %q: %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip: got %v, want %v", got, c)
		}
	}
	if _, err := ParseCell("not-hex"); err == nil {
		t.Error("garbage must not parse")
	}
	if _, err := ParseCell("0"); err == nil {
		t.Error("invalid cell value must not parse")
	}
	if InvalidCell.String() != "<invalid>" {
		t.Errorf("invalid cell string = %q", InvalidCell.String())
	}
}

// TestStringMatchesSprintf pins the hand-rolled hex routine to the
// fmt.Sprintf("%016x") form it replaced, over random bit patterns (valid
// or not) and real cells, and checks AppendString appends after a prefix.
func TestStringMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		c := Cell(rng.Uint64() >> uint(rng.Intn(64)))
		if i%2 == 0 {
			c = LatLngToCell(randomPoint(rng), rng.Intn(MaxResolution+1))
		}
		want := "<invalid>"
		if c != InvalidCell {
			want = fmt.Sprintf("%016x", uint64(c))
		}
		if got := c.String(); got != want {
			t.Fatalf("Cell(%#x).String() = %q, want %q", uint64(c), got, want)
		}
		if got := string(c.AppendString([]byte("id="))); got != "id="+want {
			t.Fatalf("Cell(%#x).AppendString = %q, want %q", uint64(c), got, "id="+want)
		}
	}
	if got := string(InvalidCell.AppendString(nil)); got != "<invalid>" {
		t.Errorf("invalid cell appends %q", got)
	}
}

func TestNeighborsAreMutual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		c := LatLngToCell(randomPoint(rng), 2+rng.Intn(8))
		for _, n := range c.Neighbors() {
			found := false
			for _, back := range n.Neighbors() {
				if back == c {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("cell %v neighbor %v does not link back", c, n)
			}
		}
	}
}

func TestNeighborsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		c := LatLngToCell(randomPoint(rng), 2+rng.Intn(8))
		ns := c.Neighbors()
		seen := map[Cell]bool{c: true}
		for _, n := range ns {
			if seen[n] {
				t.Errorf("cell %v has duplicate or self neighbor %v", c, n)
			}
			seen[n] = true
		}
	}
}

func TestNeighborsAdjacentOnEarth(t *testing.T) {
	// Neighbour centers must be exactly one center spacing (√3·s) apart in
	// projected space.
	// Latitudes stay within ±70° so that no neighbour center pokes past the
	// projection strip (near-pole cells clamp their centers by design).
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		res := 3 + rng.Intn(6)
		p := geo.LatLng{Lat: rng.Float64()*140 - 70, Lng: rng.Float64()*360 - 180}
		c := LatLngToCell(p, res)
		want := math.Sqrt(3) * specs[res].size
		pc := geo.ProjectEqualArea(c.LatLng())
		for _, n := range c.Neighbors() {
			pn := geo.ProjectEqualArea(n.LatLng())
			dx := math.Abs(pc.X - pn.X)
			if w := geo.ProjectionWidth(); dx > w/2 {
				dx = w - dx
			}
			d := math.Hypot(dx, pc.Y-pn.Y)
			if math.Abs(d-want)/want > 1e-6 {
				t.Errorf("res %d neighbor spacing %.3f, want %.3f", res, d, want)
			}
		}
	}
}

func TestAntimeridianWrap(t *testing.T) {
	// Cells just west and just east of the dateline must be neighbours or at
	// small grid distance, never a full world apart.
	for res := 2; res <= 8; res++ {
		west := LatLngToCell(geo.LatLng{Lat: 10, Lng: 179.9999}, res)
		east := LatLngToCell(geo.LatLng{Lat: 10, Lng: -179.9999}, res)
		d := GridDistance(west, east)
		if d < 0 || d > 2 {
			t.Errorf("res %d: dateline cells grid distance %d, want <= 2", res, d)
		}
	}
	// A cell on the dateline must include neighbours on both sides.
	c := LatLngToCell(geo.LatLng{Lat: 0, Lng: -180}, 5)
	for _, n := range c.Neighbors() {
		if !n.Valid() {
			t.Errorf("dateline neighbor %v invalid", n)
		}
	}
}

func TestGridDiskSizes(t *testing.T) {
	c := LatLngToCell(geo.LatLng{Lat: 35, Lng: 25}, 6)
	for k := 0; k <= 5; k++ {
		want := 1 + 3*k*(k+1)
		if got := len(GridDisk(c, k)); got != want {
			t.Errorf("GridDisk k=%d: %d cells, want %d", k, got, want)
		}
	}
	if GridDisk(InvalidCell, 1) != nil {
		t.Error("disk of invalid cell must be nil")
	}
	if GridDisk(c, -1) != nil {
		t.Error("negative k must be nil")
	}
}

func TestGridDiskContainsOriginAndNeighbors(t *testing.T) {
	c := LatLngToCell(geo.LatLng{Lat: -20, Lng: 100}, 7)
	disk := GridDisk(c, 1)
	set := make(map[Cell]bool, len(disk))
	for _, d := range disk {
		set[d] = true
	}
	if !set[c] {
		t.Error("disk must contain origin")
	}
	for _, n := range c.Neighbors() {
		if !set[n] {
			t.Errorf("disk k=1 missing neighbor %v", n)
		}
	}
}

func TestGridRing(t *testing.T) {
	c := LatLngToCell(geo.LatLng{Lat: 48, Lng: -5}, 6)
	for k := 1; k <= 4; k++ {
		ring := GridRing(c, k)
		if len(ring) != 6*k {
			t.Errorf("ring k=%d: %d cells, want %d", k, len(ring), 6*k)
		}
		for _, r := range ring {
			if d := GridDistance(c, r); d != k {
				t.Errorf("ring k=%d cell at distance %d", k, d)
			}
		}
	}
	if r := GridRing(c, 0); len(r) != 1 || r[0] != c {
		t.Error("ring k=0 must be the origin")
	}
}

func TestGridDiskEqualsUnionOfRings(t *testing.T) {
	c := LatLngToCell(geo.LatLng{Lat: 5, Lng: 5}, 5)
	disk := GridDisk(c, 3)
	var rings []Cell
	for k := 0; k <= 3; k++ {
		rings = append(rings, GridRing(c, k)...)
	}
	if len(disk) != len(rings) {
		t.Fatalf("disk %d cells, rings %d", len(disk), len(rings))
	}
	set := make(map[Cell]bool)
	for _, d := range disk {
		set[d] = true
	}
	for _, r := range rings {
		if !set[r] {
			t.Errorf("ring cell %v not in disk", r)
		}
	}
}

func TestGridDistanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		res := 3 + rng.Intn(5)
		a := LatLngToCell(randomPoint(rng), res)
		b := LatLngToCell(randomPoint(rng), res)
		dab := GridDistance(a, b)
		dba := GridDistance(b, a)
		if dab != dba {
			t.Errorf("distance not symmetric: %d vs %d", dab, dba)
		}
		if GridDistance(a, a) != 0 {
			t.Error("self distance must be 0")
		}
	}
	a := LatLngToCell(geo.LatLng{Lat: 0, Lng: 0}, 5)
	b := LatLngToCell(geo.LatLng{Lat: 0, Lng: 0}, 6)
	if GridDistance(a, b) != -1 {
		t.Error("mixed resolutions must report -1")
	}
	for _, n := range a.Neighbors() {
		if GridDistance(a, n) != 1 {
			t.Error("neighbor distance must be 1")
		}
	}
}

func TestParentChildConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		p := randomPoint(rng)
		child := LatLngToCell(p, 7)
		parent := child.Parent(6)
		if !parent.Valid() {
			t.Fatalf("invalid parent of %v", child)
		}
		// The parent must contain the child's center.
		if LatLngToCell(child.LatLng(), 6) != parent {
			t.Errorf("parent of %v does not contain child center", child)
		}
	}
}

func TestParentEdgeCases(t *testing.T) {
	c := LatLngToCell(geo.LatLng{Lat: 10, Lng: 10}, 6)
	if c.Parent(6) != c {
		t.Error("parent at same resolution must be the cell itself")
	}
	if c.Parent(7) != InvalidCell {
		t.Error("parent at finer resolution must be invalid")
	}
	if c.Parent(-1) != InvalidCell {
		t.Error("negative parent resolution must be invalid")
	}
	if InvalidCell.Parent(3) != InvalidCell {
		t.Error("parent of invalid cell must be invalid")
	}
}

func TestChildrenAperture7(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var total, count int
	for i := 0; i < 50; i++ {
		c := LatLngToCell(randomPoint(rng), 5)
		kids := children(c, 6)
		if len(kids) < 5 || len(kids) > 9 {
			t.Errorf("cell %v has %d children, want ≈ 7", c, len(kids))
		}
		total += len(kids)
		count++
		for _, k := range kids {
			if k.Parent(5) != c {
				t.Errorf("child %v does not report parent %v", k, c)
			}
			if k.Resolution() != 6 {
				t.Errorf("child resolution %d", k.Resolution())
			}
		}
	}
	avg := float64(total) / float64(count)
	if math.Abs(avg-7) > 0.5 {
		t.Errorf("average children %.2f, want ≈ 7 (aperture-7)", avg)
	}
}

func TestChildrenPartitionIsExclusive(t *testing.T) {
	// Children of two adjacent parents must not overlap.
	a := LatLngToCell(geo.LatLng{Lat: 30, Lng: 30}, 5)
	b := a.Neighbors()[0]
	seen := make(map[Cell]Cell)
	for _, k := range children(a, 6) {
		seen[k] = a
	}
	for _, k := range children(b, 6) {
		if owner, ok := seen[k]; ok {
			t.Errorf("child %v claimed by both %v and %v", k, owner, b)
		}
	}
}

func TestChildrenTwoLevels(t *testing.T) {
	c := LatLngToCell(geo.LatLng{Lat: 40, Lng: -70}, 4)
	kids := children(c, 6)
	if len(kids) < 40 || len(kids) > 60 {
		t.Errorf("two-level children count %d, want ≈ 49", len(kids))
	}
	if got := children(c, 4); len(got) != 1 || got[0] != c {
		t.Error("children at same resolution must be the cell itself")
	}
	if children(c, 3) != nil {
		t.Error("children at coarser resolution must be nil")
	}
}

func TestCellAreaExact(t *testing.T) {
	c := LatLngToCell(geo.LatLng{Lat: 55, Lng: 15}, 6)
	if got, want := c.AreaKm2(), AvgCellAreaKm2(6); got != want {
		t.Errorf("cell area %v, want %v", got, want)
	}
	if InvalidCell.AreaKm2() != 0 {
		t.Error("invalid cell area must be 0")
	}
}

func TestCoverBBox(t *testing.T) {
	// Baltic box from the paper's Figure 4.
	b := geo.BBox{MinLat: 53, MinLng: 9, MaxLat: 66, MaxLng: 31}
	cells := CoverBBox(b, 4)
	if len(cells) == 0 {
		t.Fatal("no cells covering the Baltic box")
	}
	// Every random point in the box must land in a covered cell.
	set := make(map[Cell]bool, len(cells))
	for _, c := range cells {
		set[c] = true
	}
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		p := geo.LatLng{
			Lat: b.MinLat + rng.Float64()*(b.MaxLat-b.MinLat),
			Lng: b.MinLng + rng.Float64()*(b.MaxLng-b.MinLng),
		}
		if !set[LatLngToCell(p, 4)] {
			t.Fatalf("point %v in box not covered", p)
		}
	}
	if CoverBBox(b, -1) != nil {
		t.Error("invalid resolution must yield nil")
	}
}

func TestCoverPolygonSuperset(t *testing.T) {
	// A port-scale circular geofence: every point inside must fall in a
	// covered cell.
	fence := geo.CirclePolygon(geo.LatLng{Lat: 51.95, Lng: 4.14}, 15000, 24)
	cells := CoverPolygon(fence, 7)
	if len(cells) == 0 {
		t.Fatal("no covering cells")
	}
	set := make(map[Cell]bool, len(cells))
	for _, c := range cells {
		set[c] = true
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		p := geo.Destination(geo.LatLng{Lat: 51.95, Lng: 4.14}, rng.Float64()*360, rng.Float64()*14999)
		if !fence.Contains(p) {
			continue
		}
		if !set[LatLngToCell(p, 7)] {
			t.Fatalf("in-fence point %v not covered", p)
		}
	}
}

func TestCoverPolygonTiny(t *testing.T) {
	// A polygon far smaller than a cell must still produce a covering.
	fence := geo.CirclePolygon(geo.LatLng{Lat: 1.264, Lng: 103.84}, 100, 12)
	cells := CoverPolygon(fence, 5)
	if len(cells) == 0 {
		t.Fatal("tiny polygon must still be covered")
	}
	set := make(map[Cell]bool)
	for _, c := range cells {
		set[c] = true
	}
	if !set[LatLngToCell(geo.LatLng{Lat: 1.264, Lng: 103.84}, 5)] {
		t.Error("covering must include the centroid cell")
	}
	if CoverPolygon(geo.Polygon{{Lat: 0, Lng: 0}, {Lat: 1, Lng: 1}}, 5) != nil {
		t.Error("degenerate polygon must yield nil")
	}
}

func TestCellsPartitionSpace(t *testing.T) {
	// Property: every point maps to exactly one cell, and nearby points map
	// to the same or adjacent-ish cells.
	f := func(lat, lng float64) bool {
		p := geo.LatLng{Lat: math.Mod(lat, 85), Lng: math.Mod(lng, 180)}
		c := LatLngToCell(p, 6)
		return c.Valid() && c.Resolution() == 6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctCellsForDistantPoints(t *testing.T) {
	a := LatLngToCell(geo.LatLng{Lat: 51.95, Lng: 4.14}, 6)   // Rotterdam
	b := LatLngToCell(geo.LatLng{Lat: 1.264, Lng: 103.84}, 6) // Singapore
	if a == b {
		t.Error("Rotterdam and Singapore must be different cells")
	}
	if d := GridDistance(a, b); d < 100 {
		t.Errorf("Rotterdam-Singapore grid distance %d suspiciously small", d)
	}
}

func BenchmarkLatLngToCell(b *testing.B) {
	p := geo.LatLng{Lat: 51.95, Lng: 4.14}
	for i := 0; i < b.N; i++ {
		LatLngToCell(p, 6)
	}
}

func BenchmarkCellToLatLng(b *testing.B) {
	c := LatLngToCell(geo.LatLng{Lat: 51.95, Lng: 4.14}, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.LatLng()
	}
}

func BenchmarkNeighbors(b *testing.B) {
	c := LatLngToCell(geo.LatLng{Lat: 51.95, Lng: 4.14}, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Neighbors()
	}
}

func BenchmarkGridDisk3(b *testing.B) {
	c := LatLngToCell(geo.LatLng{Lat: 51.95, Lng: 4.14}, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GridDisk(c, 3)
	}
}

// children returns the cells at the given finer resolution whose Parent is
// c — the aperture-7 hierarchy the tests hold Parent to. It returns nil if
// childRes is coarser or out of range, and c itself at c's resolution.
func children(c Cell, childRes int) []Cell {
	if !c.Valid() || childRes < c.Resolution() || childRes > MaxResolution {
		return nil
	}
	if childRes == c.Resolution() {
		return []Cell{c}
	}
	// Children of the direct next resolution sit within grid distance 3 of
	// the center child; recurse one level at a time.
	direct := func(parent Cell) []Cell {
		res := parent.Resolution() + 1
		centerChild := LatLngToCell(parent.LatLng(), res)
		var kids []Cell
		for _, cand := range GridDisk(centerChild, 3) {
			if cand.Parent(parent.Resolution()) == parent {
				kids = append(kids, cand)
			}
		}
		return kids
	}
	cells := []Cell{c}
	for res := c.Resolution() + 1; res <= childRes; res++ {
		var next []Cell
		for _, p := range cells {
			next = append(next, direct(p)...)
		}
		cells = next
	}
	return cells
}
