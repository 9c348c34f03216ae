// Package hexgrid implements a hexagonal hierarchical discrete global grid
// system (DGGS), serving as a from-scratch substitute for the Uber H3 index
// used by the paper.
//
// Design. Geographic coordinates are mapped to a plane with the Lambert
// cylindrical equal-area projection, and the plane is tiled with flat-top
// hexagons in axial coordinates. Because the projection is exactly
// area-preserving, every cell of a given resolution covers exactly the same
// area on the sphere — the paper's key grid requirement (§3.2.1). Per
// resolution r, the hexagon size is calibrated so the number of cells equals
// H3's cell count (120·7^r + 2) as closely as the tiling permits, which makes
// average cell areas (res 6 ≈ 36.1 km², res 7 ≈ 5.16 km²) and therefore the
// paper's compression and utilization figures directly comparable.
//
// The east-west column count of every resolution is forced to an even
// integer, which makes the tiling exactly periodic across the antimeridian:
// cell (q, r) and cell (q+ncols, r−ncols/2) are the same cell. Neighbour and
// disk operations therefore work seamlessly across the ±180° seam.
//
// Like H3, the hierarchy is aperture-7: each cell at resolution r has about
// seven children at resolution r+1, and parent/child relations are resolved
// by center containment.
//
// A Cell packs resolution and canonical axial coordinates into 64 bits. The
// zero Cell is invalid.
package hexgrid

import (
	"fmt"
	"math"
	"strconv"

	"github.com/patternsoflife/pol/internal/geo"
)

// MaxResolution is the finest grid resolution, matching H3's range 0..15.
const MaxResolution = 15

// Cell is a 64-bit index identifying one hexagonal grid cell at one
// resolution. The zero value is invalid.
//
// Bit layout (most significant first):
//
//	bits 63..62  zero (reserved)
//	bits 61..58  resolution (0..15)
//	bit  57      validity marker, always 1 for valid cells
//	bits 56..28  canonical column q, 29 bits, 0 <= q < ncols(res)
//	bits 27..0   row r biased by rBias, 28 bits
type Cell uint64

const (
	resShift   = 58
	validBit   = 1 << 57
	qShift     = 28
	qMask      = (1 << 29) - 1
	rMask      = (1 << 28) - 1
	rBias      = 1 << 27
	resMaskRaw = 0xF
)

// InvalidCell is the zero, invalid cell index.
const InvalidCell Cell = 0

// resSpec holds the derived constants of one resolution.
type resSpec struct {
	size  float64 // hexagon circumradius in projected metres
	ncols int64   // exact east-west column period (even)
	areaM float64 // exact cell area in m² (planar = spherical)
}

var specs [MaxResolution + 1]resSpec

func init() {
	w := geo.ProjectionWidth()
	for res := 0; res <= MaxResolution; res++ {
		target := float64(NumCells(res))
		areaTarget := 4 * math.Pi * geo.EarthRadiusMeters * geo.EarthRadiusMeters / target
		// Flat-top hexagon with circumradius s has area (3√3/2)·s² and
		// horizontal column spacing 1.5·s.
		s := math.Sqrt(2 * areaTarget / (3 * math.Sqrt(3)))
		ncols := int64(math.Round(w / (1.5 * s)))
		if ncols < 4 {
			ncols = 4
		}
		if ncols%2 != 0 {
			ncols++
		}
		s = w / (1.5 * float64(ncols))
		specs[res] = resSpec{
			size:  s,
			ncols: ncols,
			areaM: 3 * math.Sqrt(3) / 2 * s * s,
		}
	}
}

// NumCells returns the nominal number of cells of the grid at a resolution
// (the H3 cell count 120·7^r + 2 the grid is calibrated against). It returns
// 0 for resolutions outside 0..MaxResolution.
func NumCells(res int) int64 {
	if res < 0 || res > MaxResolution {
		return 0
	}
	n := int64(120)
	for i := 0; i < res; i++ {
		n *= 7
	}
	return n + 2
}

// AvgCellAreaKm2 returns the exact area in km² of a cell at the given
// resolution. All whole cells at one resolution have identical area because
// the underlying projection is equal-area.
func AvgCellAreaKm2(res int) float64 {
	if res < 0 || res > MaxResolution {
		return 0
	}
	return specs[res].areaM / 1e6
}

// EdgeLengthKm returns the hexagon edge length (equal to the circumradius)
// at the given resolution in projected kilometres.
func EdgeLengthKm(res int) float64 {
	if res < 0 || res > MaxResolution {
		return 0
	}
	return specs[res].size / 1e3
}

// newCell assembles a cell from a resolution and canonical axial
// coordinates. It panics if the coordinates fall outside the encodable
// range, which cannot happen for coordinates produced by canonicalization.
func newCell(res int, q, r int64) Cell {
	if q < 0 || q > qMask {
		panic(fmt.Sprintf("hexgrid: q %d out of range at res %d", q, res))
	}
	rb := r + rBias
	if rb < 0 || rb > rMask {
		panic(fmt.Sprintf("hexgrid: r %d out of range at res %d", r, res))
	}
	return Cell(uint64(res)<<resShift | validBit |
		uint64(q)<<qShift | uint64(rb))
}

// Valid reports whether c is a well-formed cell index.
func (c Cell) Valid() bool {
	if c&validBit == 0 {
		return false
	}
	if uint64(c)>>62 != 0 {
		return false
	}
	res := c.Resolution()
	if res < 0 || res > MaxResolution {
		return false
	}
	q, _ := c.axial()
	return q < specs[res].ncols
}

// Resolution returns the grid resolution of the cell, 0..15.
func (c Cell) Resolution() int {
	return int(uint64(c) >> resShift & resMaskRaw)
}

// axial returns the canonical axial coordinates of the cell.
func (c Cell) axial() (q, r int64) {
	q = int64(uint64(c) >> qShift & qMask)
	r = int64(uint64(c)&rMask) - rBias
	return q, r
}

// canonicalize wraps axial coordinates into the fundamental domain
// 0 <= q < ncols, applying the exact periodicity (q, r) ≡ (q+n, r−n/2).
func canonicalize(res int, q, r int64) (int64, int64) {
	n := specs[res].ncols
	k := q / n
	if q < 0 && q%n != 0 {
		k--
	}
	return q - k*n, r + k*n/2
}

// String renders the cell as a 16-digit hexadecimal string, like H3's
// canonical string form. Invalid cells render as "<invalid>".
func (c Cell) String() string {
	var b [16]byte
	return string(c.AppendString(b[:0]))
}

// AppendString appends the String form to b; the API's JSON spells ids so.
func (c Cell) AppendString(b []byte) []byte {
	if c == InvalidCell {
		return append(b, "<invalid>"...)
	}
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[uint64(c)>>shift&0xF])
	}
	return b
}

// ParseCell parses the hexadecimal string form produced by Cell.String. It
// returns an error if the string is not a valid cell index.
func ParseCell(s string) (Cell, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return InvalidCell, fmt.Errorf("hexgrid: parse cell %q: %w", s, err)
	}
	c := Cell(v)
	if !c.Valid() {
		return InvalidCell, fmt.Errorf("hexgrid: %q is not a valid cell index", s)
	}
	return c, nil
}

// LatLngToCell returns the cell containing the given coordinate at the given
// resolution. It returns InvalidCell if the coordinate or resolution is out
// of range.
func LatLngToCell(p geo.LatLng, res int) Cell {
	if res < 0 || res > MaxResolution || !p.Valid() {
		return InvalidCell
	}
	p = p.Normalize()
	pr := geo.ProjectEqualArea(p)
	s := specs[res].size
	// Fractional axial coordinates for flat-top hexagons.
	qf := 2.0 / 3.0 * pr.X / s
	rf := (-1.0/3.0*pr.X + math.Sqrt(3)/3*pr.Y) / s
	q, r := roundAxial(qf, rf)
	q, r = canonicalize(res, q, r)
	return newCell(res, q, r)
}

// roundAxial rounds fractional axial coordinates to the nearest hexagon
// using cube-coordinate rounding.
func roundAxial(qf, rf float64) (int64, int64) {
	sf := -qf - rf
	q := math.Round(qf)
	r := math.Round(rf)
	s := math.Round(sf)
	dq := math.Abs(q - qf)
	dr := math.Abs(r - rf)
	ds := math.Abs(s - sf)
	switch {
	case dq > dr && dq > ds:
		q = -r - s
	case dr > ds:
		r = -q - s
	}
	return int64(q), int64(r)
}

// centerXY returns the projected-plane center of the cell.
func (c Cell) centerXY() (x, y float64) {
	res := c.Resolution()
	q, r := c.axial()
	s := specs[res].size
	x = s * 1.5 * float64(q)
	y = s * math.Sqrt(3) * (float64(r) + float64(q)/2)
	// Shift the canonical strip [0, W) back to [-W/2, W/2).
	w := geo.ProjectionWidth()
	if x >= w/2 {
		x -= w
	}
	return x, y
}

// LatLng returns the geographic center of the cell. Centers of cells that
// poke past the poles are clamped to the projection strip.
func (c Cell) LatLng() geo.LatLng {
	x, y := c.centerXY()
	return geo.UnprojectEqualArea(geo.Projected{X: x, Y: y})
}

// neighborOffsets lists the six axial neighbour offsets of a flat-top
// hexagon.
var neighborOffsets = [6][2]int64{
	{+1, 0}, {+1, -1}, {0, -1}, {-1, 0}, {-1, +1}, {0, +1},
}

// Neighbors returns the six adjacent cells, in a fixed order. Adjacency
// wraps across the antimeridian. Cells beyond the poles are still returned
// (they have clamped centers); callers filtering to observed cells are
// unaffected.
func (c Cell) Neighbors() [6]Cell {
	res := c.Resolution()
	q, r := c.axial()
	var out [6]Cell
	for i, off := range neighborOffsets {
		nq, nr := canonicalize(res, q+off[0], r+off[1])
		out[i] = newCell(res, nq, nr)
	}
	return out
}

// GridDisk returns all cells within grid distance k of the origin cell,
// including the origin itself. The result has 1+3k(k+1) cells.
func GridDisk(origin Cell, k int) []Cell {
	if !origin.Valid() || k < 0 {
		return nil
	}
	res := origin.Resolution()
	oq, or := origin.axial()
	out := make([]Cell, 0, 1+3*k*(k+1))
	for dq := int64(-k); dq <= int64(k); dq++ {
		lo := max64(int64(-k), -dq-int64(k))
		hi := min64(int64(k), -dq+int64(k))
		for dr := lo; dr <= hi; dr++ {
			q, r := canonicalize(res, oq+dq, or+dr)
			out = append(out, newCell(res, q, r))
		}
	}
	return out
}

// GridRing returns the cells at exactly grid distance k from origin. For
// k == 0 it returns just the origin.
func GridRing(origin Cell, k int) []Cell {
	if !origin.Valid() || k < 0 {
		return nil
	}
	if k == 0 {
		return []Cell{origin}
	}
	res := origin.Resolution()
	oq, or := origin.axial()
	out := make([]Cell, 0, 6*k)
	// Walk the ring: start k steps in direction 4 (-1,+1), then walk k steps
	// in each of the six directions.
	q, r := oq+int64(-k), or+int64(k)
	for dir := 0; dir < 6; dir++ {
		for step := 0; step < k; step++ {
			cq, cr := canonicalize(res, q, r)
			out = append(out, newCell(res, cq, cr))
			q += neighborOffsets[dir][0]
			r += neighborOffsets[dir][1]
		}
	}
	return out
}

// GridDistance returns the grid (hex) distance between two cells of the same
// resolution, taking the shorter way around the antimeridian. It returns -1
// if the cells have different resolutions or either is invalid.
func GridDistance(a, b Cell) int {
	if !a.Valid() || !b.Valid() || a.Resolution() != b.Resolution() {
		return -1
	}
	res := a.Resolution()
	n := specs[res].ncols
	aq, ar := a.axial()
	bq, br := b.axial()
	best := -1
	// The grid is periodic: measure direct and the two wrapped displacements.
	for _, shift := range [3]int64{0, -n, n} {
		dq := bq + shift - aq
		dr := br - shift/2 - ar
		d := hexDist(dq, dr)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

func hexDist(dq, dr int64) int {
	ds := -dq - dr
	return int((abs64(dq) + abs64(dr) + abs64(ds)) / 2)
}

// Parent returns the ancestor cell at the given coarser resolution (the cell
// at parentRes containing this cell's center). It returns InvalidCell if
// parentRes is finer than the cell's resolution or out of range.
func (c Cell) Parent(parentRes int) Cell {
	if !c.Valid() || parentRes < 0 || parentRes > c.Resolution() {
		return InvalidCell
	}
	if parentRes == c.Resolution() {
		return c
	}
	return LatLngToCell(c.LatLng(), parentRes)
}

// AreaKm2 returns the spherical area of the cell in km². Exact for all whole
// cells; polar cells clipped by the projection strip report their nominal
// area.
func (c Cell) AreaKm2() float64 {
	if !c.Valid() {
		return 0
	}
	return AvgCellAreaKm2(c.Resolution())
}

// CoverBBox returns every cell of the given resolution whose center lies in
// the bounding box, padded by one ring so the result is a superset covering
// of the box area. Intended for regional queries and geofence compilation;
// the box must not span the antimeridian.
func CoverBBox(b geo.BBox, res int) []Cell {
	if res < 0 || res > MaxResolution {
		return nil
	}
	seen := make(map[Cell]struct{})
	var out []Cell
	addWithRing := func(c Cell) {
		if _, ok := seen[c]; ok {
			return
		}
		seen[c] = struct{}{}
		out = append(out, c)
	}
	// Scan the box at half-cell steps in projected space so no center cell
	// is skipped, then pad with one neighbour ring.
	s := specs[res].size
	lo := geo.ProjectEqualArea(geo.LatLng{Lat: b.MinLat, Lng: b.MinLng})
	hi := geo.ProjectEqualArea(geo.LatLng{Lat: b.MaxLat, Lng: b.MaxLng})
	stepX := 0.75 * s
	stepY := math.Sqrt(3) / 2 * s
	var centers []Cell
	for y := lo.Y; ; y += stepY {
		if y > hi.Y {
			y = hi.Y
		}
		for x := lo.X; ; x += stepX {
			if x > hi.X {
				x = hi.X
			}
			c := LatLngToCell(geo.UnprojectEqualArea(geo.Projected{X: x, Y: y}), res)
			if c != InvalidCell {
				if _, ok := seen[c]; !ok {
					centers = append(centers, c)
					addWithRing(c)
				}
			}
			if x >= hi.X {
				break
			}
		}
		if y >= hi.Y {
			break
		}
	}
	for _, c := range centers {
		for _, n := range c.Neighbors() {
			addWithRing(n)
		}
	}
	return out
}

// CoverPolygon returns a superset covering of the polygon at the given
// resolution: all cells whose center lies inside the polygon, plus one
// neighbour ring of padding, so every point of the polygon falls in some
// returned cell.
func CoverPolygon(poly geo.Polygon, res int) []Cell {
	if len(poly) < 3 {
		return nil
	}
	box := CoverBBox(poly.BoundingBox(), res)
	seen := make(map[Cell]struct{})
	var out []Cell
	add := func(c Cell) {
		if _, ok := seen[c]; !ok {
			seen[c] = struct{}{}
			out = append(out, c)
		}
	}
	for _, c := range box {
		if poly.Contains(c.LatLng()) {
			add(c)
			for _, n := range c.Neighbors() {
				add(n)
			}
		}
	}
	// Guarantee non-emptiness for polygons smaller than a cell.
	c := LatLngToCell(poly.Centroid(), res)
	if c != InvalidCell {
		add(c)
		for _, n := range c.Neighbors() {
			add(n)
		}
	}
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
