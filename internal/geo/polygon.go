package geo

import "math"

// Polygon is a simple closed ring of geographic vertices. The ring is
// implicitly closed: the last vertex connects back to the first. Vertex order
// may be clockwise or counter-clockwise. Polygons are assumed to be small
// enough (port geofences, regional areas) that planar containment in
// longitude/latitude space is accurate; rings must not cross the
// antimeridian unless constructed via CirclePolygon, which normalizes them.
type Polygon []LatLng

// Contains reports whether p lies inside the polygon using the even-odd
// (ray-casting) rule in lat/lng space. Points exactly on an edge may be
// classified either way.
func (poly Polygon) Contains(p LatLng) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		yi, xi := poly[i].Lat, poly[i].Lng
		yj, xj := poly[j].Lat, poly[j].Lng
		if (yi > p.Lat) != (yj > p.Lat) &&
			p.Lng < (xj-xi)*(p.Lat-yi)/(yj-yi)+xi {
			inside = !inside
		}
		j = i
	}
	return inside
}

// BoundingBox returns the axis-aligned bounds of the polygon. It returns the
// zero box for an empty polygon.
func (poly Polygon) BoundingBox() BBox {
	if len(poly) == 0 {
		return BBox{}
	}
	b := BBox{MinLat: 90, MaxLat: -90, MinLng: 180, MaxLng: -180}
	for _, v := range poly {
		b.MinLat = math.Min(b.MinLat, v.Lat)
		b.MaxLat = math.Max(b.MaxLat, v.Lat)
		b.MinLng = math.Min(b.MinLng, v.Lng)
		b.MaxLng = math.Max(b.MaxLng, v.Lng)
	}
	return b
}

// Centroid returns the arithmetic mean of the polygon vertices — adequate
// for the small convex geofences used in this system.
func (poly Polygon) Centroid() LatLng {
	if len(poly) == 0 {
		return LatLng{}
	}
	var lat, lng float64
	for _, v := range poly {
		lat += v.Lat
		lng += v.Lng
	}
	n := float64(len(poly))
	return LatLng{Lat: lat / n, Lng: lng / n}
}

// CirclePolygon approximates a geodesic circle of the given radius (metres)
// around center with segments vertices. At least 3 segments are used.
func CirclePolygon(center LatLng, radiusM float64, segments int) Polygon {
	if segments < 3 {
		segments = 3
	}
	poly := make(Polygon, segments)
	for i := 0; i < segments; i++ {
		bearing := float64(i) / float64(segments) * 360
		poly[i] = Destination(center, bearing, radiusM)
	}
	return poly
}

// SegmentsIntersect reports whether the closed segments a1-a2 and b1-b2
// intersect, treating coordinates as planar (adequate for the regional
// scales it is used at; segments must not span the antimeridian).
func SegmentsIntersect(a1, a2, b1, b2 LatLng) bool {
	d := func(p, q, r LatLng) float64 {
		return (q.Lng-p.Lng)*(r.Lat-p.Lat) - (q.Lat-p.Lat)*(r.Lng-p.Lng)
	}
	onSeg := func(p, q, r LatLng) bool {
		return math.Min(p.Lng, q.Lng) <= r.Lng && r.Lng <= math.Max(p.Lng, q.Lng) &&
			math.Min(p.Lat, q.Lat) <= r.Lat && r.Lat <= math.Max(p.Lat, q.Lat)
	}
	d1 := d(b1, b2, a1)
	d2 := d(b1, b2, a2)
	d3 := d(a1, a2, b1)
	d4 := d(a1, a2, b2)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSeg(b1, b2, a1):
		return true
	case d2 == 0 && onSeg(b1, b2, a2):
		return true
	case d3 == 0 && onSeg(a1, a2, b1):
		return true
	case d4 == 0 && onSeg(a1, a2, b2):
		return true
	}
	return false
}

// BBox is an axis-aligned geographic bounding box. Boxes never span the
// antimeridian: MinLng <= MaxLng.
type BBox struct {
	MinLat, MinLng, MaxLat, MaxLng float64
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p LatLng) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lng >= b.MinLng && p.Lng <= b.MaxLng
}
