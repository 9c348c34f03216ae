package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	cases := []struct {
		name string
		a, b LatLng
		want float64 // metres
		tol  float64
	}{
		{"same point", LatLng{10, 20}, LatLng{10, 20}, 0, 0.001},
		{"one degree of latitude", LatLng{0, 0}, LatLng{1, 0}, 111195, 50},
		{"one degree of longitude at equator", LatLng{0, 0}, LatLng{0, 1}, 111195, 50},
		{"quarter circumference", LatLng{0, 0}, LatLng{0, 90}, math.Pi / 2 * EarthRadiusMeters, 1},
		{"antipodal", LatLng{0, 0}, LatLng{0, 180}, math.Pi * EarthRadiusMeters, 1},
		{"rotterdam to singapore", LatLng{51.95, 4.14}, LatLng{1.264, 103.84}, 10500e3, 150e3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			approx(t, Haversine(c.a, c.b), c.want, c.tol, "haversine")
		})
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2 float64) bool {
		a := LatLng{Lat: math.Mod(lat1, 90), Lng: math.Mod(lng1, 180)}
		b := LatLng{Lat: math.Mod(lat2, 90), Lng: math.Mod(lng2, 180)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2, lat3, lng3 float64) bool {
		a := LatLng{Lat: math.Mod(lat1, 90), Lng: math.Mod(lng1, 180)}
		b := LatLng{Lat: math.Mod(lat2, 90), Lng: math.Mod(lng2, 180)}
		c := LatLng{Lat: math.Mod(lat3, 90), Lng: math.Mod(lng3, 180)}
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInitialBearingCardinal(t *testing.T) {
	origin := LatLng{0, 0}
	approx(t, InitialBearing(origin, LatLng{10, 0}), 0, 1e-9, "north")
	approx(t, InitialBearing(origin, LatLng{0, 10}), 90, 1e-9, "east")
	approx(t, InitialBearing(origin, LatLng{-10, 0}), 180, 1e-9, "south")
	approx(t, InitialBearing(origin, LatLng{0, -10}), 270, 1e-9, "west")
	approx(t, InitialBearing(origin, origin), 0, 0, "self")
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(lat, lng, bearing, distKm float64) bool {
		origin := LatLng{Lat: math.Mod(lat, 60), Lng: math.Mod(lng, 180)}
		bearing = NormalizeAngle(bearing)
		dist := math.Abs(math.Mod(distKm, 2000)) * 1000
		dest := Destination(origin, bearing, dist)
		// Distance from origin to destination must equal the requested distance.
		return math.Abs(Haversine(origin, dest)-dist) < 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestinationBearingConsistency(t *testing.T) {
	origin := LatLng{40, -30}
	for _, bearing := range []float64{0, 45, 90, 135, 225, 310} {
		dest := Destination(origin, bearing, 50000)
		got := InitialBearing(origin, dest)
		approx(t, got, bearing, 0.01, "bearing round trip")
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	a := LatLng{10, 20}
	b := LatLng{-5, 60}
	if Interpolate(a, b, 0) != a {
		t.Error("f=0 should return a")
	}
	if Interpolate(a, b, 1) != b {
		t.Error("f=1 should return b")
	}
	mid := Interpolate(a, b, 0.5)
	approx(t, Haversine(a, mid), Haversine(mid, b), 1e-3, "midpoint equidistant")
}

func TestInterpolateLiesOnGreatCircle(t *testing.T) {
	a := LatLng{51.95, 4.14}
	b := LatLng{40.68, -74.01}
	total := Haversine(a, b)
	prev := a
	var sum float64
	for i := 1; i <= 10; i++ {
		p := Interpolate(a, b, float64(i)/10)
		sum += Haversine(prev, p)
		prev = p
	}
	approx(t, sum, total, 1.0, "chord sum equals great-circle length")
}

func TestNormalizeLng(t *testing.T) {
	cases := map[float64]float64{
		0: 0, 180: -180, -180: -180, 190: -170, -190: 170, 360: 0, 540: -180, 725: 5,
	}
	for in, want := range cases {
		approx(t, NormalizeLng(in), want, 1e-12, "normalize lng")
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := map[float64]float64{0: 0, 360: 0, -90: 270, 450: 90, -720: 0, 359.5: 359.5}
	for in, want := range cases {
		approx(t, NormalizeAngle(in), want, 1e-12, "normalize angle")
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0, 0, 0}, {0, 180, 180}, {10, 350, 20}, {350, 10, 20}, {90, 270, 180}, {45, 46, 1},
	}
	for _, c := range cases {
		approx(t, AngleDiff(c.a, c.b), c.want, 1e-9, "angle diff")
	}
}

func TestSpeedKnots(t *testing.T) {
	a := LatLng{0, 0}
	b := Destination(a, 90, 10*MetersPerNauticalMile)
	approx(t, SpeedKnots(a, b, 3600), 10, 0.001, "10 NM in 1 hour")
	if v := SpeedKnots(a, a, 0); v != 0 {
		t.Errorf("zero distance should be 0 knots, got %v", v)
	}
	if v := SpeedKnots(a, b, 0); !math.IsInf(v, 1) {
		t.Errorf("nonzero distance in zero time should be +Inf, got %v", v)
	}
}

func TestValidLatLng(t *testing.T) {
	valid := []LatLng{{0, 0}, {90, 180}, {-90, -180}, {45.5, -122.6}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []LatLng{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	f := func(lat, lng float64) bool {
		p := LatLng{Lat: math.Mod(lat, 89.9), Lng: math.Mod(lng, 179.9)}
		q := UnprojectEqualArea(ProjectEqualArea(p))
		return math.Abs(q.Lat-p.Lat) < 1e-9 && math.Abs(q.Lng-p.Lng) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectionIsEqualArea(t *testing.T) {
	// The Jacobian of the Lambert cylindrical equal-area projection is
	// constant: small lat/lng rectangles anywhere map to planar rectangles of
	// area R²·cosφ·dφ·dλ — the same as their spherical area.
	for _, lat := range []float64{0, 30, 60, 80} {
		d := 0.01 // degrees
		p00 := ProjectEqualArea(LatLng{lat, 0})
		p10 := ProjectEqualArea(LatLng{lat + d, 0})
		p01 := ProjectEqualArea(LatLng{lat, d})
		planar := math.Abs(p10.Y-p00.Y) * math.Abs(p01.X-p00.X)
		spherical := EarthRadiusMeters * EarthRadiusMeters *
			math.Cos((lat+d/2)*math.Pi/180) * (d * math.Pi / 180) * (d * math.Pi / 180)
		if math.Abs(planar-spherical)/spherical > 1e-4 {
			t.Errorf("lat %v: planar area %v, spherical %v", lat, planar, spherical)
		}
	}
}

func TestProjectionExtents(t *testing.T) {
	approx(t, ProjectionWidth(), 2*math.Pi*EarthRadiusMeters, 1e-6, "width")
	top := ProjectEqualArea(LatLng{90, 0})
	approx(t, top.Y, EarthRadiusMeters, 1e-3, "north pole Y")
}

func TestPolygonContains(t *testing.T) {
	square := Polygon{{0, 0}, {0, 10}, {10, 10}, {10, 0}}
	inside := []LatLng{{5, 5}, {1, 1}, {9, 9}}
	for _, p := range inside {
		if !square.Contains(p) {
			t.Errorf("%v should be inside", p)
		}
	}
	outside := []LatLng{{-1, 5}, {11, 5}, {5, -1}, {5, 11}, {20, 20}}
	for _, p := range outside {
		if square.Contains(p) {
			t.Errorf("%v should be outside", p)
		}
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	// L-shaped polygon: the notch must be outside.
	l := Polygon{{0, 0}, {0, 10}, {5, 10}, {5, 5}, {10, 5}, {10, 0}}
	if !l.Contains(LatLng{2, 2}) {
		t.Error("(2,2) should be inside the L")
	}
	if l.Contains(LatLng{8, 8}) {
		t.Error("(8,8) is in the notch and should be outside")
	}
}

func TestPolygonDegenerate(t *testing.T) {
	if (Polygon{}).Contains(LatLng{0, 0}) {
		t.Error("empty polygon contains nothing")
	}
	if (Polygon{{0, 0}, {1, 1}}).Contains(LatLng{0.5, 0.5}) {
		t.Error("two-vertex polygon contains nothing")
	}
}

func TestCirclePolygon(t *testing.T) {
	center := LatLng{30, -40}
	circle := CirclePolygon(center, 10000, 24)
	if len(circle) != 24 {
		t.Fatalf("want 24 vertices, got %d", len(circle))
	}
	for _, v := range circle {
		approx(t, Haversine(center, v), 10000, 1, "circle vertex radius")
	}
	if !circle.Contains(center) {
		t.Error("circle must contain its center")
	}
	if circle.Contains(Destination(center, 45, 20000)) {
		t.Error("point at 2x radius must be outside")
	}
	inside := Destination(center, 200, 5000)
	if !circle.Contains(inside) {
		t.Error("point at half radius must be inside")
	}
}

func TestCirclePolygonMinSegments(t *testing.T) {
	if got := len(CirclePolygon(LatLng{0, 0}, 100, 1)); got != 3 {
		t.Errorf("minimum segments should be 3, got %d", got)
	}
}

func TestPolygonBoundingBox(t *testing.T) {
	poly := Polygon{{1, 2}, {5, -3}, {-2, 7}}
	b := poly.BoundingBox()
	want := BBox{MinLat: -2, MinLng: -3, MaxLat: 5, MaxLng: 7}
	if b != want {
		t.Errorf("got %+v, want %+v", b, want)
	}
	if (Polygon{}).BoundingBox() != (BBox{}) {
		t.Error("empty polygon should give zero box")
	}
}

func TestBBox(t *testing.T) {
	b := BBox{MinLat: 53, MinLng: 9, MaxLat: 66, MaxLng: 31} // Baltic box from Fig. 4
	if !b.Contains(LatLng{59, 20}) {
		t.Error("Baltic point should be inside")
	}
	if b.Contains(LatLng{50, 20}) || b.Contains(LatLng{59, 40}) {
		t.Error("outside points misclassified")
	}
}

func TestPolygonCentroid(t *testing.T) {
	sq := Polygon{{0, 0}, {0, 10}, {10, 10}, {10, 0}}
	c := sq.Centroid()
	approx(t, c.Lat, 5, 1e-9, "centroid lat")
	approx(t, c.Lng, 5, 1e-9, "centroid lng")
	if (Polygon{}).Centroid() != (LatLng{}) {
		t.Error("empty polygon centroid should be zero")
	}
}

func BenchmarkHaversine(b *testing.B) {
	a := LatLng{51.95, 4.14}
	c := LatLng{1.264, 103.84}
	for i := 0; i < b.N; i++ {
		Haversine(a, c)
	}
}

func BenchmarkProjectEqualArea(b *testing.B) {
	p := LatLng{51.95, 4.14}
	for i := 0; i < b.N; i++ {
		ProjectEqualArea(p)
	}
}

func BenchmarkPolygonContains(b *testing.B) {
	circle := CirclePolygon(LatLng{30, -40}, 10000, 32)
	p := LatLng{30.05, -40.02}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circle.Contains(p)
	}
}
