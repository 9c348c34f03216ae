// Package geo provides spherical geodesy primitives on the WGS-84 mean
// sphere: great-circle distances and bearings, destination points,
// interpolation along great circles, cross-track distances, simple polygon
// containment, and the Lambert cylindrical equal-area projection used by the
// hexagonal grid.
//
// All public functions take and return coordinates in decimal degrees and
// distances in metres unless stated otherwise. Angles follow nautical
// convention: bearings and courses are measured clockwise from true north in
// [0, 360).
package geo

import "math"

const (
	// EarthRadiusMeters is the mean radius of the WGS-84 ellipsoid.
	EarthRadiusMeters = 6371008.8

	// EarthSurfaceAreaKm2 is the surface area of the mean sphere in km².
	EarthSurfaceAreaKm2 = 4 * math.Pi * (EarthRadiusMeters / 1000) * (EarthRadiusMeters / 1000)

	// MetersPerNauticalMile converts nautical miles to metres.
	MetersPerNauticalMile = 1852.0

	degToRad = math.Pi / 180
	radToDeg = 180 / math.Pi
)

// LatLng is a geographic coordinate in decimal degrees.
type LatLng struct {
	Lat float64 // latitude, positive north, [-90, 90]
	Lng float64 // longitude, positive east, [-180, 180)
}

// Valid reports whether the coordinate lies within the legal geographic
// range. Longitude 180 is accepted and treated as -180.
func (p LatLng) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lng)
}

// Normalize returns the coordinate with longitude wrapped into [-180, 180)
// and latitude clamped to [-90, 90].
func (p LatLng) Normalize() LatLng {
	return LatLng{Lat: clamp(p.Lat, -90, 90), Lng: NormalizeLng(p.Lng)}
}

// NormalizeLng wraps a longitude in degrees into [-180, 180).
func NormalizeLng(lng float64) float64 {
	lng = math.Mod(lng+180, 360)
	if lng < 0 {
		lng += 360
	}
	return lng - 180
}

// NormalizeAngle wraps an angle in degrees into [0, 360).
func NormalizeAngle(deg float64) float64 {
	deg = math.Mod(deg, 360)
	if deg < 0 {
		deg += 360
	}
	return deg
}

// AngleDiff returns the smallest absolute difference between two angles in
// degrees, in [0, 180].
func AngleDiff(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > 180 {
		d = 360 - d
	}
	return d
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Haversine returns the great-circle distance between two points in metres.
func Haversine(a, b LatLng) float64 {
	φ1 := a.Lat * degToRad
	φ2 := b.Lat * degToRad
	dφ := (b.Lat - a.Lat) * degToRad
	dλ := (b.Lng - a.Lng) * degToRad
	s := math.Sin(dφ/2)*math.Sin(dφ/2) +
		math.Cos(φ1)*math.Cos(φ2)*math.Sin(dλ/2)*math.Sin(dλ/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// InitialBearing returns the initial great-circle bearing from a to b in
// degrees clockwise from true north, in [0, 360). The bearing from a point to
// itself is 0.
func InitialBearing(a, b LatLng) float64 {
	φ1 := a.Lat * degToRad
	φ2 := b.Lat * degToRad
	dλ := (b.Lng - a.Lng) * degToRad
	y := math.Sin(dλ) * math.Cos(φ2)
	x := math.Cos(φ1)*math.Sin(φ2) - math.Sin(φ1)*math.Cos(φ2)*math.Cos(dλ)
	if x == 0 && y == 0 {
		return 0
	}
	return NormalizeAngle(math.Atan2(y, x) * radToDeg)
}

// Destination returns the point reached by travelling distanceM metres from
// origin along the given initial bearing (degrees from true north).
func Destination(origin LatLng, bearingDeg, distanceM float64) LatLng {
	δ := distanceM / EarthRadiusMeters
	θ := bearingDeg * degToRad
	φ1 := origin.Lat * degToRad
	λ1 := origin.Lng * degToRad
	sinφ2 := math.Sin(φ1)*math.Cos(δ) + math.Cos(φ1)*math.Sin(δ)*math.Cos(θ)
	φ2 := math.Asin(clamp(sinφ2, -1, 1))
	y := math.Sin(θ) * math.Sin(δ) * math.Cos(φ1)
	x := math.Cos(δ) - math.Sin(φ1)*sinφ2
	λ2 := λ1 + math.Atan2(y, x)
	return LatLng{Lat: φ2 * radToDeg, Lng: NormalizeLng(λ2 * radToDeg)}
}

// Interpolate returns the point at fraction f (0 = a, 1 = b) along the great
// circle from a to b. For antipodal points the route is undefined; the
// midpoint of such pairs is resolved arbitrarily but deterministically.
func Interpolate(a, b LatLng, f float64) LatLng {
	if f <= 0 {
		return a
	}
	if f >= 1 {
		return b
	}
	φ1, λ1 := a.Lat*degToRad, a.Lng*degToRad
	φ2, λ2 := b.Lat*degToRad, b.Lng*degToRad
	δ := Haversine(a, b) / EarthRadiusMeters
	if δ == 0 {
		return a
	}
	sinδ := math.Sin(δ)
	if sinδ == 0 {
		return a
	}
	A := math.Sin((1-f)*δ) / sinδ
	B := math.Sin(f*δ) / sinδ
	x := A*math.Cos(φ1)*math.Cos(λ1) + B*math.Cos(φ2)*math.Cos(λ2)
	y := A*math.Cos(φ1)*math.Sin(λ1) + B*math.Cos(φ2)*math.Sin(λ2)
	z := A*math.Sin(φ1) + B*math.Sin(φ2)
	φ := math.Atan2(z, math.Sqrt(x*x+y*y))
	λ := math.Atan2(y, x)
	return LatLng{Lat: φ * radToDeg, Lng: NormalizeLng(λ * radToDeg)}
}

// SpeedKnots returns the implied average speed in knots for covering the
// great-circle distance between a and b in dtSeconds. It returns +Inf when
// dtSeconds <= 0 and the points differ, and 0 when they coincide.
func SpeedKnots(a, b LatLng, dtSeconds float64) float64 {
	d := Haversine(a, b)
	if d == 0 {
		return 0
	}
	if dtSeconds <= 0 {
		return math.Inf(1)
	}
	return d / MetersPerNauticalMile / (dtSeconds / 3600)
}
