package geo

import "math"

// Projected is a point in the Lambert cylindrical equal-area plane, in
// metres. X spans [-π·R, π·R) west to east; Y spans [-R, R] south to north.
type Projected struct {
	X, Y float64
}

// ProjectEqualArea maps a geographic coordinate to the Lambert cylindrical
// equal-area plane (standard parallel at the equator). The projection is
// exactly area-preserving, which is what makes the hexagonal grid built on it
// an equal-area grid.
func ProjectEqualArea(p LatLng) Projected {
	return Projected{
		X: EarthRadiusMeters * p.Lng * degToRad,
		Y: EarthRadiusMeters * math.Sin(p.Lat*degToRad),
	}
}

// UnprojectEqualArea inverts ProjectEqualArea. Y values outside [-R, R] are
// clamped to the poles; X values outside the [-π·R, π·R) strip are wrapped.
func UnprojectEqualArea(q Projected) LatLng {
	sinφ := clamp(q.Y/EarthRadiusMeters, -1, 1)
	return LatLng{
		Lat: math.Asin(sinφ) * radToDeg,
		Lng: NormalizeLng(q.X / EarthRadiusMeters * radToDeg),
	}
}

// ProjectionWidth returns the east-west extent of the equal-area plane in
// metres (the length of the equator).
func ProjectionWidth() float64 { return 2 * math.Pi * EarthRadiusMeters }
