package baseline

import (
	"fmt"
	"math"
	"sort"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
)

// ConvexHull returns the convex hull of the points (Andrew's monotone
// chain) in lat/lng space, counter-clockwise without repeating the first
// vertex. Degenerate inputs return what they can (points or segments).
func ConvexHull(points []geo.LatLng) geo.Polygon {
	n := len(points)
	if n < 3 {
		out := make(geo.Polygon, n)
		copy(out, points)
		return out
	}
	pts := make([]geo.LatLng, n)
	copy(pts, points)
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Lng != pts[j].Lng {
			return pts[i].Lng < pts[j].Lng
		}
		return pts[i].Lat < pts[j].Lat
	})
	cross := func(o, a, b geo.LatLng) float64 {
		return (a.Lng-o.Lng)*(b.Lat-o.Lat) - (a.Lat-o.Lat)*(b.Lng-o.Lng)
	}
	var hull []geo.LatLng
	// Lower hull.
	for _, p := range pts {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := pts[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return geo.Polygon(hull[:len(hull)-1])
}

// RouteModel is the convex-hull route representation of the authors' prior
// distributed method (§2, [32]): per (origin, destination, vessel-type)
// journey key, trip positions are k-means clustered and the route is the
// ordered set of cluster hulls.
type RouteModel struct {
	routes map[routeKey][]geo.Polygon
	// Vertices counts total hull vertices — the model-size metric compared
	// against the inventory's cell count.
	Vertices int
	// BufferM buffers the hull boundary: a point within BufferM of any
	// hull vertex also counts as covered (route envelopes are buffered in
	// practice; cluster hulls along a thin lane are slivers whose exact
	// boundary excludes half the training points). Default 15 km.
	BufferM float64
}

type routeKey struct {
	origin, dest model.PortID
	vtype        model.VesselType
}

// TripPoints is the input of the route model builder: all at-sea positions
// of the trips sharing one journey key.
type TripPoints struct {
	Origin model.PortID
	Dest   model.PortID
	VType  model.VesselType
	Points []geo.LatLng
}

// BuildRouteModel clusters every journey's points into ~clustersPer100km
// clusters per 100 km of journey extent (minimum 2) and stores the hulls.
func BuildRouteModel(trips []TripPoints, clustersPer100km float64) *RouteModel {
	if clustersPer100km <= 0 {
		clustersPer100km = 1
	}
	m := &RouteModel{routes: make(map[routeKey][]geo.Polygon), BufferM: 15e3}
	for _, t := range trips {
		if len(t.Points) < 4 {
			continue
		}
		key := routeKey{t.Origin, t.Dest, t.VType}
		if _, dup := m.routes[key]; dup {
			continue // one model per key; later trips of the key are folded in training
		}
		extentKm := geo.Haversine(t.Points[0], t.Points[len(t.Points)-1]) / 1000
		k := int(extentKm / 100 * clustersPer100km)
		if k < 2 {
			k = 2
		}
		if k > len(t.Points)/2 {
			k = len(t.Points) / 2
		}
		assign, _ := KMeans(t.Points, k, 30)
		groups := make([][]geo.LatLng, k)
		for i, c := range assign {
			groups[c] = append(groups[c], t.Points[i])
		}
		var hulls []geo.Polygon
		for _, g := range groups {
			if len(g) == 0 {
				continue
			}
			h := ConvexHull(g)
			hulls = append(hulls, h)
			m.Vertices += len(h)
		}
		m.routes[key] = hulls
	}
	return m
}

// Routes returns the number of modelled journey keys.
func (m *RouteModel) Routes() int { return len(m.routes) }

// Covers reports whether the position lies inside any hull of the journey
// key's route — the baseline's notion of "on the expected route".
func (m *RouteModel) Covers(origin, dest model.PortID, vt model.VesselType, p geo.LatLng) bool {
	hulls, ok := m.routes[routeKey{origin, dest, vt}]
	if !ok {
		return false
	}
	// No vertex farther than BufferM along the meridian lies within BufferM
	// on the sphere; the band is a hair wide so rounding only admits more.
	band := m.BufferM / geo.EarthRadiusMeters * 180 / math.Pi * 1.001
	for _, h := range hulls {
		if len(h) >= 3 && h.Contains(p) {
			return true
		}
		for _, v := range h {
			if math.Abs(v.Lat-p.Lat) <= band && geo.Haversine(v, p) <= m.BufferM {
				return true
			}
		}
	}
	return false
}

// Describe returns a one-line summary for reports.
func (m *RouteModel) Describe() string {
	return fmt.Sprintf("%d routes, %d hull vertices", m.Routes(), m.Vertices)
}
