// Package ports provides the port gazetteer and geofencing used for trip
// semantics extraction (§3.3.2 of the paper). The paper relies on an
// external database of ~20k ports; this package embeds a gazetteer of the
// world's major commercial ports (the ones a simulated fleet calls at) and
// can generate synthetic ports for tests.
//
// Geofencing follows the paper: each port has a geofence geometry (here a
// geodesic circle sized by port class); an Index compiles all geofences
// into a hexgrid cell → candidate-port map so that the per-record
// "inside any port?" test is one cell lookup plus at most a few distance
// checks.
package ports

import (
	"fmt"
	"strings"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
)

// SizeClass groups ports by throughput, which drives voyage-generation
// weights and geofence radii.
type SizeClass uint8

// Port size classes.
const (
	SizeMedium SizeClass = iota
	SizeLarge
	SizeMega
)

// String returns the class label.
func (s SizeClass) String() string {
	switch s {
	case SizeMega:
		return "mega"
	case SizeLarge:
		return "large"
	default:
		return "medium"
	}
}

// Weight returns the voyage-generation weight of the class.
func (s SizeClass) Weight() float64 {
	switch s {
	case SizeMega:
		return 10
	case SizeLarge:
		return 4
	default:
		return 1.5
	}
}

// FenceRadiusM returns the geofence radius in metres for the class.
func (s SizeClass) FenceRadiusM() float64 {
	switch s {
	case SizeMega:
		return 16000
	case SizeLarge:
		return 11000
	default:
		return 7000
	}
}

// Port is one gazetteer entry.
type Port struct {
	ID      model.PortID
	Name    string
	Country string // ISO 3166-1 alpha-2
	Pos     geo.LatLng
	Size    SizeClass
}

// FenceRadiusM returns the port's geofence radius in metres.
func (p Port) FenceRadiusM() float64 { return p.Size.FenceRadiusM() }

// Fence returns the port's geofence polygon (a 24-gon approximating the
// geodesic circle).
func (p Port) Fence() geo.Polygon {
	return geo.CirclePolygon(p.Pos, p.FenceRadiusM(), 24)
}

// Contains reports whether the coordinate lies inside the port geofence.
func (p Port) Contains(q geo.LatLng) bool {
	return geo.Haversine(p.Pos, q) <= p.FenceRadiusM()
}

// String renders "Name (CC)".
func (p Port) String() string { return fmt.Sprintf("%s (%s)", p.Name, p.Country) }

// Gazetteer is an immutable set of ports with id and name lookups.
type Gazetteer struct {
	ports  []Port // index = id-1
	byName map[string]model.PortID
}

// New builds a gazetteer from a port list, assigning sequential IDs
// starting at 1 (0 is reserved for "no port").
func New(entries []Port) *Gazetteer {
	g := &Gazetteer{
		ports:  make([]Port, len(entries)),
		byName: make(map[string]model.PortID, len(entries)),
	}
	for i, p := range entries {
		p.ID = model.PortID(i + 1)
		g.ports[i] = p
		g.byName[strings.ToLower(p.Name)] = p.ID
	}
	return g
}

// Default returns the embedded gazetteer of major world ports.
func Default() *Gazetteer { return New(worldPorts()) }

// Len returns the number of ports.
func (g *Gazetteer) Len() int { return len(g.ports) }

// All returns all ports ordered by ID.
func (g *Gazetteer) All() []Port {
	out := make([]Port, len(g.ports))
	copy(out, g.ports)
	return out
}

// ByID returns the port with the given id, and whether it exists.
func (g *Gazetteer) ByID(id model.PortID) (Port, bool) {
	if id == model.NoPort || int(id) > len(g.ports) {
		return Port{}, false
	}
	return g.ports[id-1], true
}

// Name returns the name of the port with the given id, or "port-<id>"
// for an id the gazetteer does not hold.
func (g *Gazetteer) Name(id model.PortID) string {
	if p, ok := g.ByID(id); ok {
		return p.Name
	}
	return fmt.Sprintf("port-%d", id)
}

// ByName returns the port with the given name (case-insensitive).
func (g *Gazetteer) ByName(name string) (Port, bool) {
	id, ok := g.byName[strings.ToLower(name)]
	if !ok {
		return Port{}, false
	}
	return g.ports[id-1], true
}

// Nearest returns the port closest to p and its distance in metres. It
// returns false if the gazetteer is empty.
func (g *Gazetteer) Nearest(p geo.LatLng) (Port, float64, bool) {
	if len(g.ports) == 0 {
		return Port{}, 0, false
	}
	best := g.ports[0]
	bestD := geo.Haversine(p, best.Pos)
	for _, port := range g.ports[1:] {
		if d := geo.Haversine(p, port.Pos); d < bestD {
			best, bestD = port, d
		}
	}
	return best, bestD, true
}

// Index is a compiled geofence index: a hexgrid covering of every port
// fence at a fixed resolution, mapping cells to candidate ports. Lookups
// cost one map access plus a distance check per candidate (ports rarely
// overlap).
type Index struct {
	gaz   *Gazetteer
	res   int
	cells map[hexgrid.Cell][]model.PortID
}

// IndexResolution is the default geofence index resolution. Resolution 6
// cells (~36 km², ~3.7 km circumradius) are smaller than every fence
// radius, keeping candidate lists short.
const IndexResolution = 6

// NewIndex compiles the gazetteer's geofences at the given hexgrid
// resolution.
func NewIndex(g *Gazetteer, res int) *Index {
	idx := &Index{gaz: g, res: res, cells: make(map[hexgrid.Cell][]model.PortID)}
	for _, p := range g.ports {
		for _, c := range hexgrid.CoverPolygon(p.Fence(), res) {
			idx.cells[c] = append(idx.cells[c], p.ID)
		}
	}
	return idx
}

// PortAt returns the port whose geofence contains p, or (NoPort, false).
// When fences overlap, the nearest port center wins.
func (idx *Index) PortAt(p geo.LatLng) (model.PortID, bool) {
	cell := hexgrid.LatLngToCell(p, idx.res)
	candidates, ok := idx.cells[cell]
	if !ok {
		return model.NoPort, false
	}
	best := model.NoPort
	bestD := 0.0
	for _, id := range candidates {
		port := idx.gaz.ports[id-1]
		d := geo.Haversine(p, port.Pos)
		if d <= port.FenceRadiusM() && (best == model.NoPort || d < bestD) {
			best, bestD = id, d
		}
	}
	return best, best != model.NoPort
}
