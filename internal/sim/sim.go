// Package sim generates a synthetic global AIS dataset — the substitute for
// the proprietary MarineTraffic/Kpler archive the paper processes (Table 1).
//
// The simulator builds a fleet of commercial vessels, schedules consecutive
// voyages between gazetteer ports (weighted by port size), sails each voyage
// along the global shipping-lane graph with a per-segment kinematic profile
// (harbour maneuvering, open-sea service speed, port dwell), and emits AIS
// positional reports on a class-A-like reporting schedule with satellite
// reception dropout. Optional noise injection produces the out-of-range and
// physically infeasible records the paper's cleaning stage (§3.3.1) must
// remove.
//
// Everything is deterministic given Config.Seed.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/weather"
)

// Config parameterizes a simulation run.
type Config struct {
	Vessels int       // fleet size (default 100)
	Start   time.Time // simulation start (default 2022-01-01 UTC)
	Days    int       // simulated duration (default 30)
	Seed    int64     // determinism seed

	// ReportInterval is the mean seconds between received AIS reports for a
	// vessel under way (default 180 — a satellite-reception-scale rate; the
	// raw class-A rate of 2-10 s would generate the paper's billions of rows).
	ReportInterval float64
	// DropoutRate is the fraction of reports lost to reception gaps. An
	// unset rate is 0, no dropout; one outside [0, 1) becomes 0.15.
	DropoutRate float64
	// NoiseRate is the fraction of received reports corrupted with
	// protocol-violating or physically infeasible values (default 0 — enable
	// for cleaning tests; the paper's raw feed contains such records).
	NoiseRate float64

	// BlockSuez closes the Suez canal between the given simulation days
	// (inclusive start, exclusive end), forcing Cape of Good Hope
	// re-routing — the paper's 2021 Ever Given motivation. Zero values mean
	// no blockage.
	BlockSuezFromDay, BlockSuezToDay int

	// Weather, when non-nil, applies involuntary speed loss from the
	// synthetic met-ocean field while sailing (the paper's §5 weather
	// enrichment). Nil means calm water everywhere.
	Weather *weather.Field
}

// mooredInterval is the mean seconds between reports at berth, 3× the
// class-A 6-minute anchor rate.
const mooredInterval = 1080

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Vessels <= 0 {
		c.Vessels = 100
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Days <= 0 {
		c.Days = 30
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = 180
	}
	if c.DropoutRate < 0 || c.DropoutRate >= 1 {
		c.DropoutRate = 0.15
	}
	return c
}

// Voyage is one scheduled port-to-port trip of a vessel, kept for ground
// truth in evaluation (ETA error, destination-prediction accuracy).
type Voyage struct {
	MMSI       uint32
	VType      model.VesselType
	Route      Route
	DepartTime int64 // Unix seconds: leaving the origin berth
	ArriveTime int64 // Unix seconds: arriving at the destination berth
}

// Simulator generates the synthetic dataset.
type Simulator struct {
	cfg   Config
	fleet *Fleet
	gaz   *ports.Gazetteer
	graph *LaneGraph
}

// New creates a simulator over the given gazetteer. Pass ports.Default()
// for the world fleet.
func New(cfg Config, gaz *ports.Gazetteer) (*Simulator, error) {
	cfg = cfg.withDefaults()
	graph, err := NewLaneGraph(gaz)
	if err != nil {
		return nil, err
	}
	return &Simulator{
		cfg:   cfg,
		fleet: NewFleet(cfg.Vessels, cfg.Seed),
		gaz:   gaz,
		graph: graph,
	}, nil
}

// Fleet returns the simulated fleet (the vessel static inventory).
func (s *Simulator) Fleet() *Fleet { return s.fleet }

// Gazetteer returns the port gazetteer in use.
func (s *Simulator) Gazetteer() *ports.Gazetteer { return s.gaz }

// Graph returns the shipping-lane graph.
func (s *Simulator) Graph() *LaneGraph { return s.graph }

// Config returns the effective configuration (defaults applied).
func (s *Simulator) Config() Config { return s.cfg }

// VesselTrack generates the full report stream and voyage ground truth of
// one vessel (by fleet index). Tracks of different vessels are independent
// and deterministic, so they can be generated in parallel as dataset
// partitions.
func (s *Simulator) VesselTrack(idx int) ([]model.PositionRecord, []Voyage) {
	if idx < 0 || idx >= len(s.fleet.Vessels) {
		return nil, nil
	}
	v := s.fleet.Vessels[idx]
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ int64(v.MMSI)*0x9e3779b9))

	start := s.cfg.Start.Unix()
	end := start + int64(s.cfg.Days)*86400

	var recs []model.PositionRecord
	var voyages []Voyage

	here := s.pickPort(rng, model.NoPort)
	// Stagger initial departures over the first two days.
	now := start + int64(rng.Float64()*2*86400)
	s.emitDwell(rng, v, here, start, now, &recs)

	for now < end {
		dest := s.pickPort(rng, here)
		route, err := s.planVoyage(here, dest, now)
		if err != nil {
			// Unroutable pair (should not happen on the connected graph);
			// try another destination next iteration.
			here = dest
			continue
		}
		depart := now
		arrive := s.sail(rng, v, route, depart, end, &recs)
		voyages = append(voyages, Voyage{
			MMSI: v.MMSI, VType: v.Type, Route: route,
			DepartTime: depart, ArriveTime: arrive,
		})
		if arrive >= end {
			break
		}
		// Dwell at the destination berth 8h-3d.
		dwellEnd := arrive + int64(8*3600+rng.Float64()*64*3600)
		if dwellEnd > end {
			dwellEnd = end
		}
		s.emitDwell(rng, v, dest, arrive, dwellEnd, &recs)
		here = dest
		now = dwellEnd
	}
	return recs, voyages
}

// planVoyage plans a route honouring any active canal blockage at departure
// time.
func (s *Simulator) planVoyage(origin, dest model.PortID, departUnix int64) (Route, error) {
	var blocked []Canal
	if s.cfg.BlockSuezToDay > s.cfg.BlockSuezFromDay {
		day := int((departUnix - s.cfg.Start.Unix()) / 86400)
		if day >= s.cfg.BlockSuezFromDay && day < s.cfg.BlockSuezToDay {
			blocked = append(blocked, SuezCanal)
		}
	}
	return s.graph.Plan(origin, dest, blocked...)
}

// pickPort selects a port weighted by size class, excluding the given one.
// Passenger-style repeat calls emerge naturally from the weighting.
func (s *Simulator) pickPort(rng *rand.Rand, exclude model.PortID) model.PortID {
	all := s.gaz.All()
	var total float64
	for _, p := range all {
		if p.ID != exclude {
			total += p.Size.Weight()
		}
	}
	r := rng.Float64() * total
	for _, p := range all {
		if p.ID == exclude {
			continue
		}
		r -= p.Size.Weight()
		if r <= 0 {
			return p.ID
		}
	}
	return all[len(all)-1].ID
}

// harbourRadiusM is the distance from a port center within which vessels
// maneuver at reduced speed.
const harbourRadiusM = 22000

// sail integrates the vessel along the route from departTime, appending
// received reports, and returns the arrival time (clamped to endUnix).
func (s *Simulator) sail(rng *rand.Rand, v model.VesselInfo, route Route, departUnix, endUnix int64, out *[]model.PositionRecord) int64 {
	origin, _ := s.gaz.ByID(route.Origin)
	dest, _ := s.gaz.ByID(route.Dest)

	dist := 0.0
	now := float64(departUnix)
	nextReport := now
	for dist < route.DistM && int64(now) < endUnix {
		pos := route.PointAtDistance(dist)
		// Speed profile: maneuvering near harbours, service speed at sea,
		// with mild stochastic variation and, when enabled, involuntary
		// speed loss from the synthetic weather field.
		speed := v.DesignSpeed * (0.92 + 0.16*rng.Float64())
		if s.cfg.Weather != nil {
			speed *= s.cfg.Weather.At(pos, int64(now)).SpeedFactor()
		}
		dOrigin := geo.Haversine(pos, origin.Pos)
		dDest := geo.Haversine(pos, dest.Pos)
		if m := math.Min(dOrigin, dDest); m < harbourRadiusM {
			// Ramp from ~6 knots at the berth to service speed at the edge.
			f := 0.3 + 0.7*(m/harbourRadiusM)
			speed *= f
			if speed < 5 {
				speed = 5
			}
		}
		mps := speed * geo.MetersPerNauticalMile / 3600

		if now >= nextReport {
			cog := route.BearingAtDistance(dist)
			rec := model.PositionRecord{
				MMSI:    v.MMSI,
				Time:    int64(now),
				Pos:     pos,
				SOG:     speed,
				COG:     cog,
				Heading: math.Round(geo.NormalizeAngle(cog + rng.NormFloat64()*2)),
				Status:  ais.StatusUnderWayEngine,
			}
			s.deliver(rng, rec, out)
			// Next report after an exponential interval.
			nextReport = now + s.cfg.ReportInterval*(0.3+rng.ExpFloat64())
		}

		// Integrate position with a time step bounded by the report
		// cadence for smooth tracks.
		step := math.Min(60, s.cfg.ReportInterval/3)
		dist += mps * step
		now += step
	}
	arrive := int64(now)
	if arrive > endUnix {
		arrive = endUnix
	}
	return arrive
}

// emitDwell emits berth reports (moored status, ~0 speed) between from and
// to at the moored cadence.
func (s *Simulator) emitDwell(rng *rand.Rand, v model.VesselInfo, portID model.PortID, fromUnix, toUnix int64, out *[]model.PositionRecord) {
	port, ok := s.gaz.ByID(portID)
	if !ok {
		return
	}
	// A stable berth spot inside the fence, per vessel per call.
	berth := geo.Destination(port.Pos, rng.Float64()*360, rng.Float64()*port.FenceRadiusM()*0.4)
	hdg := math.Floor(rng.Float64() * 360)
	for t := float64(fromUnix); t < float64(toUnix); t += mooredInterval * (0.5 + rng.ExpFloat64()) {
		rec := model.PositionRecord{
			MMSI:    v.MMSI,
			Time:    int64(t),
			Pos:     geo.Destination(berth, rng.Float64()*360, rng.Float64()*30),
			SOG:     rng.Float64() * 0.3,
			COG:     rng.Float64() * 360,
			Heading: hdg,
			Status:  ais.StatusMoored,
		}
		s.deliver(rng, rec, out)
	}
}

// deliver applies reception dropout and optional noise corruption, then
// appends the report.
func (s *Simulator) deliver(rng *rand.Rand, rec model.PositionRecord, out *[]model.PositionRecord) {
	if rng.Float64() < s.cfg.DropoutRate {
		return
	}
	if s.cfg.NoiseRate > 0 && rng.Float64() < s.cfg.NoiseRate {
		rec = corrupt(rng, rec)
	}
	*out = append(*out, rec)
}

// corrupt injects one of the defect classes the paper's cleaning stage
// filters: out-of-range coordinates, illegal speed/course/heading values,
// and teleporting position jumps.
func corrupt(rng *rand.Rand, rec model.PositionRecord) model.PositionRecord {
	switch rng.Intn(5) {
	case 0: // out-of-range latitude (the AIS 91° "not available" style)
		rec.Pos.Lat = 91
	case 1: // out-of-range longitude
		rec.Pos.Lng = 181
	case 2: // illegal speed
		rec.SOG = 102.3 + rng.Float64()*20
	case 3: // illegal course
		rec.COG = 360 + rng.Float64()*40
	default: // teleport: a position jump implying > 50 knots
		rec.Pos = geo.Destination(rec.Pos, rng.Float64()*360, 300e3+rng.Float64()*2000e3)
	}
	return rec
}

// Describe returns a one-line human summary of the configuration.
func (c Config) Describe() string {
	return fmt.Sprintf("%d vessels × %d days from %s (seed %d)",
		c.Vessels, c.Days, c.Start.Format("2006-01-02"), c.Seed)
}
