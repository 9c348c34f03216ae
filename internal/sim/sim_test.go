package sim

import (
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
)

func testSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg, ports.Default())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLaneGraphConnected(t *testing.T) {
	gaz := ports.Default()
	g, err := NewLaneGraph(gaz)
	if err != nil {
		t.Fatal(err)
	}
	// BFS from port 1 must reach every node.
	n := len(g.adj)
	seen := make([]bool, n)
	queue := []int{g.portNode(1)}
	seen[g.portNode(1)] = true
	count := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		count++
		for _, e := range g.adj[cur] {
			if !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	if count != n {
		var missing []string
		for i, s := range seen {
			if !s {
				if i < len(g.waypoints) {
					missing = append(missing, g.waypoints[i].name)
				} else {
					p, _ := gaz.ByID(model.PortID(i - len(g.waypoints) + 1))
					missing = append(missing, p.Name)
				}
			}
		}
		t.Fatalf("lane graph disconnected: %d/%d reachable; missing %v", count, n, missing)
	}
}

func TestPlanKnownRoutes(t *testing.T) {
	gaz := ports.Default()
	g, err := NewLaneGraph(gaz)
	if err != nil {
		t.Fatal(err)
	}
	rtm, _ := gaz.ByName("Rotterdam")
	sgp, _ := gaz.ByName("Singapore")
	route, err := g.Plan(rtm.ID, sgp.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Rotterdam→Singapore via Suez is ~15500 km over real lanes.
	if route.DistM < 13e6 || route.DistM > 20e6 {
		t.Errorf("Rotterdam-Singapore distance %.0f km implausible", route.DistM/1000)
	}
	if !route.Transits(SuezCanal) {
		t.Error("Rotterdam-Singapore must transit Suez")
	}
	if route.Points[0] != rtm.Pos || route.Points[len(route.Points)-1] != sgp.Pos {
		t.Error("route must start and end at the port positions")
	}
}

func TestPlanSuezBlockageReroutesViaCape(t *testing.T) {
	gaz := ports.Default()
	g, _ := NewLaneGraph(gaz)
	rtm, _ := gaz.ByName("Rotterdam")
	sgp, _ := gaz.ByName("Singapore")
	direct, err := g.Plan(rtm.ID, sgp.ID)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := g.Plan(rtm.ID, sgp.ID, SuezCanal)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Transits(SuezCanal) {
		t.Fatal("blocked route must not transit Suez")
	}
	// The paper: re-routing around the Cape adds more than 7000 miles
	// (~11000 km). Our lane graph must add a comparable detour.
	added := blocked.DistM - direct.DistM
	if added < 4e6 {
		t.Errorf("Cape detour adds only %.0f km; expected thousands", added/1000)
	}
	// The Cape route passes near Cape Agulhas (southern Africa).
	nearCape := false
	for _, p := range blocked.Points {
		if geo.Haversine(p, geo.LatLng{Lat: -35.5, Lng: 20}) < 1500e3 {
			nearCape = true
			break
		}
	}
	if !nearCape {
		t.Error("blocked route must round southern Africa")
	}
}

func TestPlanPanama(t *testing.T) {
	gaz := ports.Default()
	g, _ := NewLaneGraph(gaz)
	ny, _ := gaz.ByName("New York")
	la, _ := gaz.ByName("Los Angeles")
	route, err := g.Plan(ny.ID, la.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !route.Transits(PanamaCanal) {
		t.Error("New York-Los Angeles must transit Panama")
	}
}

func TestPlanErrors(t *testing.T) {
	gaz := ports.Default()
	g, _ := NewLaneGraph(gaz)
	if _, err := g.Plan(0, 1); err == nil {
		t.Error("unknown origin must error")
	}
	if _, err := g.Plan(1, model.PortID(gaz.Len()+5)); err == nil {
		t.Error("unknown destination must error")
	}
}

func TestRoutePointAtDistance(t *testing.T) {
	gaz := ports.Default()
	g, _ := NewLaneGraph(gaz)
	rtm, _ := gaz.ByName("Rotterdam")
	ham, _ := gaz.ByName("Hamburg")
	route, err := g.Plan(rtm.ID, ham.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p := route.PointAtDistance(0); p != route.Points[0] {
		t.Error("distance 0 must be the start")
	}
	if p := route.PointAtDistance(route.DistM * 2); p != route.Points[len(route.Points)-1] {
		t.Error("distance beyond end must clamp")
	}
	if p := route.PointAtDistance(-5); p != route.Points[0] {
		t.Error("negative distance must clamp to start")
	}
	// Cumulative distances along the polyline must be monotonic in space.
	prev := route.Points[0]
	for f := 0.1; f < 1; f += 0.1 {
		p := route.PointAtDistance(route.DistM * f)
		if geo.Haversine(prev, p) == 0 && f > 0.2 {
			t.Error("interpolated points should advance")
		}
		prev = p
	}
	b := route.BearingAtDistance(route.DistM / 2)
	if b < 0 || b >= 360 {
		t.Errorf("bearing %v out of range", b)
	}
}

func TestFleetGeneration(t *testing.T) {
	f := NewFleet(500, 42)
	if len(f.Vessels) != 500 {
		t.Fatalf("fleet size %d", len(f.Vessels))
	}
	seen := map[uint32]bool{}
	byType := map[model.VesselType]int{}
	for _, v := range f.Vessels {
		if seen[v.MMSI] {
			t.Fatalf("duplicate MMSI %d", v.MMSI)
		}
		seen[v.MMSI] = true
		if !ais.ValidMMSI(v.MMSI) {
			t.Errorf("invalid MMSI %d", v.MMSI)
		}
		if !v.IsCommercial() {
			t.Errorf("vessel %s fails the commercial filter: %+v", v.Name, v)
		}
		if v.DesignSpeed < 10 || v.DesignSpeed > 24 {
			t.Errorf("implausible design speed %v", v.DesignSpeed)
		}
		byType[v.Type]++
	}
	// All five market segments must be represented.
	for vt := model.VesselCargo; vt <= model.VesselPassenger; vt++ {
		if byType[vt] == 0 {
			t.Errorf("no vessels of type %v", vt)
		}
	}
	// Determinism.
	again := NewFleet(500, 42)
	for i := range f.Vessels {
		if f.Vessels[i] != again.Vessels[i] {
			t.Fatal("fleet generation must be deterministic")
		}
	}
	if len(f.StaticIndex()) != 500 {
		t.Error("static index size mismatch")
	}
}

func TestVesselTrackBasics(t *testing.T) {
	s := testSim(t, Config{Vessels: 5, Days: 20, Seed: 7})
	recs, voys := s.VesselTrack(0)
	if len(recs) < 100 {
		t.Fatalf("only %d reports in 20 days", len(recs))
	}
	if len(voys) == 0 {
		t.Fatal("no voyages in 20 days")
	}
	mmsi := s.Fleet().Vessels[0].MMSI
	start := s.Config().Start.Unix()
	end := start + int64(s.Config().Days)*86400
	prev := int64(0)
	for i, r := range recs {
		if r.MMSI != mmsi {
			t.Fatalf("record %d has wrong MMSI", i)
		}
		if r.Time < start || r.Time > end {
			t.Fatalf("record %d outside simulation window", i)
		}
		if r.Time < prev {
			t.Fatalf("record %d out of order", i)
		}
		prev = r.Time
		if !r.Pos.Valid() {
			t.Fatalf("record %d invalid position %v (noise disabled)", i, r.Pos)
		}
		if r.SOG < 0 || r.SOG > 30 {
			t.Fatalf("record %d speed %v implausible", i, r.SOG)
		}
	}
}

func TestVesselTrackDeterministic(t *testing.T) {
	s1 := testSim(t, Config{Vessels: 3, Days: 10, Seed: 99})
	s2 := testSim(t, Config{Vessels: 3, Days: 10, Seed: 99})
	r1, v1 := s1.VesselTrack(1)
	r2, v2 := s2.VesselTrack(1)
	if len(r1) != len(r2) || len(v1) != len(v2) {
		t.Fatalf("nondeterministic: %d/%d records, %d/%d voyages", len(r1), len(r2), len(v1), len(v2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestVoyagesFollowGeofences(t *testing.T) {
	s := testSim(t, Config{Vessels: 4, Days: 25, Seed: 3})
	idx := ports.NewIndex(s.Gazetteer(), ports.IndexResolution)
	for vi := 0; vi < 4; vi++ {
		recs, voys := s.VesselTrack(vi)
		for _, voy := range voys {
			if voy.ArriveTime >= s.Config().Start.Unix()+int64(s.Config().Days)*86400 {
				continue // truncated by simulation end
			}
			// Some report shortly before departure must geofence to the
			// origin port; some report shortly after arrival to the
			// destination.
			foundOrigin, foundDest := false, false
			for _, r := range recs {
				if r.Time <= voy.DepartTime && r.Time > voy.DepartTime-12*3600 {
					if id, ok := idx.PortAt(r.Pos); ok && id == voy.Route.Origin {
						foundOrigin = true
					}
				}
				if r.Time >= voy.ArriveTime && r.Time < voy.ArriveTime+12*3600 {
					if id, ok := idx.PortAt(r.Pos); ok && id == voy.Route.Dest {
						foundDest = true
					}
				}
			}
			if !foundOrigin {
				t.Errorf("vessel %d voyage %d→%d: no report inside origin fence before departure",
					vi, voy.Route.Origin, voy.Route.Dest)
			}
			if !foundDest {
				t.Errorf("vessel %d voyage %d→%d: no report inside destination fence after arrival",
					vi, voy.Route.Origin, voy.Route.Dest)
			}
		}
	}
}

func TestCleanTracksHaveFeasibleTransitions(t *testing.T) {
	s := testSim(t, Config{Vessels: 3, Days: 15, Seed: 11})
	for vi := 0; vi < 3; vi++ {
		recs, _ := s.VesselTrack(vi)
		bad := 0
		for i := 1; i < len(recs); i++ {
			dt := float64(recs[i].Time - recs[i-1].Time)
			if dt <= 0 {
				continue
			}
			if geo.SpeedKnots(recs[i-1].Pos, recs[i].Pos, dt) > 50 {
				bad++
			}
		}
		// Berth-to-departure joins can occasionally imply a fast hop; the
		// overwhelming majority of transitions must be feasible.
		if frac := float64(bad) / float64(len(recs)); frac > 0.02 {
			t.Errorf("vessel %d: %.1f%% infeasible transitions in clean data", vi, frac*100)
		}
	}
}

func TestNoiseInjection(t *testing.T) {
	s := testSim(t, Config{Vessels: 3, Days: 10, Seed: 5, NoiseRate: 0.05})
	recs, _ := s.VesselTrack(0)
	var badRange int
	for _, r := range recs {
		if !r.Pos.Valid() || r.SOG > 102.2 || r.COG >= 360 {
			badRange++
		}
	}
	if badRange == 0 {
		t.Error("noise injection must produce out-of-range records")
	}
	if frac := float64(badRange) / float64(len(recs)); frac > 0.06 {
		t.Errorf("noise fraction %.3f exceeds configured rate", frac)
	}
}

func TestSuezBlockageScenario(t *testing.T) {
	gaz := ports.Default()
	// All vessels, blocked window covering the whole run: voyages planned
	// during the window must avoid Suez.
	s, err := New(Config{Vessels: 30, Days: 20, Seed: 13, BlockSuezFromDay: 0, BlockSuezToDay: 20}, gaz)
	if err != nil {
		t.Fatal(err)
	}
	_, voys := s.VesselTrack(0)
	suez := 0
	for vi := 0; vi < 30; vi++ {
		_, vv := s.VesselTrack(vi)
		for _, v := range vv {
			if v.Route.Transits(SuezCanal) {
				suez++
			}
		}
	}
	_ = voys
	if suez != 0 {
		t.Errorf("%d voyages transited a blocked Suez", suez)
	}
	// Without the blockage, the same fleet produces Suez transits.
	open, _ := New(Config{Vessels: 30, Days: 20, Seed: 13}, gaz)
	suezOpen := 0
	for vi := 0; vi < 30; vi++ {
		_, vv := open.VesselTrack(vi)
		for _, v := range vv {
			if v.Route.Transits(SuezCanal) {
				suezOpen++
			}
		}
	}
	if suezOpen == 0 {
		t.Error("unblocked scenario should produce Suez transits (30 vessels, 20 days)")
	}
}

func TestVesselTrackOutOfRange(t *testing.T) {
	s := testSim(t, Config{Vessels: 2, Days: 5, Seed: 1})
	if r, v := s.VesselTrack(-1); r != nil || v != nil {
		t.Error("negative index must yield nil")
	}
	if r, v := s.VesselTrack(2); r != nil || v != nil {
		t.Error("out-of-range index must yield nil")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Vessels != 100 || c.Days != 30 || c.ReportInterval != 180 {
		t.Errorf("defaults: %+v", c)
	}
	if c.Start.IsZero() {
		t.Error("start must default")
	}
	if c.Describe() == "" {
		t.Error("Describe must render")
	}
	custom := Config{Vessels: 5, Days: 2, Start: time.Unix(0, 0), Seed: 3}.withDefaults()
	if custom.Vessels != 5 || custom.Days != 2 {
		t.Error("explicit values must survive defaulting")
	}
}

func BenchmarkVesselTrack30Days(b *testing.B) {
	s, err := New(Config{Vessels: 10, Days: 30, Seed: 1}, ports.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _ := s.VesselTrack(i % 10)
		if len(recs) == 0 {
			b.Fatal("empty track")
		}
	}
}

func BenchmarkPlanRoute(b *testing.B) {
	gaz := ports.Default()
	g, _ := NewLaneGraph(gaz)
	rtm, _ := gaz.ByName("Rotterdam")
	sgp, _ := gaz.ByName("Singapore")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Plan(rtm.ID, sgp.ID); err != nil {
			b.Fatal(err)
		}
	}
}
