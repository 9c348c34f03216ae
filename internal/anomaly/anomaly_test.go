package anomaly

import (
	"math"
	"testing"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

var fixture *testutil.Fixture

func getFixture(tb testing.TB) *testutil.Fixture {
	tb.Helper()
	if fixture == nil {
		fixture = testutil.Build(tb, sim.Config{Vessels: 25, Days: 30, Seed: 77}, 6)
	}
	return fixture
}

func TestOnLaneTrafficScoresLow(t *testing.T) {
	f := getFixture(t)
	sc := New(f.Inventory)
	// In-port records are excluded from the inventory by the methodology
	// (§3.3.2), so the normalcy model only covers at-sea traffic.
	idx := ports.NewIndex(f.Sim.Gazetteer(), ports.IndexResolution)
	voys := f.CompletedVoyages()
	var sum float64
	var n int
	for _, v := range voys[:min(10, len(voys))] {
		for _, r := range f.TrackDuring(v) {
			if _, inPort := idx.PortAt(r.Pos); inPort {
				continue
			}
			s := sc.Score(r, v.VType)
			if s.OffLane {
				t.Fatalf("historical on-lane report flagged off-lane at %v", r.Pos)
			}
			sum += s.Composite
			n++
		}
	}
	if mean := sum / float64(n); mean > 0.2 {
		t.Errorf("mean composite %.3f for normal traffic, want low", mean)
	}
}

func TestOffLanePositionsScoreHigh(t *testing.T) {
	f := getFixture(t)
	sc := New(f.Inventory)
	offLane := []geo.LatLng{
		{Lat: -60, Lng: -120}, // Southern Ocean
		{Lat: 75, Lng: 150},   // Arctic
		{Lat: -45, Lng: 60},   // far southern Indian Ocean
	}
	for _, p := range offLane {
		s := sc.Score(model.PositionRecord{Pos: p, SOG: 14, COG: 90}, model.VesselContainer)
		if !s.OffLane {
			t.Errorf("position %v should be off-lane", p)
		}
		if s.Composite != 1 {
			t.Errorf("off-lane composite %v, want 1", s.Composite)
		}
		if !math.IsNaN(s.SpeedZ) {
			t.Error("off-lane SpeedZ must be NaN")
		}
	}
}

func TestAbnormalSpeedRaisesScore(t *testing.T) {
	f := getFixture(t)
	sc := New(f.Inventory)
	v := f.CompletedVoyages()[0]
	track := f.TrackDuring(v)
	r := track[len(track)/2]

	normal := sc.Score(r, v.VType)
	drifting := r
	drifting.SOG = 0.2 // dead in the water mid-ocean
	stopped := sc.Score(drifting, v.VType)
	if !math.IsNaN(normal.SpeedZ) && !math.IsNaN(stopped.SpeedZ) {
		if stopped.SpeedZ <= normal.SpeedZ {
			t.Errorf("drifting SpeedZ %.2f must exceed normal %.2f", stopped.SpeedZ, normal.SpeedZ)
		}
		if stopped.Composite <= normal.Composite {
			t.Errorf("drifting composite %.3f must exceed normal %.3f", stopped.Composite, normal.Composite)
		}
	}
}

func TestCounterFlowRaisesCourseDeviation(t *testing.T) {
	f := getFixture(t)
	sc := New(f.Inventory)
	// Find a directional cell (high resultant) from a voyage track.
	for _, v := range f.CompletedVoyages() {
		track := f.TrackDuring(v)
		for _, r := range track {
			s := sc.Score(r, v.VType)
			if math.IsNaN(s.CourseDeviation) || s.CourseDeviation > 45 {
				continue
			}
			reversed := r
			reversed.COG = geo.NormalizeAngle(r.COG + 180)
			s2 := sc.Score(reversed, v.VType)
			if math.IsNaN(s2.CourseDeviation) || s2.CourseDeviation <= s.CourseDeviation {
				t.Errorf("reversed course deviation %.0f° must exceed %.0f°", s2.CourseDeviation, s.CourseDeviation)
			}
			return
		}
	}
	t.Skip("no directional cell found")
}

func TestScoreTrack(t *testing.T) {
	f := getFixture(t)
	sc := New(f.Inventory)
	v := f.CompletedVoyages()[0]
	track := f.TrackDuring(v)
	normal := sc.ScoreTrack(track, v.VType)
	if normal > 0.3 {
		t.Errorf("normal track mean score %.3f too high", normal)
	}
	// A fabricated off-lane track scores much higher.
	var rogue []model.PositionRecord
	for i := 0; i < 20; i++ {
		rogue = append(rogue, model.PositionRecord{
			Pos: geo.LatLng{Lat: -55, Lng: float64(-100 + i)},
			SOG: 12, COG: 90, Status: ais.StatusUnderWayEngine,
		})
	}
	if got := sc.ScoreTrack(rogue, v.VType); got <= normal+0.3 {
		t.Errorf("rogue track score %.3f must clearly exceed normal %.3f", got, normal)
	}
	if sc.ScoreTrack(nil, v.VType) != 0 {
		t.Error("empty track scores 0")
	}
}

func TestSuezBlockageDetectedAsDeviation(t *testing.T) {
	// The paper's motivating scenario: build normalcy from an unblocked
	// period, then score re-routed (Cape of Good Hope) traffic against it.
	// Use the lane graph to synthesize the two route variants directly.
	f := getFixture(t)
	sc := New(f.Inventory)
	gaz := f.Sim.Gazetteer()
	rtm, _ := gaz.ByName("Rotterdam")
	sgp, _ := gaz.ByName("Singapore")
	graph := f.Sim.Graph()

	mkTrack := func(blocked ...sim.Canal) []model.PositionRecord {
		route, err := graph.Plan(rtm.ID, sgp.ID, blocked...)
		if err != nil {
			t.Fatal(err)
		}
		var recs []model.PositionRecord
		for d := 0.0; d < route.DistM; d += 100e3 {
			recs = append(recs, model.PositionRecord{
				Pos: route.PointAtDistance(d), SOG: 14,
				COG: route.BearingAtDistance(d), Status: ais.StatusUnderWayEngine,
			})
		}
		return recs
	}
	viaSuez := sc.ScoreTrack(mkTrack(), model.VesselContainer)
	viaCape := sc.ScoreTrack(mkTrack(sim.SuezCanal), model.VesselContainer)
	if viaCape <= viaSuez {
		t.Errorf("Cape re-route score %.3f must exceed Suez baseline %.3f", viaCape, viaSuez)
	}
	t.Logf("normalcy deviation: via Suez %.3f, via Cape %.3f", viaSuez, viaCape)
}

func TestSearchRingsConfigurable(t *testing.T) {
	f := getFixture(t)
	sc := New(f.Inventory)
	sc.SearchRings = 0
	v := f.CompletedVoyages()[0]
	track := f.TrackDuring(v)
	// With 0 rings, a point one cell off the lane is immediately off-lane.
	r := track[len(track)/2]
	shifted := r
	shifted.Pos = geo.Destination(r.Pos, geo.NormalizeAngle(r.COG+90), 30e3)
	s := sc.Score(shifted, v.VType)
	if s.LaneDistance == 0 && !s.OffLane {
		// The shifted point may still land in a traffic cell; accept.
		return
	}
	if !s.OffLane {
		t.Errorf("with 0 search rings, off-cell point must be off-lane: %+v", s)
	}
}

// BenchmarkScore is one normalcy evaluation of a mid-voyage report.
func BenchmarkScore(b *testing.B) {
	f := getFixture(b)
	v := f.CompletedVoyages()[0]
	track := f.TrackDuring(v)
	sc := New(f.Inventory)
	rec := track[len(track)/2]
	b.ResetTimer()
	for range b.N {
		sc.Score(rec, v.VType)
	}
}
