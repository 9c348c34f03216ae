package weather_test

import (
	"math"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/weather"
)

func TestFieldDeterministic(t *testing.T) {
	a := weather.NewField(7)
	b := weather.NewField(7)
	p := geo.LatLng{Lat: 48, Lng: -30}
	if a.At(p, 1000000) != b.At(p, 1000000) {
		t.Error("equal seeds must give identical weather")
	}
	c := weather.NewField(8)
	same := 0
	for i := int64(0); i < 20; i++ {
		if a.At(p, i*86400) == c.At(p, i*86400) {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds should give different weather")
	}
}

func TestFieldSmoothInSpaceAndTime(t *testing.T) {
	f := weather.NewField(3)
	p := geo.LatLng{Lat: 45, Lng: 10}
	base := f.At(p, 0)
	// 10 km and 10 minutes away the conditions barely change.
	near := f.At(geo.Destination(p, 90, 10e3), 600)
	if math.Abs(near.WindKn-base.WindKn) > 2 {
		t.Errorf("weather jumps %.1f kn over 10 km", math.Abs(near.WindKn-base.WindKn))
	}
	// Over thousands of km the field genuinely varies.
	var spread float64
	for lng := -180.0; lng < 180; lng += 15 {
		v := f.At(geo.LatLng{Lat: 45, Lng: lng}, 0).WindKn
		spread += math.Abs(v - base.WindKn)
	}
	if spread < 20 {
		t.Error("field is suspiciously flat across the globe")
	}
}

func TestFieldBoundsAndLatitudeEffect(t *testing.T) {
	f := weather.NewField(11)
	var tropics, highLat float64
	n := 0
	for lng := -180.0; lng < 180; lng += 5 {
		for _, day := range []int64{0, 5, 10, 15} {
			tc := f.At(geo.LatLng{Lat: 5, Lng: lng}, day*86400)
			hc := f.At(geo.LatLng{Lat: 55, Lng: lng}, day*86400)
			for _, c := range []weather.Conditions{tc, hc} {
				if c.WindKn < 0 || c.WindKn > 55 || c.WaveM < 0 || c.WaveM > 26 {
					t.Fatalf("conditions out of bounds: %+v", c)
				}
			}
			tropics += tc.WaveM
			highLat += hc.WaveM
			n++
		}
	}
	if highLat <= tropics {
		t.Errorf("high latitudes should be rougher on average: %.1f vs %.1f", highLat, tropics)
	}
}

func TestSeaStateScale(t *testing.T) {
	cases := []struct {
		wave float64
		want int
	}{
		{0, 0}, {0.3, 1}, {1.0, 2}, {2.0, 3}, {3.0, 4}, {5.0, 5}, {7.0, 6}, {12.0, 7}, {18.0, 8}, {25.0, 9},
	}
	for _, c := range cases {
		if got := (weather.Conditions{WaveM: c.wave}).SeaState(); got != c.want {
			t.Errorf("wave %.1f m: sea state %d, want %d", c.wave, got, c.want)
		}
	}
}

func TestSpeedFactorMonotone(t *testing.T) {
	prev := 1.1
	for _, wave := range []float64{0, 1, 3, 5, 7, 10, 15} {
		f := (weather.Conditions{WaveM: wave}).SpeedFactor()
		if f > prev {
			t.Errorf("speed factor must not rise with wave height: %.2f after %.2f", f, prev)
		}
		if f < 0.5 || f > 1 {
			t.Errorf("speed factor %.2f out of bounds", f)
		}
		prev = f
	}
}

func TestEnrichmentShowsSpeedLoss(t *testing.T) {
	// Simulate a fleet WITH weather effects, build the weather-enriched
	// inventory, and confirm the paper-§5 payoff: observed mean speeds drop
	// as sea state rises.
	field := weather.NewField(42)
	gaz := ports.Default()
	s, err := sim.New(sim.Config{Vessels: 12, Days: 15, Seed: 5, Weather: field}, gaz)
	if err != nil {
		t.Fatal(err)
	}
	inv := weather.NewInventory(field, 6)
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	for i := 0; i < 12; i++ {
		recs, _ := s.VesselTrack(i)
		for _, r := range recs {
			// Only under-way, at-sea reports: berth speeds would swamp the
			// signal.
			if r.SOG < 5 {
				continue
			}
			if _, inPort := idx.PortAt(r.Pos); inPort {
				continue
			}
			inv.Add(r)
		}
	}
	if len(inv.Cells) == 0 {
		t.Fatal("no weather cells built")
	}
	global := inv.GlobalSpeedBySeaState()
	// Compare calm (0-3) against rough (5+) seas.
	calmW, roughW := 0.0, 0.0
	calmSum, roughSum := 0.0, 0.0
	for st, w := range global {
		if w.Weight() == 0 {
			continue
		}
		switch {
		case st <= 3:
			calmW += w.Weight()
			calmSum += w.Mean() * w.Weight()
		case st >= 5:
			roughW += w.Weight()
			roughSum += w.Mean() * w.Weight()
		}
	}
	if calmW == 0 || roughW == 0 {
		t.Fatalf("need both calm and rough observations: calm=%v rough=%v", calmW, roughW)
	}
	calmMean := calmSum / calmW
	roughMean := roughSum / roughW
	if roughMean >= calmMean {
		t.Errorf("rough-sea mean speed %.1f must be below calm %.1f", roughMean, calmMean)
	}
}
