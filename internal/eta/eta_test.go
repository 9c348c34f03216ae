package eta

import (
	"math"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
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

func TestEstimateAnswersOnLanes(t *testing.T) {
	f := getFixture(t)
	est := New(f.Inventory)
	voys := f.CompletedVoyages()
	if len(voys) == 0 {
		t.Fatal("no completed voyages")
	}
	answered := 0
	total := 0
	for _, v := range voys {
		for _, r := range f.TrackDuring(v) {
			total++
			if _, ok := est.Estimate(Query{Pos: r.Pos, VType: v.VType, Origin: v.Route.Origin, Dest: v.Route.Dest}); ok {
				answered++
			}
		}
	}
	if total == 0 {
		t.Fatal("no en-route reports")
	}
	if frac := float64(answered) / float64(total); frac < 0.95 {
		t.Errorf("only %.0f%% of en-route queries answered", frac*100)
	}
}

func TestEstimateAccuracyImprovesWithProgress(t *testing.T) {
	// The paper positions ATA statistics as a baseline ETA estimate. Error
	// must shrink as the vessel nears the destination; check the mean
	// absolute error over the last quarter of each trip is smaller than
	// over the first quarter.
	f := getFixture(t)
	est := New(f.Inventory)
	var earlyErr, lateErr, earlyN, lateN float64
	for _, v := range f.CompletedVoyages() {
		track := f.TrackDuring(v)
		dur := float64(v.ArriveTime - v.DepartTime)
		if dur <= 0 || len(track) < 8 {
			continue
		}
		for _, r := range track {
			e, ok := est.Estimate(Query{Pos: r.Pos, VType: v.VType, Origin: v.Route.Origin, Dest: v.Route.Dest})
			if !ok {
				continue
			}
			truth := float64(v.ArriveTime - r.Time)
			absErr := math.Abs(e.Mean.Seconds() - truth)
			switch progress := float64(r.Time-v.DepartTime) / dur; {
			case progress < 0.25:
				earlyErr += absErr
				earlyN++
			case progress > 0.75:
				lateErr += absErr
				lateN++
			}
		}
	}
	if earlyN == 0 || lateN == 0 {
		t.Fatal("insufficient samples")
	}
	early := earlyErr / earlyN
	late := lateErr / lateN
	if late >= early {
		t.Errorf("late-trip MAE %.0fs must beat early-trip MAE %.0fs", late, early)
	}
	// And the late-stage estimate should be decent in absolute terms: the
	// remaining time near arrival is small, so MAE under a few hours.
	if late > 6*3600 {
		t.Errorf("late-trip MAE %.1fh too large for a usable baseline", late/3600)
	}
}

func TestEstimateSpecificityPreference(t *testing.T) {
	f := getFixture(t)
	est := New(f.Inventory)
	voys := f.CompletedVoyages()
	// Find a report whose OD summary exists; the estimator must answer
	// from the OD grouping set, not a coarser one.
	for _, v := range voys {
		track := f.TrackDuring(v)
		if len(track) < 4 {
			continue
		}
		r := track[len(track)/2]
		e, ok := est.Estimate(Query{Pos: r.Pos, VType: v.VType, Origin: v.Route.Origin, Dest: v.Route.Dest})
		if !ok {
			continue
		}
		if e.Source != inventory.GSCellODType {
			t.Errorf("expected OD-specific source, got %v", e.Source)
		}
		// Without OD knowledge, the answer falls back to a coarser set.
		e2, ok := est.Estimate(Query{Pos: r.Pos, VType: v.VType})
		if !ok {
			t.Error("type-only query must still answer on a lane")
		} else if e2.Source == inventory.GSCellODType {
			t.Error("type-only query must not report OD source")
		}
		// Unknown everything: all-traffic cell summary.
		e3, ok := est.Estimate(Query{Pos: r.Pos})
		if !ok || e3.Source != inventory.GSCell {
			t.Errorf("anonymous query source %v ok=%v", e3.Source, ok)
		}
		return
	}
	t.Fatal("no voyage produced an OD-answerable report")
}

func TestEstimatePercentilesOrdered(t *testing.T) {
	f := getFixture(t)
	est := New(f.Inventory)
	for _, v := range f.CompletedVoyages()[:1] {
		track := f.TrackDuring(v)
		r := track[len(track)/3]
		e, ok := est.Estimate(Query{Pos: r.Pos})
		if !ok {
			t.Fatal("no estimate")
		}
		if !(e.P10 <= e.P50 && e.P50 <= e.P90) {
			t.Errorf("percentiles not ordered: %v %v %v", e.P10, e.P50, e.P90)
		}
		if e.Records == 0 {
			t.Error("records must be reported")
		}
		if e.Mean <= 0 {
			t.Errorf("mean remaining time %v must be positive mid-trip", e.Mean)
		}
	}
}

func TestEstimateOpenOcean(t *testing.T) {
	f := getFixture(t)
	est := New(f.Inventory)
	// The southern Pacific far from any lane must have no estimate.
	if _, ok := est.Estimate(Query{Pos: geo.LatLng{Lat: -55, Lng: -130}}); ok {
		t.Error("open-ocean query must not answer")
	}
	if _, ok := est.Estimate(Query{Pos: geo.LatLng{Lat: 91, Lng: 0}}); ok {
		t.Error("invalid position must not answer")
	}
}

func TestEstimateZeroDurations(t *testing.T) {
	inv := inventory.New(inventory.BuildInfo{Resolution: 6})
	est := New(inv)
	if _, ok := est.Estimate(Query{Pos: geo.LatLng{Lat: 52, Lng: 4}, VType: model.VesselCargo}); ok {
		t.Error("empty inventory must not answer")
	}
	_ = time.Second
}

// BenchmarkEstimate is one baseline ETA query (§4.1.2) from mid-voyage.
func BenchmarkEstimate(b *testing.B) {
	f := getFixture(b)
	v := f.CompletedVoyages()[0]
	track := f.TrackDuring(v)
	est := New(f.Inventory)
	q := Query{Pos: track[len(track)/2].Pos, VType: v.VType, Origin: v.Route.Origin, Dest: v.Route.Dest}
	b.ResetTimer()
	for range b.N {
		if _, ok := est.Estimate(q); !ok {
			b.Fatal("no estimate")
		}
	}
}
