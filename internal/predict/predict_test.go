package predict

import (
	"testing"

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

func TestPredictorRecoversTrueDestination(t *testing.T) {
	// Replay each completed voyage with the destination hidden: after
	// observing most of the trip, the true destination must rank in the
	// top-3 for a clear majority of voyages. (The inventory contains the
	// voyage's own history, so this checks the voting machinery and the
	// discriminative power of the per-cell destination statistics.)
	f := getFixture(t)
	voys := f.CompletedVoyages()
	if len(voys) < 10 {
		t.Fatalf("only %d completed voyages", len(voys))
	}
	top1, top3, evaluated := 0, 0, 0
	for _, v := range voys {
		track := f.TrackDuring(v)
		if len(track) < 20 {
			continue
		}
		p := New(f.Inventory, v.VType)
		for _, r := range track[:len(track)*9/10] {
			p.Observe(r.Pos)
		}
		evaluated++
		for rank, pred := range p.Top(3) {
			if pred.Port == v.Route.Dest {
				top3++
				if rank == 0 {
					top1++
				}
				break
			}
		}
	}
	if evaluated < 10 {
		t.Fatalf("only %d voyages evaluated", evaluated)
	}
	if frac := float64(top3) / float64(evaluated); frac < 0.6 {
		t.Errorf("top-3 accuracy %.0f%% (%d/%d), want >= 60%%", frac*100, top3, evaluated)
	}
	if top1 == 0 {
		t.Error("top-1 accuracy must be nonzero")
	}
	t.Logf("destination prediction: top-1 %d/%d, top-3 %d/%d", top1, evaluated, top3, evaluated)
}

func TestAccuracyRisesWithObservedFraction(t *testing.T) {
	f := getFixture(t)
	voys := f.CompletedVoyages()
	hit := func(frac float64) (int, int) {
		hits, n := 0, 0
		for _, v := range voys {
			track := f.TrackDuring(v)
			if len(track) < 20 {
				continue
			}
			p := New(f.Inventory, v.VType)
			for _, r := range track[:int(float64(len(track))*frac)] {
				p.Observe(r.Pos)
			}
			n++
			for _, pred := range p.Top(3) {
				if pred.Port == v.Route.Dest {
					hits++
					break
				}
			}
		}
		return hits, n
	}
	early, n1 := hit(0.2)
	late, n2 := hit(0.9)
	if n1 == 0 || n2 == 0 {
		t.Fatal("no voyages evaluated")
	}
	if late < early {
		t.Errorf("top-3 hits must not fall as more trip is observed: %d/%d early vs %d/%d late",
			early, n1, late, n2)
	}
	t.Logf("top-3 hits at 20%% observed: %d/%d; at 90%%: %d/%d", early, n1, late, n2)
}

func TestPredictorLifecycle(t *testing.T) {
	f := getFixture(t)
	p := New(f.Inventory, model.VesselContainer)
	if _, ok := p.Best(); ok {
		t.Error("no observations yet: Best must report !ok")
	}
	if p.obs != 0 {
		t.Error("fresh predictor has observations")
	}
	// Observing open ocean contributes nothing but counts.
	p.Observe(geo.LatLng{Lat: -55, Lng: -140})
	if p.obs != 1 {
		t.Error("observation count must advance")
	}
	if _, ok := p.Best(); ok {
		t.Error("open-ocean observation must not produce a prediction")
	}
	// Observing a lane cell produces candidates.
	voys := f.CompletedVoyages()
	track := f.TrackDuring(voys[0])
	for _, r := range track[:10] {
		p.Observe(r.Pos)
	}
	if _, ok := p.Best(); !ok {
		t.Error("lane observations must produce a prediction")
	}
	if len(p.Top(1000)) > inventory.TopNCapacity*10 {
		t.Error("candidate set implausibly large")
	}
}

func TestTopDeterministicOrder(t *testing.T) {
	f := getFixture(t)
	p := New(f.Inventory, model.VesselContainer)
	voys := f.CompletedVoyages()
	for _, r := range f.TrackDuring(voys[0])[:20] {
		p.Observe(r.Pos)
	}
	a := p.Top(5)
	b := p.Top(5)
	if len(a) != len(b) {
		t.Fatal("unstable top size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("top order not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Score > a[i-1].Score {
			t.Fatal("top not sorted by score")
		}
	}
}

// BenchmarkReplayVoyage streams one voyage through the predictor (§4.1.3).
func BenchmarkReplayVoyage(b *testing.B) {
	f := getFixture(b)
	v := f.CompletedVoyages()[0]
	track := f.TrackDuring(v)
	b.ResetTimer()
	for range b.N {
		p := New(f.Inventory, v.VType)
		for _, r := range track {
			p.Observe(r.Pos)
		}
		if _, ok := p.Best(); !ok {
			b.Fatal("no prediction")
		}
	}
	b.ReportMetric(float64(len(track)), "reports/op")
}
