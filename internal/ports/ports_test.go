package ports

import (
	"math/rand"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
)

func TestDefaultGazetteer(t *testing.T) {
	g := Default()
	if g.Len() < 120 {
		t.Fatalf("gazetteer has %d ports, want >= 120 major ports", g.Len())
	}
	// IDs are sequential starting at 1.
	for i, p := range g.All() {
		if p.ID != model.PortID(i+1) {
			t.Fatalf("port %q has id %d, want %d", p.Name, p.ID, i+1)
		}
		if !p.Pos.Valid() {
			t.Errorf("port %q has invalid position %v", p.Name, p.Pos)
		}
		if p.Name == "" || p.Country == "" {
			t.Errorf("port %d missing name/country", p.ID)
		}
	}
}

func TestGazetteerNoDuplicateNames(t *testing.T) {
	g := Default()
	seen := map[string]bool{}
	for _, p := range g.All() {
		if seen[p.Name] {
			t.Errorf("duplicate port name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestGazetteerLookups(t *testing.T) {
	g := Default()
	sg, ok := g.ByName("Singapore")
	if !ok {
		t.Fatal("Singapore missing")
	}
	if sg.Size != SizeMega {
		t.Errorf("Singapore should be a mega port")
	}
	if got, ok := g.ByName("singapore"); !ok || got.ID != sg.ID {
		t.Error("name lookup must be case-insensitive")
	}
	byID, ok := g.ByID(sg.ID)
	if !ok || byID.Name != "Singapore" {
		t.Error("ByID round trip failed")
	}
	if _, ok := g.ByID(model.NoPort); ok {
		t.Error("NoPort must not resolve")
	}
	if _, ok := g.ByID(model.PortID(g.Len() + 1)); ok {
		t.Error("out-of-range id must not resolve")
	}
	if _, ok := g.ByName("Atlantis"); ok {
		t.Error("unknown name must not resolve")
	}
}

func TestPaperFigure6PortsPresent(t *testing.T) {
	// Figure 6 of the paper highlights Singapore, Shanghai and Rotterdam.
	g := Default()
	for _, name := range []string{"Singapore", "Shanghai", "Rotterdam"} {
		if _, ok := g.ByName(name); !ok {
			t.Errorf("port %q required by Figure 6 missing", name)
		}
	}
}

func TestNearest(t *testing.T) {
	g := Default()
	// A point in the North Sea off the Dutch coast is nearest Rotterdam or
	// Amsterdam-area ports.
	port, dist, ok := g.Nearest(geo.LatLng{Lat: 52.0, Lng: 3.9})
	if !ok {
		t.Fatal("nearest failed")
	}
	if port.Country != "NL" && port.Country != "BE" {
		t.Errorf("nearest to Dutch coast is %v", port)
	}
	if dist > 100000 {
		t.Errorf("distance %v m too large", dist)
	}
	empty := New(nil)
	if _, _, ok := empty.Nearest(geo.LatLng{}); ok {
		t.Error("empty gazetteer must report !ok")
	}
}

func TestPortContains(t *testing.T) {
	g := Default()
	rtm, _ := g.ByName("Rotterdam")
	if !rtm.Contains(rtm.Pos) {
		t.Error("port must contain its own center")
	}
	edge := geo.Destination(rtm.Pos, 90, rtm.FenceRadiusM()-100)
	if !rtm.Contains(edge) {
		t.Error("point just inside fence must be contained")
	}
	outside := geo.Destination(rtm.Pos, 90, rtm.FenceRadiusM()+1000)
	if rtm.Contains(outside) {
		t.Error("point outside fence must not be contained")
	}
}

func TestSizeClassProperties(t *testing.T) {
	if !(SizeMega.Weight() > SizeLarge.Weight() && SizeLarge.Weight() > SizeMedium.Weight()) {
		t.Error("weights must be ordered mega > large > medium")
	}
	if !(SizeMega.FenceRadiusM() > SizeLarge.FenceRadiusM() && SizeLarge.FenceRadiusM() > SizeMedium.FenceRadiusM()) {
		t.Error("fence radii must be ordered mega > large > medium")
	}
	for _, s := range []SizeClass{SizeMedium, SizeLarge, SizeMega} {
		if s.String() == "" {
			t.Error("size class must have a label")
		}
	}
}

func TestIndexFindsPortsEverywhereInsideFences(t *testing.T) {
	g := Default()
	idx := NewIndex(g, IndexResolution)
	if len(idx.cells) == 0 {
		t.Fatal("index is empty")
	}
	rng := rand.New(rand.NewSource(23))
	for _, p := range g.All() {
		// Sample points inside the fence; all must geofence to some port
		// (usually this one — a few ports legitimately overlap, e.g. LA and
		// Long Beach).
		for i := 0; i < 10; i++ {
			q := geo.Destination(p.Pos, rng.Float64()*360, rng.Float64()*p.FenceRadiusM()*0.95)
			id, ok := idx.PortAt(q)
			if !ok {
				t.Fatalf("point inside %s fence not geofenced", p.Name)
			}
			found, _ := g.ByID(id)
			if geo.Haversine(q, found.Pos) > found.FenceRadiusM() {
				t.Fatalf("geofenced to %s but outside its radius", found.Name)
			}
		}
	}
}

func TestIndexRejectsOpenSea(t *testing.T) {
	g := Default()
	idx := NewIndex(g, IndexResolution)
	openSea := []geo.LatLng{
		{Lat: 45, Lng: -40},  // mid North Atlantic
		{Lat: -30, Lng: 90},  // southern Indian Ocean
		{Lat: 20, Lng: -150}, // mid Pacific
		{Lat: 0, Lng: -25},   // equatorial Atlantic
	}
	for _, p := range openSea {
		if id, ok := idx.PortAt(p); ok {
			t.Errorf("open-sea point %v geofenced to port %d", p, id)
		}
	}
}

func TestIndexOverlapPrefersNearest(t *testing.T) {
	// Los Angeles and Long Beach fences overlap; a point at the LA center
	// must resolve to LA.
	g := Default()
	idx := NewIndex(g, IndexResolution)
	la, _ := g.ByName("Los Angeles")
	id, ok := idx.PortAt(la.Pos)
	if !ok || id != la.ID {
		got, _ := g.ByID(id)
		t.Errorf("LA center resolved to %v", got.Name)
	}
}

func BenchmarkIndexPortAt(b *testing.B) {
	g := Default()
	idx := NewIndex(g, IndexResolution)
	sg, _ := g.ByName("Singapore")
	inFence := geo.Destination(sg.Pos, 45, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.PortAt(inFence)
	}
}

func BenchmarkIndexMiss(b *testing.B) {
	g := Default()
	idx := NewIndex(g, IndexResolution)
	openSea := geo.LatLng{Lat: 45, Lng: -40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.PortAt(openSea)
	}
}
