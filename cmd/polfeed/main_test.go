package main

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// TestSettle polls a real engine's /v1/status: settle returns the document
// once every feed is closed and the counters stop moving, and errors at
// its deadline while a feed is still open.
func TestSettle(t *testing.T) {
	s, err := sim.New(sim.Config{Vessels: 6, Days: 16, Seed: 3}, ports.Default())
	if err != nil {
		t.Fatal(err)
	}
	var stream []model.PositionRecord
	for i := range s.Fleet().Vessels {
		track, _ := s.VesselTrack(i)
		stream = append(stream, track...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })

	eng, err := ingest.NewEngine(ingest.Options{Resolution: 6, MergeEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := httptest.NewServer(ingest.ServeStatus(eng.StatsSnapshot))
	defer srv.Close()

	fs := eng.RegisterFeed("test")
	for _, v := range s.Fleet().StaticIndex() {
		if err := eng.SubmitStatic(v, fs); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range stream {
		if err := eng.SubmitPosition(rec, fs); err != nil {
			t.Fatal(err)
		}
	}
	fs.Closed.Store(true)

	body, err := settle(srv.URL, 20*time.Millisecond, time.Now().Add(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Settled means everything fed is counted and every completed trip is
	// served: the document's key is the engine's.
	key, drained, ok := counterKey(body)
	st := eng.StatsSnapshot()
	want := fmt.Sprintf("%d/%d/%d/%d/%d/%d", len(stream), st.StaticsSeen, st.Accepted, st.Rejected, st.Groups, st.DegradedDropped)
	if !ok || !drained || key != want || st.Groups == 0 {
		t.Fatalf("settled on key %q (drained %v, ok %v); the engine is at %q", key, drained, ok, want)
	}

	eng.RegisterFeed("still open")
	if _, err := settle(srv.URL, 20*time.Millisecond, time.Now().Add(300*time.Millisecond)); err == nil {
		t.Fatal("settle returned while a feed was still open")
	}
}
