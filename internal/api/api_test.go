package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

var (
	fixture *testutil.Fixture
	ts      *httptest.Server
)

func setup(t testing.TB) (*testutil.Fixture, *httptest.Server) {
	t.Helper()
	if fixture == nil {
		fixture = testutil.Build(t, sim.Config{Vessels: 20, Days: 20, Seed: 55}, 6)
		srv := NewServer(fixture.Inventory, ports.Default())
		ts = httptest.NewServer(srv.Handler())
	}
	return fixture, ts
}

func get(t *testing.T, ts *httptest.Server, path string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
}

func TestInfoEndpoint(t *testing.T) {
	_, ts := setup(t)
	var info struct {
		Resolution  int            `json:"resolution"`
		RawRecords  int64          `json:"rawRecords"`
		Groups      map[string]int `json:"groups"`
		Cells       int            `json:"cells"`
		Utilization float64        `json:"utilization"`
	}
	get(t, ts, "/v1/info", http.StatusOK, &info)
	if info.Resolution != 6 {
		t.Errorf("resolution %d", info.Resolution)
	}
	if info.RawRecords == 0 || info.Cells == 0 || len(info.Groups) != 3 {
		t.Errorf("info degenerate: %+v", info)
	}
	if info.Utilization <= 0 || info.Utilization >= 1 {
		t.Errorf("utilization %v", info.Utilization)
	}
}

// liveNode mounts src's query API and a /v1/status serving st on one mux,
// as polserve mounts a stateful node.
func liveNode(t *testing.T, src Source, st ingest.Status) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/", NewLiveServer(src, ports.Default()).Handler())
	mux.Handle("GET /v1/status", ingest.ServeStatus(func() ingest.Status { return st }))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestInfoReplicationBlocks verifies the WAL and replica frontiers — the
// numbers a lag monitor scrapes — are served once, on /v1/status under
// their one spelling, and that /v1/info carries no wal or replica block,
// for a plain batch inventory and a live node alike.
func TestInfoReplicationBlocks(t *testing.T) {
	f, plain := setup(t)
	live := liveNode(t, StaticSource{Inv: f.Inventory}, ingest.Status{
		State:           "applier",
		Generation:      3,
		EngineSection:   &ingest.EngineSection{CkptSeq: 1200, WALSeq: 1234},
		FollowerSection: &ingest.FollowerSection{AppliedSeq: 1230, PrimarySeq: 1234, LagSeconds: 0.25},
	})
	for name, srv := range map[string]*httptest.Server{"plain": plain, "live": live} {
		var info map[string]json.RawMessage
		get(t, srv, "/v1/info", http.StatusOK, &info)
		for _, block := range []string{"wal", "replica"} {
			if _, ok := info[block]; ok {
				t.Errorf("%s source: /v1/info carries a %q block", name, block)
			}
		}
	}

	var st struct {
		Generation uint64 `json:"generation"`
		Engine     struct {
			CkptSeq uint64 `json:"ckpt_seq"`
			WALSeq  uint64 `json:"wal_seq"`
		} `json:"engine"`
		Follower struct {
			AppliedSeq uint64  `json:"applied_seq"`
			PrimarySeq uint64  `json:"primary_seq"`
			LagSeconds float64 `json:"lag_seconds"`
		} `json:"follower"`
	}
	get(t, live, "/v1/status", http.StatusOK, &st)
	if st.Generation != 3 || st.Engine.CkptSeq != 1200 || st.Engine.WALSeq != 1234 {
		t.Errorf("WAL frontier %d/%d/%d", st.Generation, st.Engine.CkptSeq, st.Engine.WALSeq)
	}
	if st.Follower.AppliedSeq != 1230 || st.Follower.PrimarySeq != 1234 || st.Follower.LagSeconds != 0.25 {
		t.Errorf("follower section %+v", st.Follower)
	}
}

// laneQuery returns a query string for a location guaranteed to have data.
func laneQuery(t *testing.T, f *testutil.Fixture) string {
	t.Helper()
	for _, v := range f.CompletedVoyages() {
		track := f.TrackDuring(v)
		if len(track) < 10 {
			continue
		}
		mid := track[len(track)/2]
		if _, ok := f.Inventory.At(mid.Pos); ok {
			return fmt.Sprintf("lat=%f&lng=%f", mid.Pos.Lat, mid.Pos.Lng)
		}
	}
	t.Fatal("no lane location found")
	return ""
}

func TestCellEndpoint(t *testing.T) {
	f, ts := setup(t)
	var s Summary
	get(t, ts, "/v1/cell?"+laneQuery(t, f), http.StatusOK, &s)
	if s.Records == 0 || s.Cell == "" {
		t.Errorf("summary degenerate: %+v", s)
	}
	if s.SpeedP10 == nil || s.SpeedP50 == nil || s.SpeedP90 == nil || s.SpeedMean == nil {
		t.Fatalf("lane cell reports null speed statistics: %+v", s)
	}
	if !(*s.SpeedP10 <= *s.SpeedP50 && *s.SpeedP50 <= *s.SpeedP90) {
		t.Errorf("percentiles unordered: %v %v %v", *s.SpeedP10, *s.SpeedP50, *s.SpeedP90)
	}
	if len(s.CourseBins) != 12 {
		t.Errorf("course bins %d, want 12", len(s.CourseBins))
	}
	if len(s.TopDests) == 0 {
		t.Error("no destinations in lane cell")
	}
}

// TestCellWithEmptyAccumulators: a cell that holds records but no sample
// for some statistic (empty accumulators report NaN, which JSON cannot
// carry) answers 200 with a complete, valid document and null in exactly
// those fields — it used to answer 200 with an empty body.
func TestCellWithEmptyAccumulators(t *testing.T) {
	pos := geo.LatLng{Lat: 12.5, Lng: -38.25}
	inv := inventory.New(inventory.BuildInfo{Resolution: 6})
	cs := inventory.NewCellSummary()
	cs.Records = 3
	cs.Ships.AddUint64(244000001)
	cs.Speed.Add(11.5)
	cs.SpeedDig.Add(11.5)
	cs.Course.Add(90)
	// No heading, ATA or ETO sample.
	inv.Put(inventory.GroupKey{Set: inventory.GSCell, Cell: hexgrid.LatLngToCell(pos, 6)}, cs)
	srv := httptest.NewServer(NewServer(inv, ports.Default()).Handler())
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("%s/v1/cell?lat=%f&lng=%f", srv.URL, pos.Lat, pos.Lng))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !json.Valid(body) {
		t.Fatalf("status %d, body %q", resp.StatusCode, body)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"ataMeanSeconds", "etoMeanSeconds", "headingMeanDeg"} {
		if v, present := raw[field]; !present || v != nil {
			t.Errorf("%s = %v (present %v), want an explicit null", field, v, present)
		}
	}
	if raw["records"] != float64(3) || raw["speedMeanKn"] != 11.5 || raw["courseMeanDeg"] == nil {
		t.Errorf("sampled statistics wrong or nulled: %s", body)
	}
}

// TestWriteJSONNeverAnswersEmpty: the writer has no failure path, so a
// document holding NaN or ±Inf — as a member or a list element — answers
// its status with a complete, valid body, null in exactly those places and
// a Content-Length that matches. (TestBodiesMatchReference checks every
// route's bodies on the fixture are valid too.)
func TestWriteJSONNeverAnswersEmpty(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		j := newBody()
		j.open("", '{')
		j.f64("mean", v)
		j.open("bins", '[')
		j.f64("", v)
		j.f64("", 2.5)
		j.close(']')
		j.close('}')
		rec := httptest.NewRecorder()
		j.send(rec, http.StatusOK)
		body := rec.Body.Bytes()
		var doc struct {
			Mean *float64   `json:"mean"`
			Bins []*float64 `json:"bins"`
		}
		if rec.Code != http.StatusOK || !json.Valid(body) || json.Unmarshal(body, &doc) != nil {
			t.Fatalf("%v: status %d, body %q", v, rec.Code, body)
		}
		if doc.Mean != nil || len(doc.Bins) != 2 || doc.Bins[0] != nil || doc.Bins[1] == nil || *doc.Bins[1] != 2.5 {
			t.Errorf("%v: body %q, want null for the non-finite values only", v, body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(body)) {
			t.Errorf("%v: Content-Length %q for a %d-byte body", v, cl, len(body))
		}
	}
}

func TestCellEndpointErrors(t *testing.T) {
	_, ts := setup(t)
	get(t, ts, "/v1/cell", http.StatusBadRequest, nil)
	get(t, ts, "/v1/cell?lat=abc&lng=3", http.StatusBadRequest, nil)
	get(t, ts, "/v1/cell?lat=95&lng=3", http.StatusBadRequest, nil)
	get(t, ts, "/v1/cell?lat=-55&lng=-140", http.StatusNotFound, nil)
	get(t, ts, "/v1/cell?lat=1&lng=1&type=zeppelin", http.StatusBadRequest, nil)
}

func TestDestinationsEndpoint(t *testing.T) {
	f, ts := setup(t)
	var dests []PortCount
	get(t, ts, "/v1/destinations?"+laneQuery(t, f)+"&n=3", http.StatusOK, &dests)
	if len(dests) == 0 || len(dests) > 3 {
		t.Errorf("destinations: %+v", dests)
	}
	for _, d := range dests {
		if d.Port == "" || d.Count == 0 {
			t.Errorf("degenerate destination %+v", d)
		}
	}
	get(t, ts, "/v1/destinations?lat=-55&lng=-140", http.StatusNotFound, nil)
}

func TestETAEndpoint(t *testing.T) {
	f, ts := setup(t)
	var est struct {
		MeanSeconds float64 `json:"meanSeconds"`
		Records     uint64  `json:"records"`
		Source      string  `json:"source"`
	}
	get(t, ts, "/v1/eta?"+laneQuery(t, f), http.StatusOK, &est)
	if est.MeanSeconds <= 0 || est.Records == 0 || est.Source == "" {
		t.Errorf("eta degenerate: %+v", est)
	}
	get(t, ts, "/v1/eta?lat=-55&lng=-140", http.StatusNotFound, nil)
	get(t, ts, "/v1/eta?lat=1&lng=1&origin=Atlantis", http.StatusBadRequest, nil)
}

func TestODCellsAndForecastEndpoints(t *testing.T) {
	f, ts := setup(t)
	// Find a voyage with OD history.
	var v sim.Voyage
	for _, cand := range f.CompletedVoyages() {
		if len(f.Inventory.ODCells(cand.Route.Origin, cand.Route.Dest, cand.VType)) > 10 {
			v = cand
			break
		}
	}
	if v.MMSI == 0 {
		t.Fatal("no OD key with history")
	}
	typeName := v.VType.String()
	q := url.Values{}
	q.Set("origin", fmt.Sprint(uint32(v.Route.Origin)))
	q.Set("dest", fmt.Sprint(uint32(v.Route.Dest)))
	q.Set("type", typeName)

	var cells []CellPos
	get(t, ts, "/v1/odcells?"+q.Encode(), http.StatusOK, &cells)
	if len(cells) <= 10 {
		t.Fatalf("odcells returned %d", len(cells))
	}
	// Forecast from the first cell of the track.
	track := f.TrackDuring(v)
	q.Set("lat", fmt.Sprint(track[len(track)/4].Pos.Lat))
	q.Set("lng", fmt.Sprint(track[len(track)/4].Pos.Lng))
	var path []CellPos
	get(t, ts, "/v1/forecast?"+q.Encode(), http.StatusOK, &path)
	if len(path) < 3 {
		t.Errorf("forecast path %d cells", len(path))
	}
	// Missing key parts are rejected.
	get(t, ts, "/v1/odcells?origin=1", http.StatusBadRequest, nil)
	get(t, ts, "/v1/forecast?origin=1&dest=2&type=container&lat=0&lng=0", http.StatusNotFound, nil)
	get(t, ts, "/v1/odcells?origin=999999&dest=2", http.StatusBadRequest, nil)
}

func TestPortNameResolutionInQueries(t *testing.T) {
	f, ts := setup(t)
	// Port names (not just ids) resolve in eta queries.
	get(t, ts, "/v1/eta?"+laneQuery(t, f)+"&origin=Rotterdam&dest=Singapore&type=container",
		http.StatusOK, nil)
}

func TestParseVesselType(t *testing.T) {
	cases := map[string]model.VesselType{
		"": model.VesselUnknown, "cargo": model.VesselCargo, "CONTAINER": model.VesselContainer,
		"Bulk": model.VesselBulk, "tanker": model.VesselTanker, "passenger": model.VesselPassenger,
	}
	for in, want := range cases {
		got, err := ParseVesselType(in)
		if err != nil || got != want {
			t.Errorf("ParseVesselType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseVesselType("submarine"); err == nil {
		t.Error("unknown type must error")
	}
}
