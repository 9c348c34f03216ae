package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/ports"
)

// TestDestinationsTypeFilter verifies /v1/destinations accepts the type
// parameter with the same semantics as /v1/cell: the (cell, vessel-type)
// grouping set narrows results to one market segment.
func TestDestinationsTypeFilter(t *testing.T) {
	f, ts := setup(t)

	// Find a lane location and a vessel type with traffic there.
	var query, typeName string
	for _, v := range f.CompletedVoyages() {
		track := f.TrackDuring(v)
		if len(track) < 10 {
			continue
		}
		mid := track[len(track)/2]
		if _, ok := f.Inventory.At(mid.Pos); ok {
			query = fmt.Sprintf("lat=%f&lng=%f", mid.Pos.Lat, mid.Pos.Lng)
			typeName = v.VType.String()
			break
		}
	}
	if query == "" {
		t.Fatal("no lane location found")
	}

	var all, typed []PortCount
	get(t, ts, "/v1/destinations?"+query, http.StatusOK, &all)
	get(t, ts, "/v1/destinations?"+query+"&type="+typeName, http.StatusOK, &typed)
	if len(typed) == 0 {
		t.Fatalf("type filter %q returned nothing", typeName)
	}
	// The typed view is a subset: no destination can have more
	// observations for one type than for all types combined.
	total := func(pcs []PortCount) (n uint64) {
		for _, pc := range pcs {
			n += pc.Count
		}
		return
	}
	if total(typed) > total(all) {
		t.Errorf("typed counts %d exceed unfiltered %d", total(typed), total(all))
	}
	get(t, ts, "/v1/destinations?"+query+"&type=zeppelin", http.StatusBadRequest, nil)
}

// TestHandlerInstrumented verifies the metrics middleware records
// per-endpoint counters and latency histograms for API traffic.
func TestHandlerInstrumented(t *testing.T) {
	f, _ := setup(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServer(f.Inventory, ports.Default()).WithMetrics(reg).Handler())
	defer srv.Close()

	paths := []string{
		"/v1/info",
		"/v1/cell?" + laneQuery(t, f),
		"/v1/cell?lat=bogus", // 400
		"/v1/cell?lat=-55&lng=-140",
	}
	for _, p := range paths {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	if n := reg.Counter(obs.MetricHTTPRequests, obs.Labels{"endpoint": "/v1/info", "class": "2xx"}).Value(); n != 1 {
		t.Errorf("info 2xx count %d", n)
	}
	if n := reg.Counter(obs.MetricHTTPRequests, obs.Labels{"endpoint": "/v1/cell", "class": "4xx"}).Value(); n != 2 {
		t.Errorf("cell 4xx count %d", n)
	}
	if n := reg.Histogram(obs.MetricHTTPRequestSeconds, obs.Labels{"endpoint": "/v1/cell"}).Count(); n != 3 {
		t.Errorf("cell latency observations %d", n)
	}

	// And the exposition surface shows it.
	resp, err := http.Get(srv.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	if !strings.Contains(string(body), `pol_http_request_seconds_count{endpoint="/v1/info"} 2`) {
		t.Errorf("exposition missing instrumented endpoint:\n%s", body)
	}
}

// TestInfoLiveStatus verifies a live node's uptime and snapshot age are
// served once, on /v1/status, and that /v1/info carries no live block,
// whether the source is static or live.
func TestInfoLiveStatus(t *testing.T) {
	f, static := setup(t)
	live := liveNode(t, StaticSource{Inv: f.Inventory}, ingest.Status{
		State:              "primary",
		UptimeSeconds:      90,
		SnapshotAgeSeconds: 7,
	})
	for name, srv := range map[string]*httptest.Server{"static": static, "live": live} {
		var info map[string]json.RawMessage
		get(t, srv, "/v1/info", http.StatusOK, &info)
		if _, ok := info["live"]; ok {
			t.Errorf("%s source: /v1/info carries a live block", name)
		}
	}

	var st struct {
		State              string `json:"state"`
		UptimeSeconds      int64  `json:"uptime_seconds"`
		SnapshotAgeSeconds int64  `json:"snapshot_age_seconds"`
	}
	get(t, live, "/v1/status", http.StatusOK, &st)
	if st.State != "primary" || st.UptimeSeconds != 90 || st.SnapshotAgeSeconds != 7 {
		t.Errorf("status head %+v", st)
	}
}
