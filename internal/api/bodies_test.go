package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/segment"
)

// Sources that can report live, WAL and replica status, as the daemons'
// engines and replicas can. /v1/info describes the inventory alone for
// them too: a node's status is /v1/status's.
type liveSource struct{ StaticSource }

func (liveSource) Uptime() time.Duration      { return 90*time.Second + 999*time.Millisecond }
func (liveSource) SnapshotAge() time.Duration { return 7 * time.Second }

type walReplicaSource struct{ StaticSource }

func (walReplicaSource) WALStatus() (uint64, uint64, uint64) { return 3, 1200, 1234 }
func (walReplicaSource) ReplicaStatus() (uint64, uint64, time.Duration) {
	return 1230, 1234, 250 * time.Millisecond
}

type allSource struct{ liveSource }

func (allSource) WALStatus() (uint64, uint64, uint64) { return 7, 1 << 40, 1<<40 + 9 }
func (allSource) ReplicaStatus() (uint64, uint64, time.Duration) {
	return 1<<40 - 3, 1 << 40, 1500 * time.Microsecond
}

// cellQuery spells a cell's center as the harness's query mix does.
func cellQuery(c hexgrid.Cell) string {
	p := c.LatLng()
	return "lat=" + strconv.FormatFloat(p.Lat, 'f', -1, 64) + "&lng=" + strconv.FormatFloat(p.Lng, 'f', -1, 64)
}

// odKeys lists the fixture's distinct (origin, dest, type) keys with
// history, in a fixed order.
func odKeys(inv *inventory.Inventory) []inventory.GroupKey {
	seen := map[inventory.GroupKey]bool{}
	var keys []inventory.GroupKey
	inv.Each(func(k inventory.GroupKey, _ *inventory.CellSummary) bool {
		if k.Set == inventory.GSCellODType {
			k.Cell = hexgrid.InvalidCell
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		return true
	})
	return keys
}

func odQuery(k inventory.GroupKey) string {
	return fmt.Sprintf("origin=%d&dest=%d&type=%s", uint32(k.Origin), uint32(k.Dest), k.VType)
}

// fixturePaths is the request set TestBodiesMatchReference replays: every
// cell with and without each type, destinations at six n, an ETA grid of
// port ids and names plus every cell of every OD key, odcells and forecast
// for every OD key, and every 400/404 path.
func fixturePaths(inv *inventory.Inventory) []string {
	var paths []string
	cells := inv.Cells(inventory.GSCell)
	types := []string{"", "&type=cargo", "&type=container", "&type=bulk", "&type=tanker", "&type=passenger"}
	ns := []string{"", "&n=0", "&n=-3", "&n=1", "&n=5", "&n=50"}
	for i, c := range cells {
		for _, ty := range types {
			paths = append(paths, "/v1/cell?"+cellQuery(c)+ty)
		}
		paths = append(paths, "/v1/destinations?"+cellQuery(c)+ns[i%len(ns)]+types[i/len(ns)%len(types)])
	}
	var portRefs []string
	for i, p := range ports.Default().All() {
		if i%25 == 0 {
			portRefs = append(portRefs, strconv.Itoa(int(p.ID)), url.QueryEscape(p.Name))
		}
	}
	portRefs = append(portRefs, "")
	for i := 0; i < len(cells); i += 200 {
		for _, o := range portRefs {
			for _, d := range portRefs {
				paths = append(paths, "/v1/eta?"+cellQuery(cells[i])+"&origin="+o+"&dest="+d+types[i%len(types)])
			}
		}
	}
	for _, k := range odKeys(inv) {
		od := inv.ODCells(k.Origin, k.Dest, k.VType)
		paths = append(paths, "/v1/odcells?"+odQuery(k), "/v1/forecast?"+odQuery(k)+"&"+cellQuery(od[len(od)/2]))
		for _, c := range od {
			paths = append(paths, "/v1/eta?"+odQuery(k)+"&"+cellQuery(c))
		}
	}
	odd := url.QueryEscape("a<b>&c\xe2\x80\xa8d\xe2\x80\xa9\xff\"\\\x01\t")
	return append(paths,
		"/v1/cell", "/v1/cell?lat=abc&lng=3", "/v1/cell?lat=95&lng=3", "/v1/cell?lat=-55&lng=-140",
		"/v1/cell?lat=1&lng=1&type=zeppelin", "/v1/cell?lat=1&lng=1&type="+odd,
		"/v1/destinations", "/v1/destinations?lat=1&lng=x", "/v1/destinations?lat=-55&lng=-140",
		"/v1/destinations?lat=-55&lng=-140&type=tanker", "/v1/destinations?lat=1&lng=1&type="+odd,
		"/v1/eta", "/v1/eta?lat=-55&lng=-140", "/v1/eta?lat=1&lng=1&type="+odd,
		"/v1/eta?lat=1&lng=1&origin=Atlantis", "/v1/eta?lat=1&lng=1&origin="+odd,
		"/v1/eta?lat=1&lng=1&origin=999999", "/v1/eta?lat=1&lng=1&dest="+odd,
		"/v1/odcells", "/v1/odcells?origin=1", "/v1/odcells?dest=2", "/v1/odcells?origin=999999&dest=2",
		"/v1/odcells?origin="+odd+"&dest=2", "/v1/odcells?origin=1&dest=2&type="+odd,
		"/v1/odcells?origin=1&dest=2", "/v1/odcells?origin=1&dest=2&type=container",
		"/v1/forecast?origin=1", "/v1/forecast?origin=1&dest=2&lat=x&lng=0",
		"/v1/forecast?origin=1&dest=2&type=container&lat=0&lng=0", "/v1/forecast?origin="+odd+"&dest=2",
		"/v1/info",
		// Several bad parameters: the first the handler reads is reported.
		"/v1/cell?lat=x&type=zeppelin", "/v1/destinations?lat=1&lng=1&n=x&type=zeppelin",
		"/v1/eta?lat=x&type=zeppelin&origin=Atlantis&dest=Nowhere", "/v1/eta?lat=1&lng=1&type=zeppelin&origin=Atlantis",
		"/v1/eta?lat=1&lng=1&origin=Atlantis&dest=Nowhere", "/v1/odcells?origin=Atlantis&dest=Nowhere&type=zeppelin",
		"/v1/odcells?dest=Nowhere", "/v1/odcells?origin=1&type=zeppelin", "/v1/forecast?origin=1&dest=2&type=zeppelin&lat=x",
	)
}

// compareBodies replays each path through both handlers and requires the
// same status, Content-Type and body bytes, and from the writer a valid,
// non-empty document with a matching Content-Length.
func compareBodies(t *testing.T, got, want http.Handler, paths []string) {
	t.Helper()
	for _, p := range paths {
		g, w := httptest.NewRecorder(), httptest.NewRecorder()
		got.ServeHTTP(g, httptest.NewRequest(http.MethodGet, p, nil))
		want.ServeHTTP(w, httptest.NewRequest(http.MethodGet, p, nil))
		if g.Code != w.Code || !bytes.Equal(g.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("GET %s:\nwriter    %d %q\nreference %d %q", p, g.Code, g.Body.Bytes(), w.Code, w.Body.Bytes())
		}
		if gc, wc := g.Header().Get("Content-Type"), w.Header().Get("Content-Type"); gc != wc {
			t.Fatalf("GET %s: Content-Type %q, reference %q", p, gc, wc)
		}
		if cl := g.Header().Get("Content-Length"); cl != strconv.Itoa(g.Body.Len()) {
			t.Fatalf("GET %s: Content-Length %q for %d bytes", p, cl, g.Body.Len())
		}
		if !json.Valid(g.Body.Bytes()) {
			t.Fatalf("GET %s: invalid body %q", p, g.Body.Bytes())
		}
	}
}

// TestBodiesMatchReference holds every route's bytes to the reflection
// handlers the writer replaced (ref_test.go) on the fixture, on /v1/info
// over each status-reporting source, on the fixture served from a disk
// segment, and on a cell of NaN statistics.
func TestBodiesMatchReference(t *testing.T) {
	f, _ := setup(t)
	srv := NewServer(f.Inventory, ports.Default())
	paths := fixturePaths(f.Inventory)
	compareBodies(t, srv.Handler(), refHandler(srv), paths)
	t.Logf("%d fixture requests byte-identical", len(paths))

	path := filepath.Join(t.TempDir(), "fixture.seg")
	if err := segment.WriteFile(f.Inventory, path); err != nil {
		t.Fatal(err)
	}
	seg, err := segment.Open(path, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	var segPaths []string
	for _, ps := range routeSamples(f.Inventory) {
		segPaths = append(segPaths, ps...)
	}

	plain := StaticSource{Inv: f.Inventory}
	empty := StaticSource{Inv: inventory.New(inventory.BuildInfo{Resolution: 7, Description: "<empty> & \"quoted\""})}
	for name, src := range map[string]Source{
		"plain": plain, "empty": empty, "segment": StaticSource{Inv: seg},
		"live": liveSource{plain}, "wal+replica": walReplicaSource{plain}, "all": allSource{liveSource{plain}},
	} {
		s := NewLiveServer(src, ports.Default())
		paths := []string{"/v1/info"}
		if name == "segment" {
			paths = append(segPaths, paths...)
		}
		t.Run(name, func(t *testing.T) { compareBodies(t, s.Handler(), refHandler(s), paths) })
	}

	pos := geo.LatLng{Lat: 12.5, Lng: -38.25}
	nan := inventory.New(inventory.BuildInfo{Resolution: 6})
	cs := inventory.NewCellSummary()
	cs.Records = 3
	cs.Ships.AddUint64(244000001)
	cs.Speed.Add(11.5)
	cs.SpeedDig.Add(11.5)
	nan.Put(inventory.GroupKey{Set: inventory.GSCell, Cell: hexgrid.LatLngToCell(pos, 6)}, cs)
	s := NewServer(nan, ports.Default())
	q := fmt.Sprintf("lat=%v&lng=%v", pos.Lat, pos.Lng)
	compareBodies(t, s.Handler(), refHandler(s), []string{"/v1/cell?" + q, "/v1/destinations?" + q, "/v1/eta?" + q, "/v1/info"})
}

// TestTopListsMatchReference covers the list shapes the fixture may not
// reach: a transition to the invalid cell and an unknown port id.
func TestTopListsMatchReference(t *testing.T) {
	pos := geo.LatLng{Lat: -20.5, Lng: 60.25}
	inv := inventory.New(inventory.BuildInfo{Resolution: 6})
	cs := inventory.NewCellSummary()
	cs.Records = 1
	cs.Origins.AddWeighted(uint64(model.PortID(4242424)), 3)
	cs.Transitions.AddWeighted(uint64(hexgrid.InvalidCell), 2)
	inv.Put(inventory.GroupKey{Set: inventory.GSCell, Cell: hexgrid.LatLngToCell(pos, 6)}, cs)
	s := NewServer(inv, ports.Default())
	compareBodies(t, s.Handler(), refHandler(s), []string{fmt.Sprintf("/v1/cell?lat=%v&lng=%v", pos.Lat, pos.Lng)})
}

// TestConcurrentBodies: the pooled buffers are shared by every connection,
// so requests answered at once from several goroutines must each get the
// bytes the same request gets alone (run under -race by scripts/check.sh).
func TestConcurrentBodies(t *testing.T) {
	f, _ := setup(t)
	h := NewServer(f.Inventory, ports.Default()).Handler()
	var paths []string
	for _, ps := range routeSamples(f.Inventory) {
		paths = append(paths, ps...)
	}
	paths = append(paths, "/v1/cell?lat=1&lng=1&type=zeppelin")
	want := make([][]byte, len(paths))
	for i, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		want[i] = rec.Body.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range paths {
				i := (n*7 + g*13) % len(paths)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i], nil))
				if !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("GET %s under concurrency: %d bytes, alone %d", paths[i], rec.Body.Len(), len(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// discard is a ResponseWriter that keeps nothing, so AllocsPerRun counts
// the handler's allocations and not a recorder's.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(p []byte) (int, error) { return len(p), nil }
func (d discard) WriteHeader(int)             {}

// routeSamples picks, per route, requests that answer 200 on the fixture.
func routeSamples(f *inventory.Inventory) map[string][]string {
	cells := f.Cells(inventory.GSCell)
	keys := odKeys(f)
	out := map[string][]string{"info": {"/v1/info"}}
	for i := 0; i < 50; i++ {
		c := cells[i*len(cells)/50]
		k := keys[i*len(keys)/50]
		od := f.ODCells(k.Origin, k.Dest, k.VType)
		out["cell"] = append(out["cell"], "/v1/cell?"+cellQuery(c))
		out["destinations"] = append(out["destinations"], "/v1/destinations?"+cellQuery(c)+"&n=5")
		out["eta"] = append(out["eta"], "/v1/eta?"+cellQuery(od[0])+"&"+odQuery(k))
		out["odcells"] = append(out["odcells"], "/v1/odcells?"+odQuery(k))
	}
	return out
}

// TestHandlerAllocs bounds each route's allocations per request (routing,
// query parse, lookup and body; the writer itself allocates only when the
// pool is empty).
func TestHandlerAllocs(t *testing.T) {
	f, _ := setup(t)
	h := NewServer(f.Inventory, ports.Default()).Handler()
	ceiling := map[string]float64{"cell": 20, "destinations": 15, "eta": 20, "odcells": 25, "info": 15}
	for route, paths := range routeSamples(f.Inventory) {
		reqs := make([]*http.Request, len(paths))
		for i, p := range paths {
			reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
		}
		i := 0
		allocs := testing.AllocsPerRun(len(reqs)*4, func() {
			h.ServeHTTP(discard{h: http.Header{}}, reqs[i%len(reqs)])
			i++
		})
		if allocs > ceiling[route] {
			t.Errorf("%s: %.1f allocations per request, ceiling %.0f", route, allocs, ceiling[route])
		}
		t.Logf("%s: %.1f allocations per request", route, allocs)
	}
}

// BenchmarkHandlers reports ns/op and allocs/op per route on the fixture,
// the requests round-robin over the route's samples.
func BenchmarkHandlers(b *testing.B) {
	f, _ := setup(b)
	h := NewServer(f.Inventory, ports.Default()).Handler()
	for route, paths := range routeSamples(f.Inventory) {
		b.Run(route, func(b *testing.B) {
			reqs := make([]*http.Request, len(paths))
			for i, p := range paths {
				reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(discard{h: http.Header{}}, reqs[i%len(reqs)])
			}
		})
	}
}
