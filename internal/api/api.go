// Package api exposes an inventory over HTTP as a JSON API — the online
// querying service the paper describes for maritime stakeholders. The
// polserve command wraps this handler; it is a separate package so the API
// surface is testable with httptest.
//
// Endpoints:
//
//	GET /v1/info                         build info, group counts
//	GET /v1/cell?lat=&lng=[&type=]       per-location statistical summary
//	GET /v1/destinations?lat=&lng=[&n=&type=]  top destinations at a location
//	GET /v1/eta?lat=&lng=[&origin=&dest=&type=]  baseline ETA estimate
//	GET /v1/odcells?origin=&dest=&type=  cells of an OD key
//	GET /v1/forecast?origin=&dest=&type=&lat=&lng=  route forecast (A*)
//
// A node's own state — lifecycle, term, WAL frontier, lag — is not part of
// this surface: every stateful node serves it as one document on
// /v1/status (ingest.Status), so /v1/info describes the inventory alone.
//
// When a telemetry registry is attached with WithMetrics, every endpoint
// is wrapped in the obs middleware: request counts per status class and a
// latency histogram per endpoint, exposed by the daemon's /metrics.
package api

import (
	"cmp"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/patternsoflife/pol/internal/eta"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/routing"
	"github.com/patternsoflife/pol/internal/stats"
)

// Source resolves the inventory view a request is answered from. Batch
// serving wraps one loaded file or an opened disk segment; live serving
// hands out the ingestion engine's current atomic snapshot — so every
// request sees a complete, immutable view even while merges continue
// behind it, whether the view lives on the heap or on disk.
type Source interface {
	Inventory() inventory.View
}

// StaticSource serves one fixed inventory view (a loaded heap inventory
// or an open segment reader).
type StaticSource struct{ Inv inventory.View }

// Inventory implements Source.
func (s StaticSource) Inventory() inventory.View { return s.Inv }

// Server answers inventory queries over HTTP.
type Server struct {
	src    Source
	gaz    *ports.Gazetteer
	reg    *obs.Registry
	tracer *trace.Tracer
}

// NewServer builds a Server over a fixed inventory view (a loaded heap
// inventory or an open disk segment) and port gazetteer.
func NewServer(inv inventory.View, gaz *ports.Gazetteer) *Server {
	return NewLiveServer(StaticSource{Inv: inv}, gaz)
}

// NewLiveServer builds a Server that re-resolves the inventory through src
// on every request — the serving mode of the live ingestion daemon.
func NewLiveServer(src Source, gaz *ports.Gazetteer) *Server {
	return &Server{src: src, gaz: gaz}
}

// WithMetrics attaches a telemetry registry: Handler wraps every endpoint
// in the per-endpoint metrics middleware. Returns the Server for
// chaining.
func (s *Server) WithMetrics(reg *obs.Registry) *Server {
	s.reg = reg
	return s
}

// WithTracing attaches a tracer: every endpoint runs under a server
// span that joins a propagated traceparent (or roots a fresh trace), and
// latency histogram buckets carry the trace ID as an OpenMetrics
// exemplar. Returns the Server for chaining.
func (s *Server) WithTracing(tr *trace.Tracer) *Server {
	s.tracer = tr
	return s
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for endpoint, handle := range map[string]http.HandlerFunc{
		"/v1/info": s.handleInfo, "/v1/cell": s.handleCell, "/v1/destinations": s.handleDestinations,
		"/v1/eta": s.handleETA, "/v1/odcells": s.handleODCells, "/v1/forecast": s.handleForecast,
	} {
		var h http.Handler = handle
		switch {
		case s.reg != nil:
			h = obs.InstrumentTraced(s.reg, s.tracer, endpoint, h)
		case s.tracer != nil:
			h = s.tracer.Middleware(endpoint, h)
		}
		mux.Handle("GET "+endpoint, h)
	}
	return mux
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	newBody().open("", '{').str("error", fmt.Sprintf(format, args...)).close('}').send(w, status)
}

// query holds a request's parameters, parsed once, and the first error
// met reading them: a handler reads what it needs in order, then answers
// 400 with that error.
type query struct {
	url.Values
	err error
}

func (q *query) fail(err error) { q.err = cmp.Or(q.err, err) }

func (q *query) latLng() geo.LatLng {
	lat, err1 := strconv.ParseFloat(q.Get("lat"), 64)
	lng, err2 := strconv.ParseFloat(q.Get("lng"), 64)
	p := geo.LatLng{Lat: lat, Lng: lng}
	if err1 != nil || err2 != nil {
		q.fail(fmt.Errorf("lat and lng query parameters are required numbers"))
	} else if !p.Valid() {
		q.fail(fmt.Errorf("coordinate out of range"))
	}
	return p
}

func (q *query) vesselType() model.VesselType {
	vt, err := ParseVesselType(q.Get("type"))
	q.fail(err)
	return vt
}

// ParseVesselType maps the API's type parameter, a segment's label in any
// case, to a market segment; empty means all traffic (VesselUnknown).
func ParseVesselType(s string) (model.VesselType, error) {
	for vt, label := model.VesselCargo, strings.ToLower(s); vt <= model.VesselPassenger; vt++ {
		if label == vt.String() {
			return vt, nil
		}
	}
	if s != "" {
		return 0, fmt.Errorf("unknown vessel type %q", s)
	}
	return model.VesselUnknown, nil
}

// port resolves the named parameter, a port id or name, NoPort if absent.
func (s *Server) port(q *query, name string) model.PortID {
	v := q.Get(name)
	if v == "" {
		return model.NoPort
	}
	if id, err := strconv.Atoi(v); err == nil {
		if _, ok := s.gaz.ByID(model.PortID(id)); !ok {
			q.fail(fmt.Errorf("unknown port id %d", id))
		}
		return model.PortID(id)
	}
	p, ok := s.gaz.ByName(v)
	if !ok {
		q.fail(fmt.Errorf("unknown port %q", v))
	}
	return p.ID
}

// odKey reads the origin, dest and type of an OD key; both ports are
// required.
func (s *Server) odKey(q *query) (origin, dest model.PortID, vt model.VesselType) {
	origin, dest, vt = s.port(q, "origin"), s.port(q, "dest"), q.vesselType()
	if origin == model.NoPort || dest == model.NoPort {
		q.fail(fmt.Errorf("origin and dest are required"))
	}
	return origin, dest, vt
}

// handleInfo writes its members in sorted key order, as encoding/json
// wrote the map it used to be.
func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	inv := s.src.Inventory()
	bi := inv.Info()
	j := newBody().open("", '{').str("builtAt", time.Unix(bi.BuiltUnix, 0).UTC().Format(time.RFC3339))
	j.i64("cells", int64(inv.CountGroups(inventory.GSCell))) // one GSCell group per cell
	j.str("description", bi.Description).open("groups", '{')
	for _, gs := range slices.SortedFunc(slices.Values(inventory.AllGroupSets), func(a, b inventory.GroupSet) int {
		return strings.Compare(a.String(), b.String())
	}) {
		j.i64(gs.String(), int64(inv.CountGroups(gs)))
	}
	j.close('}').i64("rawRecords", bi.RawRecords).i64("resolution", int64(bi.Resolution))
	j.i64("usedRecords", bi.UsedRecords).f64("utilization", inv.Utilization()).close('}').send(w, http.StatusOK)
}

// lookup returns the cell at p and its summary, narrowed to the (cell,
// vessel-type) grouping set when vt names a segment.
func (s *Server) lookup(p geo.LatLng, vt model.VesselType) (hexgrid.Cell, *inventory.CellSummary, bool) {
	inv := s.src.Inventory()
	cell := hexgrid.LatLngToCell(p, inv.Info().Resolution)
	if vt != model.VesselUnknown {
		cs, ok := inv.TypeSummary(cell, vt)
		return cell, cs, ok
	}
	cs, ok := inv.Cell(cell)
	return cell, cs, ok
}

// handleCell writes a cell's statistical summary. Every statistic is
// nullable: null means the cell holds no sample for it. (The center is
// geometry derived from the cell id, always finite.)
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	q := query{Values: r.URL.Query()}
	p, vt := q.latLng(), q.vesselType()
	if q.err != nil {
		httpError(w, http.StatusBadRequest, "%v", q.err)
		return
	}
	cell, cs, ok := s.lookup(p, vt)
	if !ok {
		httpError(w, http.StatusNotFound, "no historical traffic in cell %v", cell)
		return
	}
	center := cell.LatLng()
	p10, p50, p90 := cs.SpeedPercentiles()
	j := newBody().open("", '{').cell("cell", cell).f64("centerLat", center.Lat).f64("centerLng", center.Lng)
	j.u64("records", cs.Records).u64("ships", cs.Ships.Estimate()).u64("trips", cs.Trips.Estimate())
	j.f64("speedMeanKn", cs.Speed.Mean()).f64("speedStdKn", cs.Speed.Std())
	j.f64("speedP10Kn", p10).f64("speedP50Kn", p50).f64("speedP90Kn", p90)
	j.f64("courseMeanDeg", cs.Course.Mean()).open("courseBins30Deg", '[')
	for _, n := range cs.CourseBins.Bins() {
		j.u64("", n)
	}
	j.close(']').f64("headingMeanDeg", cs.Heading.Mean())
	j.f64("ataMeanSeconds", cs.ATA.Mean()).f64("etoMeanSeconds", cs.ETO.Mean())
	s.topList(j, "topOrigins", "port", cs.Origins.Top(5))
	s.topList(j, "topDestinations", "port", cs.Dests.Top(5))
	s.topList(j, "topTransitions", "cell", cs.TopTransitions(5))
	j.close('}').send(w, http.StatusOK)
}

// topList writes top-N entries as {name, count} objects, name "port" or
// "cell". An empty member list is null and an empty top-level list (of
// /v1/destinations) is [], as the old nil and empty slices were.
func (s *Server) topList(j *jsonBody, key, name string, top []stats.TopEntry) *jsonBody {
	if len(top) == 0 && key != "" {
		return j.null(key)
	}
	j.open(key, '[')
	for _, e := range top {
		if j.open("", '{'); name == "cell" {
			j.cell(name, hexgrid.Cell(e.Key))
		} else {
			j.str(name, s.gaz.Name(model.PortID(e.Key)))
		}
		j.u64("count", e.Count).close('}')
	}
	return j.close(']')
}

func (s *Server) handleDestinations(w http.ResponseWriter, r *http.Request) {
	q := query{Values: r.URL.Query()}
	p, vt := q.latLng(), q.vesselType()
	if q.err != nil {
		httpError(w, http.StatusBadRequest, "%v", q.err)
		return
	}
	_, cs, ok := s.lookup(p, vt)
	if !ok {
		httpError(w, http.StatusNotFound, "no historical traffic at %.3f,%.3f", p.Lat, p.Lng)
		return
	}
	n, _ := strconv.Atoi(q.Get("n"))
	if n <= 0 {
		n = 5
	}
	s.topList(newBody(), "", "port", cs.Dests.Top(n)).send(w, http.StatusOK)
}

func (s *Server) handleETA(w http.ResponseWriter, r *http.Request) {
	q := query{Values: r.URL.Query()}
	p, vt, origin, dest := q.latLng(), q.vesselType(), s.port(&q, "origin"), s.port(&q, "dest")
	if q.err != nil {
		httpError(w, http.StatusBadRequest, "%v", q.err)
		return
	}
	// eta.New is a stateless view over the inventory, so constructing one
	// per request keeps it pinned to a single snapshot in live mode.
	est, ok := eta.New(s.src.Inventory()).Estimate(eta.Query{Pos: p, VType: vt, Origin: origin, Dest: dest})
	if !ok {
		httpError(w, http.StatusNotFound, "no ATA history at %.3f,%.3f", p.Lat, p.Lng)
		return
	}
	j := newBody().open("", '{').f64("meanSeconds", est.Mean.Seconds()) // sorted keys: it was a map
	j.f64("p10Seconds", est.P10.Seconds()).f64("p50Seconds", est.P50.Seconds()).f64("p90Seconds", est.P90.Seconds())
	j.u64("records", est.Records).str("source", est.Source.String()).f64("stdSeconds", est.Std.Seconds())
	j.close('}').send(w, http.StatusOK)
}

// sendCells answers a cell list, each cell with its center coordinates —
// the body of /v1/odcells and /v1/forecast.
func sendCells(w http.ResponseWriter, cells []hexgrid.Cell) {
	j := newBody().open("", '[')
	for _, c := range cells {
		p := c.LatLng()
		j.open("", '{').cell("cell", c).f64("lat", p.Lat).f64("lng", p.Lng).close('}')
	}
	j.close(']').send(w, http.StatusOK)
}

func (s *Server) handleODCells(w http.ResponseWriter, r *http.Request) {
	q := query{Values: r.URL.Query()}
	origin, dest, vt := s.odKey(&q)
	if q.err != nil {
		httpError(w, http.StatusBadRequest, "%v", q.err)
		return
	}
	sendCells(w, s.src.Inventory().ODCells(origin, dest, vt))
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	q := query{Values: r.URL.Query()}
	origin, dest, vt := s.odKey(&q)
	p := q.latLng()
	if q.err != nil {
		httpError(w, http.StatusBadRequest, "%v", q.err)
		return
	}
	destPort, _ := s.gaz.ByID(dest)
	path, err := routing.Forecast(s.src.Inventory(), origin, dest, vt, p, destPort.Pos)
	switch err {
	case nil:
		sendCells(w, path)
	case routing.ErrNoHistory:
		httpError(w, http.StatusNotFound, "no inventory history for this key")
	case routing.ErrNoPath:
		httpError(w, http.StatusNotFound, "transition graph has no path")
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}
