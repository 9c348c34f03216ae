// Package api exposes an inventory over HTTP as a JSON API — the online
// querying service the paper describes for maritime stakeholders. The
// polserve command wraps this handler; it is a separate package so the API
// surface is testable with httptest.
//
// Endpoints:
//
//	GET /v1/info                         build info, group counts, live status
//	GET /v1/cell?lat=&lng=[&type=]       per-location statistical summary
//	GET /v1/destinations?lat=&lng=[&n=&type=]  top destinations at a location
//	GET /v1/eta?lat=&lng=[&origin=&dest=&type=]  baseline ETA estimate
//	GET /v1/odcells?origin=&dest=&type=  cells of an OD key
//	GET /v1/forecast?origin=&dest=&type=&lat=&lng=  route forecast (A*)
//
// When a telemetry registry is attached with WithMetrics, every endpoint
// is wrapped in the obs middleware: request counts per status class and a
// latency histogram per endpoint, exposed by the daemon's /metrics.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
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

// LiveStatus is implemented by live sources (the ingestion engine) that
// can report process uptime and the age of the served snapshot. When the
// Server's source implements it, /v1/info includes a "live" block so
// staleness is visible without client-side math.
type LiveStatus interface {
	Uptime() time.Duration
	SnapshotAge() time.Duration
}

// WALStatus is implemented by sources that replicate (the ingestion
// engine with checkpoints enabled): the newest checkpoint generation,
// the WAL sequence it covers, and the latest appended sequence. /v1/info
// includes them in a "wal" block so replica lag is computable from
// either side of the replication link.
type WALStatus interface {
	WALStatus() (ckptGen, ckptSeq, walSeq uint64)
}

// ReplicaStatus is implemented by replica sources: the applied and
// primary WAL frontiers plus the current replication lag, surfaced as a
// "replica" block in /v1/info.
type ReplicaStatus interface {
	ReplicaStatus() (appliedSeq, primarySeq uint64, lag time.Duration)
}

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
	routes := []struct {
		endpoint string
		h        http.HandlerFunc
	}{
		{"/v1/info", s.handleInfo},
		{"/v1/cell", s.handleCell},
		{"/v1/destinations", s.handleDestinations},
		{"/v1/eta", s.handleETA},
		{"/v1/odcells", s.handleODCells},
		{"/v1/forecast", s.handleForecast},
	}
	mux := http.NewServeMux()
	for _, rt := range routes {
		var h http.Handler = rt.h
		switch {
		case s.reg != nil:
			h = obs.InstrumentTraced(s.reg, s.tracer, rt.endpoint, h)
		case s.tracer != nil:
			h = s.tracer.Middleware(rt.endpoint, h)
		}
		mux.Handle("GET "+rt.endpoint, h)
	}
	return mux
}

// writeJSON encodes v before it commits to a status: a value that cannot
// be encoded answers 500 with an error body, never the promised status
// over an empty one.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = enc.Encode(map[string]string{"error": "encode response: " + err.Error()}) // a string map always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// finite boxes a statistic for JSON: a pointer encodes as the number, nil
// as null. An empty accumulator (a cell with records but no heading, ATA
// or ETO sample) reports NaN, which JSON cannot carry.
func finite(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) parseLatLng(r *http.Request) (geo.LatLng, error) {
	lat, err1 := strconv.ParseFloat(r.URL.Query().Get("lat"), 64)
	lng, err2 := strconv.ParseFloat(r.URL.Query().Get("lng"), 64)
	if err1 != nil || err2 != nil {
		return geo.LatLng{}, fmt.Errorf("lat and lng query parameters are required numbers")
	}
	p := geo.LatLng{Lat: lat, Lng: lng}
	if !p.Valid() {
		return geo.LatLng{}, fmt.Errorf("coordinate out of range")
	}
	return p, nil
}

// ParseVesselType maps the API's type parameter to a market segment.
func ParseVesselType(s string) (model.VesselType, error) {
	switch strings.ToLower(s) {
	case "":
		return model.VesselUnknown, nil
	case "cargo":
		return model.VesselCargo, nil
	case "container":
		return model.VesselContainer, nil
	case "bulk":
		return model.VesselBulk, nil
	case "tanker":
		return model.VesselTanker, nil
	case "passenger":
		return model.VesselPassenger, nil
	default:
		return 0, fmt.Errorf("unknown vessel type %q", s)
	}
}

func (s *Server) resolvePort(v string) (model.PortID, error) {
	if v == "" {
		return model.NoPort, nil
	}
	if id, err := strconv.Atoi(v); err == nil {
		if _, ok := s.gaz.ByID(model.PortID(id)); !ok {
			return model.NoPort, fmt.Errorf("unknown port id %d", id)
		}
		return model.PortID(id), nil
	}
	if p, ok := s.gaz.ByName(v); ok {
		return p.ID, nil
	}
	return model.NoPort, fmt.Errorf("unknown port %q", v)
}

func (s *Server) portName(id model.PortID) string {
	if p, ok := s.gaz.ByID(id); ok {
		return p.Name
	}
	return fmt.Sprintf("port-%d", id)
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	inv := s.src.Inventory()
	bi := inv.Info()
	groups := map[string]int{}
	for _, gs := range inventory.AllGroupSets {
		groups[gs.String()] = inv.CountGroups(gs)
	}
	out := map[string]any{
		"resolution":  bi.Resolution,
		"rawRecords":  bi.RawRecords,
		"usedRecords": bi.UsedRecords,
		"builtAt":     time.Unix(bi.BuiltUnix, 0).UTC().Format(time.RFC3339),
		"description": bi.Description,
		"groups":      groups,
		"cells":       len(inv.Cells(inventory.GSCell)),
		"utilization": inv.Utilization(),
	}
	if ls, ok := s.src.(LiveStatus); ok {
		out["live"] = map[string]any{
			"uptimeSeconds":      int64(ls.Uptime().Seconds()),
			"snapshotAgeSeconds": int64(ls.SnapshotAge().Seconds()),
		}
	}
	if ws, ok := s.src.(WALStatus); ok {
		gen, cseq, wseq := ws.WALStatus()
		out["wal"] = map[string]any{
			"ckptGen": gen,
			"ckptSeq": cseq,
			"walSeq":  wseq,
		}
	}
	if rs, ok := s.src.(ReplicaStatus); ok {
		applied, primary, lag := rs.ReplicaStatus()
		out["replica"] = map[string]any{
			"appliedSeq": applied,
			"primarySeq": primary,
			"lagSeconds": lag.Seconds(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// Summary is the JSON shape of a cell's statistical summary. Every
// statistic is nullable: null means the cell holds no sample for it. (The
// center is geometry derived from the cell id, always finite.)
type Summary struct {
	Cell        string      `json:"cell"`
	CenterLat   float64     `json:"centerLat"`
	CenterLng   float64     `json:"centerLng"`
	Records     uint64      `json:"records"`
	Ships       uint64      `json:"ships"`
	Trips       uint64      `json:"trips"`
	SpeedMean   *float64    `json:"speedMeanKn"`
	SpeedStd    *float64    `json:"speedStdKn"`
	SpeedP10    *float64    `json:"speedP10Kn"`
	SpeedP50    *float64    `json:"speedP50Kn"`
	SpeedP90    *float64    `json:"speedP90Kn"`
	CourseMean  *float64    `json:"courseMeanDeg"`
	CourseBins  []uint64    `json:"courseBins30Deg"`
	HeadingMean *float64    `json:"headingMeanDeg"`
	ATAMeanSec  *float64    `json:"ataMeanSeconds"`
	ETOMeanSec  *float64    `json:"etoMeanSeconds"`
	TopOrigins  []PortCount `json:"topOrigins"`
	TopDests    []PortCount `json:"topDestinations"`
	Transitions []CellCount `json:"topTransitions"`
}

// PortCount pairs a port with an observation count.
type PortCount struct {
	Port  string `json:"port"`
	Count uint64 `json:"count"`
}

// CellCount pairs a cell id with an observation count.
type CellCount struct {
	Cell  string `json:"cell"`
	Count uint64 `json:"count"`
}

func (s *Server) summary(cell hexgrid.Cell, cs *inventory.CellSummary) Summary {
	p := cell.LatLng()
	p10, p50, p90 := cs.SpeedPercentiles()
	out := Summary{
		Cell: cell.String(), CenterLat: p.Lat, CenterLng: p.Lng,
		Records: cs.Records, Ships: cs.Ships.Estimate(), Trips: cs.Trips.Estimate(),
		SpeedMean: finite(cs.Speed.Mean()), SpeedStd: finite(cs.Speed.Std()),
		SpeedP10: finite(p10), SpeedP50: finite(p50), SpeedP90: finite(p90),
		CourseMean: finite(cs.Course.Mean()), CourseBins: cs.CourseBins.Bins(),
		HeadingMean: finite(cs.Heading.Mean()),
		ATAMeanSec:  finite(cs.ATA.Mean()), ETOMeanSec: finite(cs.ETO.Mean()),
	}
	for _, e := range cs.Origins.Top(5) {
		out.TopOrigins = append(out.TopOrigins, PortCount{s.portName(model.PortID(e.Key)), e.Count})
	}
	for _, e := range cs.Dests.Top(5) {
		out.TopDests = append(out.TopDests, PortCount{s.portName(model.PortID(e.Key)), e.Count})
	}
	for _, e := range cs.TopTransitions(5) {
		out.Transitions = append(out.Transitions, CellCount{hexgrid.Cell(e.Key).String(), e.Count})
	}
	return out
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseLatLng(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	vt, err := ParseVesselType(r.URL.Query().Get("type"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	inv := s.src.Inventory()
	cell := hexgrid.LatLngToCell(p, inv.Info().Resolution)
	var cs *inventory.CellSummary
	var ok bool
	if vt != model.VesselUnknown {
		cs, ok = inv.TypeSummary(cell, vt)
	} else {
		cs, ok = inv.Cell(cell)
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no historical traffic in cell %v", cell)
		return
	}
	writeJSON(w, http.StatusOK, s.summary(cell, cs))
}

func (s *Server) handleDestinations(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseLatLng(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	if n <= 0 {
		n = 5
	}
	vt, err := ParseVesselType(r.URL.Query().Get("type"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	inv := s.src.Inventory()
	cell := hexgrid.LatLngToCell(p, inv.Info().Resolution)
	var cs *inventory.CellSummary
	var ok bool
	if vt != model.VesselUnknown {
		// Same type-filter semantics as /v1/cell: the (cell, vessel-type)
		// grouping set narrows destinations to the requested segment.
		cs, ok = inv.TypeSummary(cell, vt)
	} else {
		cs, ok = inv.Cell(cell)
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no historical traffic at %.3f,%.3f", p.Lat, p.Lng)
		return
	}
	out := []PortCount{}
	for _, e := range cs.Dests.Top(n) {
		out = append(out, PortCount{s.portName(model.PortID(e.Key)), e.Count})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleETA(w http.ResponseWriter, r *http.Request) {
	p, err := s.parseLatLng(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	vt, err := ParseVesselType(r.URL.Query().Get("type"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	origin, err := s.resolvePort(r.URL.Query().Get("origin"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dest, err := s.resolvePort(r.URL.Query().Get("dest"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// eta.New is a stateless view over the inventory, so constructing one
	// per request keeps it pinned to a single snapshot in live mode.
	est, ok := eta.New(s.src.Inventory()).Estimate(eta.Query{Pos: p, VType: vt, Origin: origin, Dest: dest})
	if !ok {
		httpError(w, http.StatusNotFound, "no ATA history at %.3f,%.3f", p.Lat, p.Lng)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"meanSeconds": finite(est.Mean.Seconds()),
		"stdSeconds":  finite(est.Std.Seconds()),
		"p10Seconds":  finite(est.P10.Seconds()),
		"p50Seconds":  finite(est.P50.Seconds()),
		"p90Seconds":  finite(est.P90.Seconds()),
		"records":     est.Records,
		"source":      est.Source.String(),
	})
}

// CellPos is a cell with its center coordinates.
type CellPos struct {
	Cell string  `json:"cell"`
	Lat  float64 `json:"lat"`
	Lng  float64 `json:"lng"`
}

func (s *Server) handleODCells(w http.ResponseWriter, r *http.Request) {
	origin, dest, vt, err := s.parseODKey(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells := s.src.Inventory().ODCells(origin, dest, vt)
	out := make([]CellPos, 0, len(cells))
	for _, c := range cells {
		p := c.LatLng()
		out = append(out, CellPos{c.String(), p.Lat, p.Lng})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) parseODKey(r *http.Request) (model.PortID, model.PortID, model.VesselType, error) {
	origin, err := s.resolvePort(r.URL.Query().Get("origin"))
	if err != nil {
		return 0, 0, 0, err
	}
	dest, err := s.resolvePort(r.URL.Query().Get("dest"))
	if err != nil {
		return 0, 0, 0, err
	}
	vt, err := ParseVesselType(r.URL.Query().Get("type"))
	if err != nil {
		return 0, 0, 0, err
	}
	if origin == model.NoPort || dest == model.NoPort {
		return 0, 0, 0, fmt.Errorf("origin and dest are required")
	}
	return origin, dest, vt, nil
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	origin, dest, vt, err := s.parseODKey(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := s.parseLatLng(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	destPort, _ := s.gaz.ByID(dest)
	path, err := routing.Forecast(s.src.Inventory(), origin, dest, vt, p, destPort.Pos)
	switch err {
	case nil:
	case routing.ErrNoHistory:
		httpError(w, http.StatusNotFound, "no inventory history for this key")
		return
	case routing.ErrNoPath:
		httpError(w, http.StatusNotFound, "transition graph has no path")
		return
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := make([]CellPos, 0, len(path))
	for _, c := range path {
		q := c.LatLng()
		out = append(out, CellPos{c.String(), q.Lat, q.Lng})
	}
	writeJSON(w, http.StatusOK, out)
}
