package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/patternsoflife/pol/internal/eta"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/routing"
)

// The handlers as they stood before the writer — response structs and maps
// pretty-printed by encoding/json through reflection — kept as the
// reference every body of the append-style writer is held against
// (TestBodiesMatchReference). Not called by the program. The structs
// double as the decode targets of the endpoint tests.

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

// CellPos is a cell with its center coordinates.
type CellPos struct {
	Cell string  `json:"cell"`
	Lat  float64 `json:"lat"`
	Lng  float64 `json:"lng"`
}

// refHandler routes the reference handlers over s's source and gazetteer.
func refHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", func(w http.ResponseWriter, r *http.Request) { refInfo(s, w, r) })
	mux.HandleFunc("GET /v1/cell", func(w http.ResponseWriter, r *http.Request) { refCell(s, w, r) })
	mux.HandleFunc("GET /v1/destinations", func(w http.ResponseWriter, r *http.Request) { refDestinations(s, w, r) })
	mux.HandleFunc("GET /v1/eta", func(w http.ResponseWriter, r *http.Request) { refETA(s, w, r) })
	mux.HandleFunc("GET /v1/odcells", func(w http.ResponseWriter, r *http.Request) { refODCells(s, w, r) })
	mux.HandleFunc("GET /v1/forecast", func(w http.ResponseWriter, r *http.Request) { refForecast(s, w, r) })
	return mux
}

func refWriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		_ = enc.Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func refFinite(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}

func refHTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	refWriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func refParseLatLng(r *http.Request) (geo.LatLng, error) {
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

func refResolvePort(s *Server, v string) (model.PortID, error) {
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

func refPortName(s *Server, id model.PortID) string {
	if p, ok := s.gaz.ByID(id); ok {
		return p.Name
	}
	return fmt.Sprintf("port-%d", id)
}

func refInfo(s *Server, w http.ResponseWriter, _ *http.Request) {
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
		"utilization": refUtilization(inv),
	}
	refWriteJSON(w, http.StatusOK, out)
}

// refUtilization is Inventory.Utilization as it stood: listed cells, not
// counted groups.
func refUtilization(inv inventory.View) float64 {
	total := hexgrid.NumCells(inv.Info().Resolution)
	if total == 0 {
		return 0
	}
	return float64(len(inv.Cells(inventory.GSCell))) / float64(total)
}

func refSummary(s *Server, cell hexgrid.Cell, cs *inventory.CellSummary) Summary {
	p := cell.LatLng()
	p10, p50, p90 := cs.SpeedPercentiles()
	out := Summary{
		Cell: refCellString(cell), CenterLat: p.Lat, CenterLng: p.Lng,
		Records: cs.Records, Ships: cs.Ships.Estimate(), Trips: cs.Trips.Estimate(),
		SpeedMean: refFinite(cs.Speed.Mean()), SpeedStd: refFinite(cs.Speed.Std()),
		SpeedP10: refFinite(p10), SpeedP50: refFinite(p50), SpeedP90: refFinite(p90),
		CourseMean: refFinite(cs.Course.Mean()), CourseBins: cs.CourseBins.Bins(),
		HeadingMean: refFinite(cs.Heading.Mean()),
		ATAMeanSec:  refFinite(cs.ATA.Mean()), ETOMeanSec: refFinite(cs.ETO.Mean()),
	}
	for _, e := range cs.Origins.Top(5) {
		out.TopOrigins = append(out.TopOrigins, PortCount{refPortName(s, model.PortID(e.Key)), e.Count})
	}
	for _, e := range cs.Dests.Top(5) {
		out.TopDests = append(out.TopDests, PortCount{refPortName(s, model.PortID(e.Key)), e.Count})
	}
	for _, e := range cs.TopTransitions(5) {
		out.Transitions = append(out.Transitions, CellCount{refCellString(hexgrid.Cell(e.Key)), e.Count})
	}
	return out
}

// refCellString is Cell.String as it stood: fmt's hex, not the shared
// append routine the writer and Cell.String now both use.
func refCellString(c hexgrid.Cell) string {
	if c == hexgrid.InvalidCell {
		return "<invalid>"
	}
	return fmt.Sprintf("%016x", uint64(c))
}

func refCell(s *Server, w http.ResponseWriter, r *http.Request) {
	p, err := refParseLatLng(r)
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	vt, err := ParseVesselType(r.URL.Query().Get("type"))
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
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
		refHTTPError(w, http.StatusNotFound, "no historical traffic in cell %v", refCellString(cell))
		return
	}
	refWriteJSON(w, http.StatusOK, refSummary(s, cell, cs))
}

func refDestinations(s *Server, w http.ResponseWriter, r *http.Request) {
	p, err := refParseLatLng(r)
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("n"))
	if n <= 0 {
		n = 5
	}
	vt, err := ParseVesselType(r.URL.Query().Get("type"))
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
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
		refHTTPError(w, http.StatusNotFound, "no historical traffic at %.3f,%.3f", p.Lat, p.Lng)
		return
	}
	out := []PortCount{}
	for _, e := range cs.Dests.Top(n) {
		out = append(out, PortCount{refPortName(s, model.PortID(e.Key)), e.Count})
	}
	refWriteJSON(w, http.StatusOK, out)
}

func refETA(s *Server, w http.ResponseWriter, r *http.Request) {
	p, err := refParseLatLng(r)
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	vt, err := ParseVesselType(r.URL.Query().Get("type"))
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	origin, err := refResolvePort(s, r.URL.Query().Get("origin"))
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dest, err := refResolvePort(s, r.URL.Query().Get("dest"))
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	est, ok := eta.New(s.src.Inventory()).Estimate(eta.Query{Pos: p, VType: vt, Origin: origin, Dest: dest})
	if !ok {
		refHTTPError(w, http.StatusNotFound, "no ATA history at %.3f,%.3f", p.Lat, p.Lng)
		return
	}
	refWriteJSON(w, http.StatusOK, map[string]any{
		"meanSeconds": refFinite(est.Mean.Seconds()),
		"stdSeconds":  refFinite(est.Std.Seconds()),
		"p10Seconds":  refFinite(est.P10.Seconds()),
		"p50Seconds":  refFinite(est.P50.Seconds()),
		"p90Seconds":  refFinite(est.P90.Seconds()),
		"records":     est.Records,
		"source":      est.Source.String(),
	})
}

func refCellPositions(cells []hexgrid.Cell) []CellPos {
	out := make([]CellPos, 0, len(cells))
	for _, c := range cells {
		p := c.LatLng()
		out = append(out, CellPos{refCellString(c), p.Lat, p.Lng})
	}
	return out
}

func refODCells(s *Server, w http.ResponseWriter, r *http.Request) {
	origin, dest, vt, err := refParseODKey(s, r)
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	refWriteJSON(w, http.StatusOK, refCellPositions(s.src.Inventory().ODCells(origin, dest, vt)))
}

func refParseODKey(s *Server, r *http.Request) (model.PortID, model.PortID, model.VesselType, error) {
	origin, err := refResolvePort(s, r.URL.Query().Get("origin"))
	if err != nil {
		return 0, 0, 0, err
	}
	dest, err := refResolvePort(s, r.URL.Query().Get("dest"))
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

func refForecast(s *Server, w http.ResponseWriter, r *http.Request) {
	origin, dest, vt, err := refParseODKey(s, r)
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, err := refParseLatLng(r)
	if err != nil {
		refHTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	destPort, _ := s.gaz.ByID(dest)
	path, err := routing.Forecast(s.src.Inventory(), origin, dest, vt, p, destPort.Pos)
	switch err {
	case nil:
	case routing.ErrNoHistory:
		refHTTPError(w, http.StatusNotFound, "no inventory history for this key")
		return
	case routing.ErrNoPath:
		refHTTPError(w, http.StatusNotFound, "transition graph has no path")
		return
	default:
		refHTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	refWriteJSON(w, http.StatusOK, refCellPositions(path))
}
