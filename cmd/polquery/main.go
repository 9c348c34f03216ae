// Command polquery reads an inventory file and answers the paper's query
// patterns: per-location statistical summaries, most frequent destinations,
// and OD-key transition cells.
//
// An inventory file is a POLSEG1 segment whatever its name — polbuild
// output, a checkpoint's stable artifact, a generation's .seg, a disk
// replica's mirror, a saved /v1/repl/snapshot body — opened O(index) and
// queried straight off disk; -equal compares two of them bit-exactly.
//
// Usage:
//
//	polquery -inv fleet.polinv -at 51.9,3.2
//	polquery -inv fleet.polinv -at 51.9,3.2 -type container
//	polquery -inv fleet.polinv -cell 0c4000000012345
//	polquery -inv fleet.polinv -od-cells 1:63:container
//	polquery -inv fleet.polinv -info
//	polquery -inv primary.polinv -equal replica.polinv
//
// With -server the query goes to a running polserve daemon over
// HTTP instead of reading a file, and -trace additionally fetches and
// prints the server-side distributed trace of the query it just ran (the
// client injects a W3C traceparent and reads it back from /v1/traces/{id}):
//
//	polquery -server http://localhost:8080 -at 51.9,3.2 -trace
//
// Failover: -promote asks a replica daemon to take over as primary
// (drain the WAL tail, bump the replication term, open a fresh journal):
//
//	polquery -promote http://replica:8081
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/patternsoflife/pol/internal/api"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/segment"
)

// loadView opens an inventory segment; a damaged file — or one in the
// retired POLINV1 format — is fatal with segment.Open's one-line reason.
func loadView(path string) inventory.View {
	r, err := segment.Open(path, segment.Options{})
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("polquery: ")

	var (
		invPath = flag.String("inv", "inventory.polinv", "inventory file")
		at      = flag.String("at", "", "query location LAT,LNG")
		cellStr = flag.String("cell", "", "query an exact cell id (hex)")
		vtype   = flag.String("type", "", "vessel type filter (cargo|container|bulk|tanker|passenger)")
		odCells = flag.String("od-cells", "", "list cells for key ORIGIN:DEST:TYPE (route forecasting input)")
		info    = flag.Bool("info", false, "print inventory build info and exit")
		equal   = flag.String("equal", "", "compare -inv against this second inventory file; exit 0 when equal, 1 when not")
		server  = flag.String("server", "", "query a running daemon at this base URL instead of reading -inv")
		showTr  = flag.Bool("trace", false, "with -server: print the server-side trace tree of the query just run")
		promote = flag.String("promote", "", "promote the replica daemon at this base URL to primary (POST /v1/admin/promote) and print the result")
	)
	flag.Parse()

	if *promote != "" {
		runPromote(*promote)
		return
	}
	if *server != "" {
		runRemote(*server, *at, *vtype, *info, *showTr)
		return
	}
	if *showTr {
		log.Fatal("-trace needs -server (traces live on the daemon)")
	}

	inv := loadView(*invPath)
	gaz := ports.Default()

	if *equal != "" {
		other := loadView(*equal)
		if !inventory.EqualViews(inv, other) {
			fmt.Printf("NOT EQUAL: %s (%d groups) vs %s (%d groups)\n",
				*invPath, inv.Len(), *equal, other.Len())
			os.Exit(1)
		}
		fmt.Printf("EQUAL: %d groups at resolution %d\n", inv.Len(), inv.Info().Resolution)
		return
	}

	if *info {
		bi := inv.Info()
		fmt.Printf("resolution:    %d (avg cell %.2f km²)\n", bi.Resolution, hexgrid.AvgCellAreaKm2(bi.Resolution))
		fmt.Printf("raw records:   %d\n", bi.RawRecords)
		fmt.Printf("used records:  %d\n", bi.UsedRecords)
		fmt.Printf("built:         %s\n", time.Unix(bi.BuiltUnix, 0).UTC().Format(time.RFC3339))
		fmt.Printf("description:   %s\n", bi.Description)
		for _, gs := range inventory.AllGroupSets {
			fmt.Printf("groups %-40v %8d  compression %.4f%%\n", gs, inv.CountGroups(gs), inv.Compression(gs)*100)
		}
		fmt.Printf("cells: %d, global utilization %.6f%%\n", len(inv.Cells(inventory.GSCell)), inv.Utilization()*100)
		return
	}

	if *odCells != "" {
		parts := strings.Split(*odCells, ":")
		if len(parts) != 3 {
			log.Fatal("-od-cells wants ORIGIN:DEST:TYPE")
		}
		origin := resolvePort(gaz, parts[0])
		dest := resolvePort(gaz, parts[1])
		vt := parseType(parts[2])
		cells := inv.ODCells(origin, dest, vt)
		fmt.Printf("%d cells for key origin=%d dest=%d type=%v\n", len(cells), origin, dest, vt)
		for _, c := range cells {
			p := c.LatLng()
			fmt.Printf("%v\t%.4f\t%.4f\n", c, p.Lat, p.Lng)
		}
		return
	}

	var cell hexgrid.Cell
	switch {
	case *cellStr != "":
		var err error
		cell, err = hexgrid.ParseCell(*cellStr)
		if err != nil {
			log.Fatal(err)
		}
	case *at != "":
		var lat, lng float64
		if _, err := fmt.Sscanf(*at, "%f,%f", &lat, &lng); err != nil {
			log.Fatalf("bad -at %q: %v", *at, err)
		}
		cell = hexgrid.LatLngToCell(geo.LatLng{Lat: lat, Lng: lng}, inv.Info().Resolution)
	default:
		log.Fatal("need -at LAT,LNG, -cell ID, -od-cells KEY or -info (see -h)")
	}

	var s *inventory.CellSummary
	var ok bool
	if *vtype != "" {
		s, ok = inv.TypeSummary(cell, parseType(*vtype))
	} else {
		s, ok = inv.Cell(cell)
	}
	if !ok {
		log.Fatalf("no data for cell %v (no historical traffic)", cell)
	}
	printSummary(gaz, cell, s)
}

// runPromote asks a replica daemon to take over as primary. The drain
// can legitimately take a few seconds (it chases the old primary's WAL
// tip), so the client timeout is generous.
func runPromote(base string) {
	u := strings.TrimRight(base, "/") + "/v1/admin/promote"
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Post(u, "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: status %d: %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	fmt.Printf("promoted %s\n", base)
	os.Stdout.Write(body)
}

// runRemote answers the query over a daemon's HTTP API. The request
// carries a client-rooted W3C traceparent; with -trace the same trace ID
// is then read back from the daemon's /v1/traces/{id} endpoint and the
// server-side span tree is printed, so one invocation demonstrates
// end-to-end trace continuity from a terminal.
func runRemote(base, at, vtype string, info, showTrace bool) {
	var path string
	q := url.Values{}
	switch {
	case info:
		path = "/v1/info"
	case at != "":
		var lat, lng float64
		if _, err := fmt.Sscanf(at, "%f,%f", &lat, &lng); err != nil {
			log.Fatalf("bad -at %q: %v", at, err)
		}
		q.Set("lat", fmt.Sprintf("%f", lat))
		q.Set("lng", fmt.Sprintf("%f", lng))
		if vtype != "" {
			q.Set("type", strings.ToLower(vtype))
		}
		path = "/v1/cell"
	default:
		log.Fatal("-server mode wants -at LAT,LNG or -info")
	}
	u := strings.TrimRight(base, "/") + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}

	tr := trace.New(trace.Options{Service: "polquery"})
	span := tr.StartRoot("polquery.query")
	span.SetAttr("url", u)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		log.Fatal(err)
	}
	trace.Inject(req, span)
	client := &http.Client{Timeout: 15 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	span.Finish()
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d: %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	os.Stdout.Write(body)

	if showTrace {
		fmt.Printf("\ntrace %s (%s in %s)\n", span.Trace, span.Name, span.Duration().Round(time.Microsecond))
		printServerTrace(client, strings.TrimRight(base, "/"), span.Trace.String())
	}
}

// printServerTrace fetches /v1/traces/{id} and prints the span tree. The
// server records its span when the middleware returns — effectively
// concurrent with the client reading the response — so a short retry
// absorbs that race.
func printServerTrace(client *http.Client, base, traceID string) {
	var payload struct {
		Service string            `json:"service"`
		Spans   []*trace.SpanJSON `json:"spans"`
	}
	u := base + "/v1/traces/" + traceID
	for attempt := 0; ; attempt++ {
		resp, err := client.Get(u)
		if err != nil {
			log.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &payload); err != nil {
				log.Fatalf("decode %s: %v", u, err)
			}
			break
		}
		if resp.StatusCode == http.StatusNotFound && attempt < 20 {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		log.Fatalf("GET %s: status %d: %s", u, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	for _, s := range payload.Spans {
		printSpanTree(s, 0)
	}
}

func printSpanTree(s *trace.SpanJSON, depth int) {
	indent := strings.Repeat("  ", depth)
	mark := ""
	if s.Err {
		mark = "  ERROR"
	}
	fmt.Printf("%s%s [%s] %s%s\n", indent, s.Name, s.Service,
		(time.Duration(s.DurationUs) * time.Microsecond).Round(time.Microsecond), mark)
	for _, a := range s.Attrs {
		fmt.Printf("%s  · %s=%s\n", indent, a.Key, a.Value)
	}
	for _, c := range s.Children {
		printSpanTree(c, depth+1)
	}
}

func resolvePort(gaz *ports.Gazetteer, s string) model.PortID {
	if id, err := strconv.Atoi(s); err == nil {
		return model.PortID(id)
	}
	if p, ok := gaz.ByName(s); ok {
		return p.ID
	}
	log.Fatalf("unknown port %q", s)
	return 0
}

func parseType(s string) model.VesselType {
	vt, err := api.ParseVesselType(s)
	if err != nil || vt == model.VesselUnknown {
		log.Fatalf("unknown vessel type %q", s)
	}
	return vt
}

func printSummary(gaz *ports.Gazetteer, cell hexgrid.Cell, s *inventory.CellSummary) {
	p := cell.LatLng()
	fmt.Printf("cell %v  center %.4f,%.4f  area %.2f km²\n", cell, p.Lat, p.Lng, cell.AreaKm2())
	fmt.Printf("records:   %d\n", s.Records)
	fmt.Printf("ships:     ~%d distinct\n", s.Ships.Estimate())
	fmt.Printf("trips:     ~%d distinct\n", s.Trips.Estimate())
	p10, p50, p90 := s.SpeedPercentiles()
	fmt.Printf("speed:     mean %.1f kn  std %.1f  p10/p50/p90 %.1f/%.1f/%.1f\n",
		s.Speed.Mean(), s.Speed.Std(), p10, p50, p90)
	fmt.Printf("course:    circular mean %.0f°  concentration %.2f\n", s.Course.Mean(), s.Course.Resultant())
	fmt.Printf("heading:   circular mean %.0f°\n", s.Heading.Mean())
	fmt.Printf("bins(30°): %v\n", s.CourseBins.Bins())
	fmt.Printf("ETO:       mean %s  p50 %s\n",
		time.Duration(s.ETO.Mean())*time.Second, time.Duration(s.ETODig.Quantile(0.5))*time.Second)
	fmt.Printf("ATA:       mean %s  p50 %s\n",
		time.Duration(s.ATA.Mean())*time.Second, time.Duration(s.ATADig.Quantile(0.5))*time.Second)
	fmt.Println("top origins:")
	for _, e := range s.Origins.Top(3) {
		fmt.Printf("  %-20s %d\n", gaz.Name(model.PortID(e.Key)), e.Count)
	}
	fmt.Println("top destinations:")
	for _, e := range s.Dests.Top(3) {
		fmt.Printf("  %-20s %d\n", gaz.Name(model.PortID(e.Key)), e.Count)
	}
	fmt.Println("top transitions:")
	for _, e := range s.TopTransitions(3) {
		c := hexgrid.Cell(e.Key)
		q := c.LatLng()
		fmt.Printf("  %v (%.3f,%.3f) %d\n", c, q.Lat, q.Lng, e.Count)
	}
}
