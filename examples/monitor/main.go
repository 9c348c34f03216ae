// Monitor example: the online deployment the paper sketches in §4.1.3,
// end to end. A live ingestion engine accepts a simulated fleet's AIS
// feed over a real TCP connection (timestamped NMEA, the provider wire
// format), builds the inventory continuously, and serves it over HTTP
// while ingesting. The example polls the daemon's status document like an
// operations dashboard would until the feed is drained, then finalizes the
// engine and prints what the stream produced.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"time"

	"github.com/patternsoflife/pol/internal/api"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

func main() {
	log.SetFlags(0)

	gaz := ports.Default()
	fleet, err := sim.New(sim.Config{Vessels: 30, Days: 21, Seed: 19}, gaz)
	if err != nil {
		log.Fatal(err)
	}
	var live []model.PositionRecord
	for i := range fleet.Fleet().Vessels {
		track, _ := fleet.VesselTrack(i)
		live = append(live, track...)
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].Time < live[j].Time })

	// The live daemon, in-process: engine + TCP feed listener + HTTP API
	// with the status document — exactly what polserve -live runs.
	eng, err := ingest.NewEngine(ingest.Options{Resolution: 6, MergeEvery: 100 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	feedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	feedSrv := ingest.NewServer(eng, feedLn, ingest.ServerOptions{})
	defer feedSrv.Close()

	mux := http.NewServeMux()
	mux.Handle("/", api.NewLiveServer(eng, gaz).Handler())
	mux.Handle("GET /v1/status", ingest.ServeStatus(eng.StatsSnapshot))
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(httpLn, mux) }()
	baseURL := "http://" + httpLn.Addr().String()
	fmt.Printf("live daemon: feeds on %s, API on %s\n\n", feedLn.Addr(), baseURL)

	// Stream the fleet's history over TCP as a provider feed would deliver
	// it: statics first, then positions in receive-time order.
	conn, err := net.Dial("tcp", feedLn.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	w := feed.NewWriter(conn)
	for _, v := range fleet.Fleet().Vessels {
		if err := w.WriteStatic(v, live[0].Time); err != nil {
			log.Fatal(err)
		}
	}
	for _, rec := range live {
		if err := w.WritePosition(rec); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	conn.Close()

	// Watch the daemon ingest through its status document, the way an
	// operations dashboard does.
	var st ingest.Status
	for {
		resp, err := http.Get(baseURL + "/v1/status")
		if err != nil {
			log.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingest: %7d positions  %7d accepted  %5d groups  %2d merges\n",
			st.PositionsSeen, st.Accepted, st.Groups, st.Merges)
		if st.PositionsSeen >= int64(len(live)) {
			break
		}
		time.Sleep(500 * time.Millisecond)
	}
	if err := eng.Finalize(); err != nil {
		log.Fatal(err)
	}
	st = eng.StatsSnapshot()
	fmt.Printf("\nfeed drained: %d accepted, %d rejected, %d trips, %d vessels, %d groups\n",
		st.Accepted, st.Rejected, st.Trips, st.Vessels, st.Groups)
}
