// Destination prediction example (paper §4.1.3): a streaming application
// receives live AIS reports of a vessel whose crew has not disclosed its
// destination, queries the inventory per report for the top destinations of
// same-type vessels that sailed nearby, and tracks the most probable
// destination as the trip unfolds.
package main

import (
	"fmt"
	"log"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/predict"
	"github.com/patternsoflife/pol/internal/sim"
)

func main() {
	log.SetFlags(0)

	gaz := ports.Default()
	fleet, err := sim.New(sim.Config{Vessels: 40, Days: 30, Seed: 7}, gaz)
	if err != nil {
		log.Fatal(err)
	}
	tracks := make([][]model.PositionRecord, 40)
	var voyages []sim.Voyage
	for i := range tracks {
		var voys []sim.Voyage
		tracks[i], voys = fleet.VesselTrack(i)
		voyages = append(voyages, voys...)
	}
	ctx := dataflow.NewContext(0)
	records := dataflow.Generate(ctx, len(tracks), func(i int) []model.PositionRecord { return tracks[i] })
	result, err := pipeline.Run(records, fleet.Fleet().StaticIndex(), ports.NewIndex(gaz, ports.IndexResolution),
		pipeline.Options{Resolution: 6, Description: "destination prediction example"})
	if err != nil {
		log.Fatal(err)
	}

	// Stream a completed voyage with its destination hidden.
	end := fleet.Config().Start.Unix() + int64(fleet.Config().Days)*86400
	var voyage sim.Voyage
	for _, v := range voyages {
		if v.ArriveTime < end && v.ArriveTime-v.DepartTime > 4*86400 {
			voyage = v
			break
		}
	}
	if voyage.MMSI == 0 {
		log.Fatal("no suitable voyage")
	}
	var track []model.PositionRecord
	for i, v := range fleet.Fleet().Vessels {
		if v.MMSI == voyage.MMSI {
			for _, r := range tracks[i] {
				if r.Time >= voyage.DepartTime && r.Time <= voyage.ArriveTime {
					track = append(track, r)
				}
			}
		}
	}
	origin, _ := gaz.ByID(voyage.Route.Origin)
	truth, _ := gaz.ByID(voyage.Route.Dest)
	fmt.Printf("streaming a %s vessel departing %s (true destination hidden: %s)\n\n",
		voyage.VType, origin.Name, truth.Name)
	fmt.Printf("%-10s %-42s %s\n", "observed", "top-3 candidates", "true dest rank")

	p := predict.New(result.Inventory, voyage.VType)
	next := 0.1
	for i, r := range track {
		p.Observe(r.Pos)
		progress := float64(i+1) / float64(len(track))
		if progress < next {
			continue
		}
		next += 0.2
		top := p.Top(3)
		rank := "-"
		line := ""
		for j, cand := range top {
			name := gaz.Name(cand.Port)
			if cand.Port == voyage.Route.Dest {
				rank = fmt.Sprintf("#%d", j+1)
			}
			if j > 0 {
				line += ", "
			}
			line += fmt.Sprintf("%s (%.0f)", name, cand.Score)
		}
		fmt.Printf("%8.0f%%  %-42s %s\n", progress*100, line, rank)
	}
	if best, ok := p.Best(); ok && best == voyage.Route.Dest {
		fmt.Printf("\nfinal prediction correct: %s\n", truth.Name)
	} else {
		fmt.Printf("\nfinal prediction differs from ground truth (%s)\n", truth.Name)
	}
}
