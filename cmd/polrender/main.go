// Command polrender regenerates the paper's figures from an inventory
// file (a POLSEG1 segment, as written by polbuild or a checkpoint).
//
// Usage:
//
//	polrender -inv fleet.polinv -out out/            # all figures
//	polrender -inv fleet.polinv -fig 1 -width 2400   # Figure 1 only
package main

import (
	"flag"
	"log"
	"os"
	"path/filepath"

	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/render"
	"github.com/patternsoflife/pol/internal/segment"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("polrender: ")

	var (
		invPath = flag.String("inv", "inventory.polinv", "inventory file")
		outDir  = flag.String("out", "out", "output directory")
		fig     = flag.String("fig", "all", "figure to render: 1, 4, 5, 6 or all")
		width   = flag.Int("width", 1600, "image width in pixels")
	)
	flag.Parse()

	inv, err := segment.Load(*invPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	gaz := ports.Default()
	save := func(name string, err2 error) {
		if err2 != nil {
			log.Fatalf("%s: %v", name, err2)
		}
		log.Printf("wrote %s", name)
	}

	do := func(f string) bool { return *fig == "all" || *fig == f }

	if do("1") {
		p := filepath.Join(*outDir, "fig1_speed.png")
		save(p, render.WritePNG(render.SpeedMap(inv, render.WorldBox, *width, 24), p))
		p = filepath.Join(*outDir, "fig1_course.png")
		save(p, render.WritePNG(render.CourseMap(inv, render.WorldBox, *width), p))
	}
	if do("4") {
		p := filepath.Join(*outDir, "fig4_baltic_tripfreq.png")
		save(p, render.WritePNG(render.TripFrequencyMap(inv, render.BalticBox, *width/2), p))
		p = filepath.Join(*outDir, "fig4_baltic_speed.png")
		save(p, render.WritePNG(render.SpeedMap(inv, render.BalticBox, *width/2, 24), p))
		p = filepath.Join(*outDir, "fig4_baltic_course.png")
		save(p, render.WritePNG(render.CourseMap(inv, render.BalticBox, *width/2), p))
	}
	if do("5") {
		p := filepath.Join(*outDir, "fig5_ata.png")
		save(p, render.WritePNG(render.ATAMap(inv, render.WorldBox, *width), p))
	}
	if do("6") {
		var ids []model.PortID
		for _, name := range []string{"Singapore", "Shanghai", "Rotterdam"} {
			pt, ok := gaz.ByName(name)
			if !ok {
				log.Fatalf("gazetteer missing %s", name)
			}
			ids = append(ids, pt.ID)
		}
		p := filepath.Join(*outDir, "fig6_destinations.png")
		save(p, render.WritePNG(render.DestinationMap(inv, render.WorldBox, *width, ids), p))
	}
}
