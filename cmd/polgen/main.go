// Command polgen generates a synthetic global AIS dataset as a timestamped
// NMEA archive — the stand-in for a provider feed (paper Table 1).
//
// Usage:
//
//	polgen -vessels 200 -days 30 -seed 1 -out fleet.nmea
//	polgen -vessels 50 -days 10 -noise 0.01 -block-suez 10:18 -out suez.nmea
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("polgen: ")

	var (
		vessels = flag.Int("vessels", 100, "fleet size")
		days    = flag.Int("days", 30, "simulated days")
		seed    = flag.Int64("seed", 1, "determinism seed")
		noise   = flag.Float64("noise", 0, "fraction of corrupted reports (exercises cleaning)")
		suez    = flag.String("block-suez", "", "block the Suez canal between days FROM:TO")
		out     = flag.String("out", "-", "output path (- for stdout)")
		start   = flag.String("start", "2022-01-01", "simulation start date (YYYY-MM-DD)")
	)
	flag.Parse()

	cfg := sim.Config{
		Vessels:   *vessels,
		Days:      *days,
		Seed:      *seed,
		NoiseRate: *noise,
	}
	if t, err := time.Parse("2006-01-02", *start); err == nil {
		cfg.Start = t.UTC()
	} else {
		log.Fatalf("bad -start %q: %v", *start, err)
	}
	if *suez != "" {
		if _, err := fmt.Sscanf(strings.ReplaceAll(*suez, ":", " "), "%d %d",
			&cfg.BlockSuezFromDay, &cfg.BlockSuezToDay); err != nil {
			log.Fatalf("bad -block-suez %q (want FROM:TO): %v", *suez, err)
		}
	}

	s, err := sim.New(cfg, ports.Default())
	if err != nil {
		log.Fatal(err)
	}

	var dst io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		dst = f
	}
	w := feed.NewWriter(dst)
	for _, v := range s.Fleet().Vessels {
		if err := w.WriteStatic(v, cfg.Start.Unix()); err != nil {
			log.Fatal(err)
		}
	}
	var records, voyages int64
	for i := range s.Fleet().Vessels {
		recs, voys := s.VesselTrack(i)
		voyages += int64(len(voys))
		for _, r := range recs {
			if err := w.WritePosition(r); err != nil {
				log.Fatal(err)
			}
			records++
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "polgen: %s → %d position reports, %d voyages, %d NMEA lines\n",
		cfg.Describe(), records, voyages, w.Lines)
}
