// Command polbench regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic dataset and prints paper-vs-measured
// comparisons. Absolute numbers scale with the configured fleet; the
// harness checks the shape results that must hold at any scale (see
// DESIGN.md §3).
//
// Usage:
//
//	polbench -exp all -vessels 150 -days 30 -out out/
//	polbench -exp table4
//	polbench -exp fig6 -width 2400
//
// Performance is measured by the repository's benchmark (bench/,
// BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("polbench: ")

	var (
		exp     = flag.String("exp", "all", "experiment id: table1 table2 table3 table4 fig1 fig4 fig5 fig6 queryhits eta dest route anomaly adaptive rollup or all")
		vessels = flag.Int("vessels", 150, "synthetic fleet size")
		days    = flag.Int("days", 30, "simulated days")
		seed    = flag.Int64("seed", 1, "determinism seed")
		outDir  = flag.String("out", "out", "output directory for figures")
		width   = flag.Int("width", 1600, "figure width in pixels")
	)
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	l := newLab(*vessels, *days, *seed, *outDir, *width)

	experiments := []struct {
		id  string
		fn  func(*lab) error
		txt string
	}{
		{"table1", (*lab).runTable1, "dataset description"},
		{"table2", (*lab).runTable2, "grouping sets"},
		{"table3", (*lab).runTable3, "feature set and statistics"},
		{"table4", (*lab).runTable4, "coverage and compression"},
		{"fig1", (*lab).runFig1, "global average speed and course maps"},
		{"fig4", (*lab).runFig4, "Baltic regional maps"},
		{"fig5", (*lab).runFig5, "global average time-to-destination map"},
		{"fig6", (*lab).runFig6, "most-frequent-destination cells"},
		{"queryhits", (*lab).runQueryHits, "inventory vs full-scan hit reduction"},
		{"eta", (*lab).runETA, "ETA baseline accuracy"},
		{"dest", (*lab).runDest, "destination prediction accuracy"},
		{"route", (*lab).runRoute, "route forecasting"},
		{"anomaly", (*lab).runAnomaly, "Suez-blockage normalcy deviation"},
		{"adaptive", (*lab).runAdaptive, "adaptive-resolution inventory (paper future work)"},
		{"rollup", (*lab).runRollup, "hierarchical res-7→res-6 roll-up (paper future work)"},
		{"baseline", (*lab).runBaseline, "clustering route-model baseline vs inventory"},
		{"weather", (*lab).runWeather, "weather-enriched summaries (paper future work)"},
	}

	want := strings.Split(*exp, ",")
	match := func(id string) bool {
		for _, w := range want {
			if w == "all" || w == id {
				return true
			}
		}
		return false
	}
	ran := 0
	for _, e := range experiments {
		if !match(e.id) {
			continue
		}
		fmt.Printf("\n================================================================\n")
		fmt.Printf("== %-10s %s\n", e.id, e.txt)
		fmt.Printf("================================================================\n")
		if err := e.fn(l); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q (see -h)", *exp)
	}
}
