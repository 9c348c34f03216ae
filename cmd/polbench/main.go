// Command polbench reproduces the paper's evaluation (§4) on the synthetic
// dataset. Every table, figure and use case is one experiment that returns
// a table of measured numbers and the named checks the paper's claims
// become. The only output is markdown — EXPERIMENTS.md's paper section,
// regenerated and never edited — and polbench exits 1 when any check fails,
// after listing every failure on stderr. Wall-clock figures go to stderr
// too, each experiment's among them, so the section is the same bytes on
// every run of one configuration.
//
// Usage:
//
//	polbench -exp all -vessels 150 -days 30 -seed 1 -out out/
//	polbench -exp table4,fig6
//
// Performance is measured by the repository's benchmark (bench/,
// BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// experiment is one row of the paper reproduction: what the paper reports,
// and the run that measures it here.
type experiment struct {
	id, title string
	paper     string // the paper's claim, in words; measured numbers stay in the report
	run       func(*lab) (*report, error)
}

// report is what one experiment measured: a table whose first row is the
// header, and the named checks the paper's claims become.
type report struct {
	rows   [][]string
	checks []check
}

type check struct {
	name string
	ok   bool
}

func (r *report) row(cells ...string) { r.rows = append(r.rows, cells) }

func (r *report) check(name string, ok bool) { r.checks = append(r.checks, check{name, ok}) }

var experiments = []experiment{
	{"table1", "dataset description", "Table 1: 2.7 billion positional reports of the commercial fleet (60 GB), static information of 60 thousand vessels, 20 thousand ports. The synthetic fleet stands in for the proprietary archive, so counts differ by design.", (*lab).runTable1},
	{"table2", "grouping sets", "Table 2: three grouping sets — (cell), (cell, vessel type), (cell, origin, destination, vessel type) — each a refinement of the one before.", (*lab).runTable2},
	{"table3", "feature set and statistics", "Table 3: every cell carries counts (Cnt), distinct counts (Dist), means (starred: circular), standard deviations, percentiles 10/50/90, 30° bins and top-N lists over records, ships, course, heading, speed, trips, ETO, ATA, origins, destinations and transitions.", (*lab).runTable3},
	{"table4", "coverage and compression", "Table 4, a year of 2.7 B records: finer cells cost more groups, compress less and leave more of the grid empty.", (*lab).runTable4},
	{"fig1", "global average speed and course maps", "Figure 1: global per-cell average speed (blue slow, red fast) and average course (green N, blue E, red S, yellow W) at res 6; the lane network emerges.", (*lab).runFig1},
	{"fig4", "Baltic regional maps", "Figure 4: Baltic trip frequency, loitering (speed) and separation schemes (course).", (*lab).runFig4},
	{"fig5", "global average time-to-destination map", "Figure 5: global per-cell average actual time to destination at res 6, near zero at the ports and growing with the distance still to sail.", (*lab).runFig5},
	{"fig6", "most-frequent-destination cells", "Figure 6: cells whose most frequent destination is Singapore, Shanghai or Rotterdam; sparse but lane-shaped.", (*lab).runFig6},
	{"queryhits", "inventory vs full-scan hit reduction", "§4: per-location statistics from the inventory need 99.7 % (res 6) and 98.4 % (res 7) fewer record hits than an online full scan.", (*lab).runQueryHits},
	{"eta", "ETA baseline accuracy", "§4.1.2: per-cell ATA statistics are a baseline ETA estimator.", (*lab).runETA},
	{"dest", "destination prediction accuracy", "§4.1.3: streaming top-N destination voting predicts where vessels with undisclosed destinations are going.", (*lab).runDest},
	{"route", "route forecasting", "§4.1.3: a route forecast is A* over the transition graph of the voyage's (origin, destination, type) key.", (*lab).runRoute},
	{"anomaly", "Suez-blockage normalcy deviation", "Motivation: the normalcy model exposes disruptions; the 2021 Suez blockage forced re-routing around the Cape of Good Hope.", (*lab).runAnomaly},
	{"baseline", "clustering route-model baseline vs inventory", "§2: clustering baselines (DBSCAN, k-means route extraction) are the related work the grid inventory replaces; [20] reports DBSCAN's sensitivity on density-skewed global AIS data.", (*lab).runBaseline},
	{"weather", "weather-enriched summaries (paper future work)", "§5 future work: combining AIS with weather data gives enriched, trade-specific summaries.", (*lab).runWeather},
	{"adaptive", "adaptive-resolution inventory (paper future work)", "§5 future work: non-uniform inventories, large cells in sparse open sea and high resolution near dense areas.", (*lab).runAdaptive},
	{"rollup", "hierarchical res-7 → res-6 roll-up (paper future work)", "§5 future work: summaries at a fine resolution merge to the coarser level without re-scanning raw data.", (*lab).runRollup},
}

// config is one polbench invocation.
type config struct {
	exp           string
	vessels, days int
	seed          int64
	outDir        string
	width         int
}

func main() {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(ids, " ")+") or all")
		vessels = flag.Int("vessels", 150, "synthetic fleet size")
		days    = flag.Int("days", 30, "simulated days")
		seed    = flag.Int64("seed", 1, "determinism seed")
		outDir  = flag.String("out", "out", "output directory for figures")
		width   = flag.Int("width", 1600, "figure width in pixels")
	)
	flag.Parse()
	// The reference run's live heap peaks at 1.3–1.5 GB (150 vessels × 30
	// days) while the res-7 build's inventory is still open, before it is
	// sealed, and its resident set at 2.5–3.2 GB. Sealed, both resolutions
	// hold about a third of that; the limit caps what GOGC alone would
	// let a larger run's heap double to.
	debug.SetMemoryLimit(4 << 30)
	os.Exit(run(config{*exp, *vessels, *days, *seed, *outDir, *width}, experiments, os.Stdout, os.Stderr))
}

// run executes the selected experiments against one lab and writes the
// markdown section to stdout. It returns the exit status: 0, 1 when a check
// failed or an experiment erred, every failure listed on stderr, or 2 when
// it cannot start (an unknown experiment, an output directory it cannot
// create).
func run(cfg config, exps []experiment, stdout, stderr io.Writer) int {
	sel := exps
	if cfg.exp != "all" {
		sel = nil
		for _, id := range strings.Split(cfg.exp, ",") {
			i := slices.IndexFunc(exps, func(e experiment) bool { return e.id == id })
			if i < 0 {
				fmt.Fprintf(stderr, "polbench: unknown experiment %q (see -h)\n", id)
				return 2
			}
			sel = append(sel, exps[i])
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "polbench: %v\n", err)
		return 2
	}
	l := newLab(cfg, stderr)
	fmt.Fprintf(stdout, "Generated by `go run ./cmd/polbench -exp %s -vessels %d -days %d -seed %d`; edit the experiments in `cmd/polbench`, not this text.\n",
		cfg.exp, cfg.vessels, cfg.days, cfg.seed)
	var failures []string
	for _, e := range sel {
		start := time.Now()
		rep, err := e.run(l)
		fmt.Fprintf(stderr, "polbench: %s took %s\n", e.id, time.Since(start).Round(time.Millisecond))
		if rep == nil {
			rep = &report{}
		}
		writeSection(stdout, e, rep, err)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", e.id, err))
		}
		for _, c := range rep.checks {
			if !c.ok {
				failures = append(failures, fmt.Sprintf("%s: %s", e.id, c.name))
			}
		}
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "polbench: FAIL %s\n", f)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// writeSection renders one experiment: heading, the paper's claim, the
// measured table and the checks.
func writeSection(w io.Writer, e experiment, r *report, err error) {
	fmt.Fprintf(w, "\n## %s — %s\n\n%s\n", e.id, e.title, e.paper)
	for i, cells := range r.rows {
		if i == 0 {
			fmt.Fprintf(w, "\n| %s |\n|%s\n", strings.Join(cells, " | "), strings.Repeat("---|", len(cells)))
		} else {
			fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
		}
	}
	if err != nil {
		fmt.Fprintf(w, "\n**error:** %v\n", err)
	}
	if len(r.checks) > 0 {
		fmt.Fprintln(w)
	}
	for _, c := range r.checks {
		mark := "pass"
		if !c.ok {
			mark = "**FAIL**"
		}
		fmt.Fprintf(w, "- %s: %s\n", mark, c.name)
	}
}
