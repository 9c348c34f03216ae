// Command polbuild runs the Patterns-of-Life pipeline over an AIS archive
// and writes the global inventory as a POLSEG1 segment (the paper's
// methodology, Figure 3) — the one file format polserve, polquery,
// polrender, checkpoints and replicas all read.
//
// Usage:
//
//	polbuild -in fleet.nmea -res 6 -out fleet.polinv
//	polbuild -synthetic -vessels 100 -days 30 -res 7 -out synth.polinv
//
// With -coordinator the build is distributed: polbuild listens on the given
// address, waits for -workers polworker processes to join, splits the
// archive into scan tasks, and reduces the partial inventories the workers
// return (a distributed build reads an archive; -synthetic is local only):
//
//	polbuild -in fleet.nmea -coordinator :7700 -workers 2 -out fleet.polinv
//
// The shuffle is worker-to-worker: the coordinator assigns each reduce
// bucket an owning worker and the workers stream map output directly to
// the owner; -reduce-tasks sizes the bucket count.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"github.com/patternsoflife/pol/internal/cluster"
	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("polbuild: ")

	var (
		in          = flag.String("in", "", "input timestamped-NMEA archive (from polgen or a provider)")
		synthetic   = flag.Bool("synthetic", false, "generate the dataset in-process instead of reading -in (local builds only)")
		vessels     = flag.Int("vessels", 100, "synthetic fleet size")
		days        = flag.Int("days", 30, "synthetic days")
		seed        = flag.Int64("seed", 1, "synthetic seed")
		res         = flag.Int("res", 6, "hexgrid resolution of the inventory (paper: 6 or 7)")
		out         = flag.String("out", "inventory.polinv", "output inventory file (POLSEG1 segment)")
		par         = flag.Int("parallelism", runtime.GOMAXPROCS(0), "worker pool width")
		coordinator = flag.String("coordinator", "", "distribute the build: listen on this address for polworker processes")
		workers     = flag.Int("workers", 1, "distributed mode: wait for this many workers before dispatching")
		mapTasks    = flag.Int("map-tasks", 0, "distributed mode: archive scan section count (default 4 per worker)")
		reduceTasks = flag.Int("reduce-tasks", 0, "distributed mode: shuffle bucket count (default 2 per worker)")
		verbose     = flag.Bool("v", false, "print stage metrics (local) or scheduling progress (distributed)")
	)
	flag.Parse()

	if *coordinator != "" {
		if *synthetic || *in == "" {
			log.Fatal("a distributed build reads an archive: write one with polgen -out fleet.nmea and pass polbuild -in fleet.nmea")
		}
		runDistributed(distOpts{
			addr: *coordinator, workers: *workers,
			mapTasks: *mapTasks, reduceTasks: *reduceTasks,
			in: *in, res: *res, out: *out, verbose: *verbose,
		})
		return
	}

	gaz := ports.Default()
	portIdx := ports.NewIndex(gaz, ports.IndexResolution)
	ctx := dataflow.NewContext(*par)

	var records *dataflow.Dataset[model.PositionRecord]
	var static map[uint32]model.VesselInfo
	desc := ""

	switch {
	case *synthetic:
		s, err := sim.New(sim.Config{Vessels: *vessels, Days: *days, Seed: *seed}, gaz)
		if err != nil {
			log.Fatal(err)
		}
		static = s.Fleet().StaticIndex()
		n := len(s.Fleet().Vessels)
		records = dataflow.Generate(ctx, n, func(part int) []model.PositionRecord {
			recs, _ := s.VesselTrack(part)
			return recs
		})
		desc = "synthetic: " + s.Config().Describe()
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		r := feed.NewReader(f)
		all, err := r.ReadAll()
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		st := r.Stats()
		log.Printf("ingest: %d lines, %d positions, %d statics, %d bad lines, %d bad NMEA",
			st.Lines, st.Positions, st.Statics, st.BadLines, st.BadNMEA)
		static = r.StaticsAsVesselInfo()
		records = dataflow.Parallelize(ctx, all, *par*4)
		desc = "archive: " + *in
	default:
		log.Fatal("need -in FILE or -synthetic (see -h)")
	}

	result, err := pipeline.Run(records, static, portIdx, pipeline.Options{
		Resolution:  *res,
		Description: desc,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pipeline: %s", result.Stats)
	if *verbose {
		fmt.Fprint(os.Stderr, ctx.Metrics().String())
	}
	report(result.Inventory, *out)
}

type distOpts struct {
	addr        string
	workers     int
	mapTasks    int
	reduceTasks int
	in          string
	res         int
	out         string
	verbose     bool
}

// runDistributed coordinates a cluster build: polworker processes dial in,
// scan and shuffle the archive, and this process merges the partial
// inventories their bucket reduces return.
func runDistributed(o distOpts) {
	job := cluster.Job{
		Resolution:  o.res,
		Description: "archive (distributed): " + o.in,
		Archive:     &cluster.ArchiveJob{Path: o.in, MapTasks: o.mapTasks, ReduceTasks: o.reduceTasks},
	}

	tr := trace.New(trace.Options{Service: "polbuild"})
	cfg := cluster.Config{Addr: o.addr, MinWorkers: o.workers, Tracer: tr}
	if o.verbose {
		cfg.Logf = log.Printf
	}
	co, err := cluster.NewCoordinator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("coordinating on %s, waiting for %d worker(s)", co.Addr(), o.workers)
	// Root the build's trace here so the coordinator's job span — and,
	// through the traceparent stamped into every task frame, the workers'
	// execution spans — all join one trace, greppable across process logs.
	span := tr.StartRoot("polbuild.distributed")
	log.Printf("trace %s", span.Trace)
	result, err := co.Run(trace.ContextWith(context.Background(), span), job)
	span.SetError(err)
	span.Finish()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("pipeline: %s", result.Stats)
	log.Printf("cluster: %d tasks, %d retries, %d duplicate completions, %d bucket reassignments",
		result.Tasks, result.Retries, result.Duplicates, result.Reassigned)
	log.Printf("ingest: %d lines, %d positions, %d statics, %d bad lines, %d bad NMEA",
		result.Feed.Lines, result.Feed.Positions, result.Feed.Statics,
		result.Feed.BadLines, result.Feed.BadNMEA)
	report(result.Inventory, o.out)
}

// report prints the inventory summary and writes the segment — shared by
// the local and distributed paths so both modes produce identical output.
func report(inv *inventory.Inventory, out string) {
	for _, gs := range inventory.AllGroupSets {
		log.Printf("groups %v: %d (compression %.4f%%)",
			gs, inv.CountGroups(gs), inv.Compression(gs)*100)
	}
	log.Printf("cells: %d (global H3 utilization %.6f%%)",
		len(inv.Cells(inventory.GSCell)), inv.Utilization()*100)
	st, err := segment.WriteFileSum(inv, out)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d groups, %.1f MiB)", out, inv.Len(), float64(st.Size)/(1<<20))
}
