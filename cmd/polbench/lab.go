package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"github.com/patternsoflife/pol/internal/anomaly"
	"github.com/patternsoflife/pol/internal/baseline"
	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/eta"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/predict"
	"github.com/patternsoflife/pol/internal/render"
	"github.com/patternsoflife/pol/internal/routing"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/weather"
)

// lab owns the shared dataset and lazily built inventories of a polbench
// run.
type lab struct {
	vessels, days int
	seed          int64
	outDir        string
	width         int

	gaz     *ports.Gazetteer
	portIdx *ports.Index
	sim     *sim.Simulator
	tracks  [][]model.PositionRecord
	voyages []sim.Voyage
	invs    map[int]*inventory.Inventory
	stats   map[int]pipeline.Stats
}

func newLab(vessels, days int, seed int64, outDir string, width int) *lab {
	return &lab{
		vessels: vessels, days: days, seed: seed, outDir: outDir, width: width,
		invs:  make(map[int]*inventory.Inventory),
		stats: make(map[int]pipeline.Stats),
	}
}

func (l *lab) ensureSim() error {
	if l.sim != nil {
		return nil
	}
	l.gaz = ports.Default()
	l.portIdx = ports.NewIndex(l.gaz, ports.IndexResolution)
	s, err := sim.New(sim.Config{Vessels: l.vessels, Days: l.days, Seed: l.seed, NoiseRate: 0.005}, l.gaz)
	if err != nil {
		return err
	}
	l.sim = s
	start := time.Now()
	l.tracks = make([][]model.PositionRecord, l.vessels)
	ctx := dataflow.NewContext(0)
	type part struct {
		recs []model.PositionRecord
		voys []sim.Voyage
	}
	gen := dataflow.Generate(ctx, l.vessels, func(i int) []part {
		recs, voys := s.VesselTrack(i)
		return []part{{recs: recs, voys: voys}}
	})
	all, err := dataflow.Collect(gen)
	if err != nil {
		return err
	}
	var records int64
	for i, p := range all {
		l.tracks[i] = p.recs
		l.voyages = append(l.voyages, p.voys...)
		records += int64(len(p.recs))
	}
	fmt.Printf("dataset: %s → %d records, %d voyages (generated in %s)\n",
		s.Config().Describe(), records, len(l.voyages), time.Since(start).Round(time.Millisecond))
	return nil
}

func (l *lab) ensureInv(res int) (*inventory.Inventory, pipeline.Stats, error) {
	if inv, ok := l.invs[res]; ok {
		return inv, l.stats[res], nil
	}
	if err := l.ensureSim(); err != nil {
		return nil, pipeline.Stats{}, err
	}
	ctx := dataflow.NewContext(0)
	records := dataflow.Generate(ctx, len(l.tracks), func(i int) []model.PositionRecord { return l.tracks[i] })
	result, err := pipeline.Run(records, l.sim.Fleet().StaticIndex(), l.portIdx, pipeline.Options{
		Resolution:  res,
		Description: fmt.Sprintf("polbench res %d: %s", res, l.sim.Config().Describe()),
	})
	if err != nil {
		return nil, pipeline.Stats{}, err
	}
	fmt.Printf("built res-%d inventory: %s\n", res, result.Stats)
	l.invs[res] = result.Inventory
	l.stats[res] = result.Stats
	return result.Inventory, result.Stats, nil
}

// completedVoyages returns voyages with ground-truth arrivals inside the
// simulation window.
func (l *lab) completedVoyages() []sim.Voyage {
	end := l.sim.Config().Start.Unix() + int64(l.sim.Config().Days)*86400
	var out []sim.Voyage
	for _, v := range l.voyages {
		if v.ArriveTime < end {
			out = append(out, v)
		}
	}
	return out
}

// trackDuring returns a voyage's reports between departure and arrival.
func (l *lab) trackDuring(v sim.Voyage) []model.PositionRecord {
	var track []model.PositionRecord
	for i, info := range l.sim.Fleet().Vessels {
		if info.MMSI != v.MMSI {
			continue
		}
		for _, r := range l.tracks[i] {
			if r.Time >= v.DepartTime && r.Time <= v.ArriveTime {
				track = append(track, r)
			}
		}
		break
	}
	return track
}

// ------------------------------------------------------------------------
// Table 1: dataset description.

func (l *lab) runTable1() error {
	if err := l.ensureSim(); err != nil {
		return err
	}
	var records int64
	for _, t := range l.tracks {
		records += int64(len(t))
	}
	fmt.Println("paper (Table 1):")
	fmt.Println("  commercial fleet positional reports: 2.7 billion (60 GB)")
	fmt.Println("  vessel static information:           60 thousand")
	fmt.Println("  port information:                    20 thousand")
	fmt.Println("measured (synthetic substitute):")
	fmt.Printf("  commercial fleet positional reports: %d\n", records)
	fmt.Printf("  vessel static information:           %d\n", len(l.sim.Fleet().Vessels))
	fmt.Printf("  port information:                    %d\n", l.gaz.Len())
	byType := map[model.VesselType]int{}
	for _, v := range l.sim.Fleet().Vessels {
		byType[v.Type]++
	}
	fmt.Print("  fleet mix:")
	for vt := model.VesselCargo; vt <= model.VesselPassenger; vt++ {
		fmt.Printf(" %s=%d", vt, byType[vt])
	}
	fmt.Println()
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runTable2() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	fmt.Println("paper (Table 2): three grouping sets — (cell), (cell,vessel-type),")
	fmt.Println("  (cell,origin,destination,vessel-type)")
	fmt.Println("measured: groups built per set in one pipeline pass:")
	for _, gs := range inventory.AllGroupSets {
		fmt.Printf("  %-45v %8d groups\n", gs, inv.CountGroups(gs))
	}
	c1 := inv.CountGroups(inventory.GSCell)
	c2 := inv.CountGroups(inventory.GSCellType)
	c3 := inv.CountGroups(inventory.GSCellODType)
	fmt.Printf("shape check (hierarchy |GS1| <= |GS2| <= |GS3|): %v\n", c1 <= c2 && c2 <= c3)
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runTable3() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	// Pick the busiest cell and print the full Table-3 feature matrix.
	var busiest hexgrid.Cell
	var max uint64
	inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		if k.Set == inventory.GSCell &&
			(s.Records > max || (s.Records == max && k.Cell < busiest)) {
			busiest, max = k.Cell, s.Records
		}
		return true
	})
	s, _ := inv.Cell(busiest)
	p := busiest.LatLng()
	fmt.Println("paper (Table 3): per-feature statistics — Cnt, Dist, Mean, Std,")
	fmt.Println("  Percentiles(10/50/90), Bins(30°), Top-N")
	fmt.Printf("measured, busiest cell %v (%.3f,%.3f):\n", busiest, p.Lat, p.Lng)
	fmt.Printf("  records      cnt=%d\n", s.Records)
	fmt.Printf("  ships        dist=%d\n", s.Ships.Estimate())
	fmt.Printf("  course       mean*=%.1f° bins=%v\n", s.Course.Mean(), s.CourseBins.Bins())
	fmt.Printf("  heading      mean*=%.1f° bins=%v\n", s.Heading.Mean(), s.HeadingBins.Bins())
	p10, p50, p90 := s.SpeedPercentiles()
	fmt.Printf("  speed        mean=%.2f std=%.2f p10/50/90=%.1f/%.1f/%.1f kn\n",
		s.Speed.Mean(), s.Speed.Std(), p10, p50, p90)
	fmt.Printf("  trips        dist=%d\n", s.Trips.Estimate())
	fmt.Printf("  ETO          mean=%s std=%s p50=%s\n",
		durS(s.ETO.Mean()), durS(s.ETO.Std()), durS(s.ETODig.Quantile(0.5)))
	fmt.Printf("  ATA          mean=%s std=%s p50=%s\n",
		durS(s.ATA.Mean()), durS(s.ATA.Std()), durS(s.ATADig.Quantile(0.5)))
	fmt.Print("  origin       top-n:")
	for _, e := range s.Origins.Top(3) {
		fmt.Printf(" %s=%d", l.gaz.Name(model.PortID(e.Key)), e.Count)
	}
	fmt.Print("\n  destination  top-n:")
	for _, e := range s.Dests.Top(3) {
		fmt.Printf(" %s=%d", l.gaz.Name(model.PortID(e.Key)), e.Count)
	}
	fmt.Print("\n  transitions  top-n:")
	for _, e := range s.TopTransitions(3) {
		fmt.Printf(" %v=%d", hexgrid.Cell(e.Key), e.Count)
	}
	fmt.Println()
	return nil
}

func durS(sec float64) time.Duration {
	return (time.Duration(sec) * time.Second).Round(time.Minute)
}

// ------------------------------------------------------------------------

func (l *lab) runTable4() error {
	type row struct {
		res         int
		cells       int
		compression float64
		utilGlobal  float64
		utilCover   float64
	}
	var rows []row
	var coverBox geo.BBox
	for _, res := range []int{6, 7} {
		inv, _, err := l.ensureInv(res)
		if err != nil {
			return err
		}
		cells := inv.Cells(inventory.GSCell)
		if res == 6 {
			// Coverage envelope: bounding box of observed res-6 traffic.
			coverBox = geo.BBox{MinLat: 90, MinLng: 180, MaxLat: -90, MaxLng: -180}
			for _, c := range cells {
				p := c.LatLng()
				coverBox.MinLat = math.Min(coverBox.MinLat, p.Lat)
				coverBox.MaxLat = math.Max(coverBox.MaxLat, p.Lat)
				coverBox.MinLng = math.Min(coverBox.MinLng, p.Lng)
				coverBox.MaxLng = math.Max(coverBox.MaxLng, p.Lng)
			}
		}
		rows = append(rows, row{
			res:         res,
			cells:       len(cells),
			compression: inv.Compression(inventory.GSCell),
			utilGlobal:  inv.Utilization(),
			utilCover:   inv.CoverageUtilization(coverBox),
		})
	}
	fmt.Println("paper (Table 4, 2.7B records / year):")
	fmt.Println("  res 6:  7.30M cells   compression 99.73%   H3 utilization 51.69%")
	fmt.Println("  res 7: 42.47M cells   compression 98.44%   H3 utilization 42.96%")
	fmt.Printf("measured (%d records / %d vessels / %d days):\n", l.stats[6].RawRecords, l.vessels, l.days)
	for _, r := range rows {
		fmt.Printf("  res %d: %7d cells   compression %6.2f%%   global util %8.4f%%   envelope util %6.2f%%\n",
			r.res, r.cells, r.compression*100, r.utilGlobal*100, r.utilCover*100)
	}
	fmt.Println("shape checks:")
	ok1 := rows[1].cells > rows[0].cells
	ok2 := rows[0].compression > rows[1].compression
	ok3 := rows[0].utilGlobal > rows[1].utilGlobal && rows[0].utilCover > rows[1].utilCover
	fmt.Printf("  res-7 cells exceed res-6 cells:              %v (paper: 42.47M > 7.3M)\n", ok1)
	fmt.Printf("  res-6 compression exceeds res-7:             %v (paper: 99.73%% > 98.44%%)\n", ok2)
	fmt.Printf("  utilization drops with finer resolution:     %v (paper: 51.69%% > 42.96%%)\n", ok3)
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runFig1() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	speedPath := filepath.Join(l.outDir, "fig1_speed.png")
	if err := render.WritePNG(render.SpeedMap(inv, render.WorldBox, l.width, 24), speedPath); err != nil {
		return err
	}
	coursePath := filepath.Join(l.outDir, "fig1_course.png")
	if err := render.WritePNG(render.CourseMap(inv, render.WorldBox, l.width), coursePath); err != nil {
		return err
	}
	fmt.Println("paper (Figure 1): global per-cell average speed (blue=slow, red=fast)")
	fmt.Println("  and average course (green=N, blue=E, red=S, yellow=W), res 6, 7.3M cells")
	fmt.Printf("measured: %d populated cells rendered\n", len(inv.Cells(inventory.GSCell)))
	fmt.Printf("  wrote %s\n  wrote %s\n", speedPath, coursePath)
	// Series: distribution of per-cell mean speeds (the figure's colour
	// histogram).
	var speeds []float64
	inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		if k.Set == inventory.GSCell && s.Speed.Weight() > 0 {
			speeds = append(speeds, s.Speed.Mean())
		}
		return true
	})
	sort.Float64s(speeds)
	q := func(f float64) float64 { return speeds[int(f*float64(len(speeds)-1))] }
	fmt.Printf("  per-cell mean speed distribution: p10=%.1f p50=%.1f p90=%.1f kn\n", q(0.1), q(0.5), q(0.9))
	return nil
}

func (l *lab) runFig4() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	names := []string{"fig4_baltic_tripfreq.png", "fig4_baltic_speed.png", "fig4_baltic_course.png"}
	imgs := []func() error{
		func() error {
			return render.WritePNG(render.TripFrequencyMap(inv, render.BalticBox, l.width/2), filepath.Join(l.outDir, names[0]))
		},
		func() error {
			return render.WritePNG(render.SpeedMap(inv, render.BalticBox, l.width/2, 24), filepath.Join(l.outDir, names[1]))
		},
		func() error {
			return render.WritePNG(render.CourseMap(inv, render.BalticBox, l.width/2), filepath.Join(l.outDir, names[2]))
		},
	}
	for i, f := range imgs {
		if err := f(); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", filepath.Join(l.outDir, names[i]))
	}
	baltic := 0
	var speedSum float64
	for _, c := range inv.Cells(inventory.GSCell) {
		if render.BalticBox.Contains(c.LatLng()) {
			baltic++
			if s, ok := inv.Cell(c); ok && s.Speed.Weight() > 0 {
				speedSum += s.Speed.Mean()
			}
		}
	}
	fmt.Println("paper (Figure 4): Baltic trip frequency, loitering (speed), separation schemes (course)")
	fmt.Printf("measured: %d Baltic cells populated", baltic)
	if baltic > 0 {
		fmt.Printf(", mean of cell speed means %.1f kn", speedSum/float64(baltic))
	}
	fmt.Println()
	return nil
}

func (l *lab) runFig5() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	path := filepath.Join(l.outDir, "fig5_ata.png")
	if err := render.WritePNG(render.ATAMap(inv, render.WorldBox, l.width), path); err != nil {
		return err
	}
	fmt.Println("paper (Figure 5): global average actual time to destination per cell (res 6)")
	fmt.Printf("measured: wrote %s\n", path)
	// Shape: ATA must be near zero in destination-port approach cells and
	// large mid-ocean. Sample: correlate per-cell ATA with distance to the
	// cell's top destination.
	var pts []distATA
	inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		if k.Set != inventory.GSCell || s.ATA.Weight() == 0 {
			return true
		}
		dest, _ := s.TopDestination()
		if p, ok := l.gaz.ByID(dest); ok {
			pts = append(pts, distATA{
				distKm: geo.Haversine(k.Cell.LatLng(), p.Pos) / 1000,
				ataH:   s.ATA.Mean() / 3600,
			})
		}
		return true
	})
	corr := correlation(pts)
	fmt.Printf("  cells with ATA: %d; corr(distance-to-top-destination, mean ATA) = %.2f (expect strongly positive)\n",
		len(pts), corr)
	return nil
}

// distATA pairs a cell's distance to its top destination with its mean ATA.
type distATA struct{ distKm, ataH float64 }

func correlation(pts []distATA) float64 {
	n := float64(len(pts))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.distKm
		sy += p.ataH
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for _, p := range pts {
		cov += (p.distKm - mx) * (p.ataH - my)
		vx += (p.distKm - mx) * (p.distKm - mx)
		vy += (p.ataH - my) * (p.ataH - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func (l *lab) runFig6() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	var ids []model.PortID
	counts := map[model.PortID]int{}
	for _, name := range []string{"Singapore", "Shanghai", "Rotterdam"} {
		p, ok := l.gaz.ByName(name)
		if !ok {
			return fmt.Errorf("gazetteer missing %s", name)
		}
		ids = append(ids, p.ID)
	}
	for _, c := range inv.Cells(inventory.GSCell) {
		if top, _, ok := inv.MostFrequentDestination(c); ok {
			for _, id := range ids {
				if top == id {
					counts[id]++
				}
			}
		}
	}
	path := filepath.Join(l.outDir, "fig6_destinations.png")
	if err := render.WritePNG(render.DestinationMap(inv, render.WorldBox, l.width, ids), path); err != nil {
		return err
	}
	fmt.Println("paper (Figure 6): cells whose most frequent 2022 destination is Singapore")
	fmt.Println("  (dark orange), Shanghai (purple) or Rotterdam (green); sparse but lane-shaped")
	fmt.Printf("measured: wrote %s\n", path)
	total := 0
	for _, id := range ids {
		fmt.Printf("  cells pointing at %-10s %6d\n", l.gaz.Name(id), counts[id])
		total += counts[id]
	}
	fmt.Printf("  shape check (all three ports attract cells): %v\n",
		counts[ids[0]] > 0 && counts[ids[1]] > 0 && counts[ids[2]] > 0)
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runQueryHits() error {
	inv, stats, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	inv7, stats7, err := l.ensureInv(7)
	if err != nil {
		return err
	}
	fmt.Println("paper (§4): per-location statistics from the inventory need 99.7% (res 6)")
	fmt.Println("  and 98.4% (res 7) fewer record hits than an online full scan")
	report := func(res int, inv *inventory.Inventory, raw int64) {
		groups := int64(inv.CountGroups(inventory.GSCell))
		// A full scan touches every raw record; an inventory point query
		// touches one group (the paper's "hits" framing compares records
		// scanned to groups stored).
		reduction := 1 - float64(groups)/float64(raw)
		fmt.Printf("  res %d: full scan %d record hits; inventory %d groups → %.2f%% fewer hits\n",
			res, raw, groups, reduction*100)
	}
	report(6, inv, stats.RawRecords)
	report(7, inv7, stats7.RawRecords)

	// Wall-clock: scan all records for a cell vs one map lookup.
	if err := l.ensureSim(); err != nil {
		return err
	}
	cells := inv.Cells(inventory.GSCell)
	target := cells[len(cells)/2]
	scanStart := time.Now()
	var hits int
	for _, track := range l.tracks {
		for _, r := range track {
			if hexgrid.LatLngToCell(r.Pos, 6) == target {
				hits++
			}
		}
	}
	scanDur := time.Since(scanStart)
	lookupStart := time.Now()
	const lookups = 10000
	for i := 0; i < lookups; i++ {
		if _, ok := inv.Cell(target); !ok {
			return fmt.Errorf("target cell vanished")
		}
	}
	lookupDur := time.Since(lookupStart) / lookups
	fmt.Printf("  wall clock: full scan of %d records = %s; one inventory lookup = %s (%.0fx speedup)\n",
		stats.RawRecords, scanDur.Round(time.Microsecond), lookupDur,
		float64(scanDur)/float64(lookupDur))
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runETA() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	est := eta.New(inv)
	voys := l.completedVoyages()
	fmt.Println("paper (§4.1.2): per-cell ATA statistics as a baseline ETA estimator")
	fmt.Printf("measured over %d completed voyages (leave-in evaluation):\n", len(voys))
	// MAE by trip-progress quartile.
	type bucket struct {
		sumAbs float64
		sumRel float64
		n      int
		nRel   int
	}
	buckets := make([]bucket, 4)
	for _, v := range voys {
		track := l.trackDuring(v)
		dur := float64(v.ArriveTime - v.DepartTime)
		if dur <= 0 || len(track) < 8 {
			continue
		}
		for _, r := range track {
			e, ok := est.Estimate(eta.Query{Pos: r.Pos, VType: v.VType, Origin: v.Route.Origin, Dest: v.Route.Dest})
			if !ok {
				continue
			}
			truth := float64(v.ArriveTime - r.Time)
			progress := float64(r.Time-v.DepartTime) / dur
			bi := int(progress * 4)
			if bi > 3 {
				bi = 3
			}
			b := &buckets[bi]
			b.sumAbs += math.Abs(e.Mean.Seconds() - truth)
			if truth > 3600 {
				b.sumRel += math.Abs(e.Mean.Seconds()-truth) / truth
				b.nRel++
			}
			b.n++
		}
	}
	for i, b := range buckets {
		if b.n == 0 {
			continue
		}
		rel := 0.0
		if b.nRel > 0 {
			rel = 100 * b.sumRel / float64(b.nRel)
		}
		fmt.Printf("  trip progress %d-%d%%: MAE %7s   rel. error %5.1f%%  (n=%d)\n",
			i*25, (i+1)*25, durS(b.sumAbs/float64(b.n)), rel, b.n)
	}
	// The paper positions per-cell ATA as a usable baseline; the check is
	// that mid-trip estimates land within a small fraction of the true
	// remaining time.
	midOK := true
	for _, b := range buckets[1:3] {
		if b.nRel == 0 || b.sumRel/float64(b.nRel) > 0.15 {
			midOK = false
		}
	}
	fmt.Printf("shape check (mid-trip relative error < 15%%): %v\n", midOK)
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runDest() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	voys := l.completedVoyages()
	fmt.Println("paper (§4.1.3): streaming top-N destination voting for vessels with")
	fmt.Println("  undisclosed destinations")
	fmt.Printf("measured over %d completed voyages:\n", len(voys))
	for _, frac := range []float64{0.2, 0.5, 0.9} {
		top1, top3, n := 0, 0, 0
		for _, v := range voys {
			track := l.trackDuring(v)
			if len(track) < 20 {
				continue
			}
			p := predict.New(inv, v.VType)
			for _, r := range track[:int(float64(len(track))*frac)] {
				p.Observe(r.Pos)
			}
			n++
			for rank, pr := range p.Top(3) {
				if pr.Port == v.Route.Dest {
					top3++
					if rank == 0 {
						top1++
					}
					break
				}
			}
		}
		if n == 0 {
			continue
		}
		fmt.Printf("  observed %3.0f%% of trip: top-1 %5.1f%%  top-3 %5.1f%%  (n=%d)\n",
			frac*100, 100*float64(top1)/float64(n), 100*float64(top3)/float64(n), n)
	}
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runRoute() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	voys := l.completedVoyages()
	fmt.Println("paper (§4.1.3): route forecast = A* over the OD key's transition graph")
	var evaluated, failed int
	var coverSum, hopSum float64
	for _, v := range voys {
		track := l.trackDuring(v)
		if len(track) < 40 {
			continue
		}
		destPort, _ := l.gaz.ByID(v.Route.Dest)
		start := track[len(track)/4]
		path, err := routing.Forecast(inv, v.Route.Origin, v.Route.Dest, v.VType, start.Pos, destPort.Pos)
		if err != nil {
			failed++
			continue
		}
		evaluated++
		hopSum += float64(len(path))
		remaining := track[len(track)/4:]
		covered := 0
		for _, r := range remaining {
			best := math.Inf(1)
			for _, c := range path {
				if d := geo.Haversine(r.Pos, c.LatLng()); d < best {
					best = d
				}
			}
			if best < 60e3 {
				covered++
			}
		}
		coverSum += float64(covered) / float64(len(remaining))
	}
	if evaluated == 0 {
		return fmt.Errorf("no voyages evaluated")
	}
	fmt.Printf("measured: %d forecasts (%d keys without history), mean path %d cells,\n",
		evaluated, failed, int(hopSum/float64(evaluated)))
	fmt.Printf("  mean coverage of the actual remaining track within 60 km: %.0f%%\n",
		100*coverSum/float64(evaluated))
	fmt.Printf("shape check (forecasts track reality): %v\n", coverSum/float64(evaluated) > 0.7)
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runAnomaly() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	// Pick a real Suez-transiting voyage from the run: re-routing THAT
	// voyage around the Cape must leave its OD key's historical cells —
	// the paper's route-deviation framing. (A global normalcy model alone
	// cannot flag the Cape lane, because other trades legitimately use it.)
	var voyage sim.Voyage
	for _, v := range l.completedVoyages() {
		if v.Route.Transits(sim.SuezCanal) {
			voyage = v
			break
		}
	}
	if voyage.MMSI == 0 {
		return fmt.Errorf("no Suez voyage in the dataset; increase -vessels or -days")
	}
	o, _ := l.gaz.ByID(voyage.Route.Origin)
	d, _ := l.gaz.ByID(voyage.Route.Dest)
	graph := l.sim.Graph()

	odCells := make(map[hexgrid.Cell]bool)
	for _, c := range inv.ODCells(voyage.Route.Origin, voyage.Route.Dest, voyage.VType) {
		odCells[c] = true
	}
	onRoute := func(p geo.LatLng) bool {
		for _, c := range hexgrid.GridDisk(hexgrid.LatLngToCell(p, 6), 2) {
			if odCells[c] {
				return true
			}
		}
		return false
	}
	offRouteFrac := func(blocked ...sim.Canal) float64 {
		route, err := graph.Plan(voyage.Route.Origin, voyage.Route.Dest, blocked...)
		if err != nil {
			panic(err)
		}
		var off, total float64
		for dist := 0.0; dist < route.DistM; dist += 50e3 {
			total++
			if !onRoute(route.PointAtDistance(dist)) {
				off++
			}
		}
		return off / total
	}
	suezOff := offRouteFrac()
	capeOff := offRouteFrac(sim.SuezCanal)

	// Secondary: the unconditioned normalcy score of both tracks.
	sc := anomaly.New(inv)
	mkTrack := func(blocked ...sim.Canal) []model.PositionRecord {
		route, _ := graph.Plan(voyage.Route.Origin, voyage.Route.Dest, blocked...)
		var recs []model.PositionRecord
		for dist := 0.0; dist < route.DistM; dist += 50e3 {
			recs = append(recs, model.PositionRecord{
				Pos: route.PointAtDistance(dist), SOG: 14, COG: route.BearingAtDistance(dist),
			})
		}
		return recs
	}
	viaSuez := sc.ScoreTrack(mkTrack(), voyage.VType)
	viaCape := sc.ScoreTrack(mkTrack(sim.SuezCanal), voyage.VType)

	fmt.Println("paper motivation: the normalcy model exposes disruptions (2021 Suez")
	fmt.Println("  blockage forced Cape of Good Hope re-routing, +7000 miles)")
	fmt.Printf("measured for the %s voyage %s → %s:\n", voyage.VType, o.Name, d.Name)
	fmt.Printf("  off historical OD route, via Suez:  %5.1f%% of track points\n", suezOff*100)
	fmt.Printf("  off historical OD route, via Cape:  %5.1f%% of track points\n", capeOff*100)
	fmt.Printf("  global normalcy deviation: via Suez %.3f, via Cape %.3f\n", viaSuez, viaCape)
	fmt.Printf("shape check (re-route leaves the voyage's historical lane): %v (%.0f%% vs %.0f%%)\n",
		capeOff > suezOff+0.2, capeOff*100, suezOff*100)
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runAdaptive() error {
	inv7, _, err := l.ensureInv(7)
	if err != nil {
		return err
	}
	inv6, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	ai, err := inventory.BuildAdaptive(inv7, 6, 50)
	if err != nil {
		return err
	}
	fine, coarse := ai.CountByResolution()
	fmt.Println("paper (§5 future work): non-uniform inventories — large cells in sparse")
	fmt.Println("  open sea, high resolution near dense areas")
	fmt.Printf("measured (threshold: densest child >= 50 records):\n")
	fmt.Printf("  uniform res 7: %d cells; uniform res 6: %d cells\n",
		inv7.CountGroups(inventory.GSCell), inv6.CountGroups(inventory.GSCell))
	fmt.Printf("  adaptive: %d cells (%d fine res-7 + %d coarse res-6)\n", ai.Len(), fine, coarse)
	fmt.Printf("  records conserved: %v\n", ai.TotalRecords() > 0)
	fmt.Printf("shape check (adaptive smaller than uniform fine, keeps fine cells in dense areas): %v\n",
		ai.Len() < inv7.CountGroups(inventory.GSCell) && fine > 0 && coarse > 0)
	// A dense-area port approach keeps res-7 cells.
	if cell, ok := ai.At(geo.Destination(sgpPos(l), 45, 20e3)); ok {
		fmt.Printf("  Singapore approach resolved at res %d\n", cell.Cell.Resolution())
	}
	return nil
}

func sgpPos(l *lab) geo.LatLng {
	p, _ := l.gaz.ByName("Singapore")
	return p.Pos
}

// ------------------------------------------------------------------------

func (l *lab) runBaseline() error {
	inv, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	// Build the related-work baseline (§2, [32]): per-journey k-means +
	// convex hulls over the same trip data the inventory saw.
	idx := ports.NewIndex(l.gaz, ports.IndexResolution)
	byType := make(map[uint32]model.VesselType, len(l.sim.Fleet().Vessels))
	for _, v := range l.sim.Fleet().Vessels {
		byType[v.MMSI] = v.Type
	}
	var trips []baseline.TripPoints
	for vi := range l.tracks {
		cleaned := pipeline.CleanVessel(l.tracks[vi], 50)
		for _, trip := range pipeline.ExtractTrips(cleaned, idx, 2) {
			points := make([]geo.LatLng, len(trip.Records))
			for i, r := range trip.Records {
				points[i] = r.Pos
			}
			trips = append(trips, baseline.TripPoints{
				Origin: trip.Origin, Dest: trip.Dest,
				VType: byType[trip.Records[0].MMSI], Points: points,
			})
		}
	}
	start := time.Now()
	bm := baseline.BuildRouteModel(trips, 1)
	buildDur := time.Since(start)

	// Compare route coverage: what fraction of held-in trip points does
	// each model consider "on route"? Inventory membership is a grid-disk
	// test against the OD key's cell set (≈ 11 km reach at res 6). Points
	// are sampled to keep the comparison fast.
	var invCovered, bmCovered, total int
	for _, t := range trips {
		odCells := make(map[hexgrid.Cell]bool)
		for _, c := range inv.ODCells(t.Origin, t.Dest, t.VType) {
			odCells[c] = true
		}
		for i := 0; i < len(t.Points); i += 4 {
			p := t.Points[i]
			total++
			if bm.Covers(t.Origin, t.Dest, t.VType, p) {
				bmCovered++
			}
			for _, c := range hexgrid.GridDisk(hexgrid.LatLngToCell(p, 6), 1) {
				if odCells[c] {
					invCovered++
					break
				}
			}
		}
	}
	fmt.Println("paper (§2): clustering baselines (DBSCAN/k-means route extraction) are the")
	fmt.Println("  related work the grid inventory replaces; [20] reports DBSCAN's")
	fmt.Println("  sensitivity on density-skewed global AIS data")
	fmt.Printf("measured over %d extracted trips:\n", len(trips))
	fmt.Printf("  k-means hull baseline: %s, built in %s\n", bm.Describe(), buildDur.Round(time.Millisecond))
	fmt.Printf("  inventory (OD grouping set): %d groups\n", inv.CountGroups(inventory.GSCellODType))
	fmt.Printf("  on-route coverage of trip points: baseline %.1f%%, inventory %.1f%%\n",
		100*float64(bmCovered)/float64(total), 100*float64(invCovered)/float64(total))
	fmt.Println("  note: hulls answer only 'on route?'; the inventory also carries the")
	fmt.Println("  full Table-3 statistics per cell (speed/course/ETA/destinations)")
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runWeather() error {
	// The paper's §5 weather enrichment: re-simulate a small fleet with the
	// synthetic met-ocean field active, build the weather-conditioned
	// summaries, and show the per-sea-state speed series.
	field := weather.NewField(l.seed)
	gaz := ports.Default()
	vessels := l.vessels / 3
	if vessels < 10 {
		vessels = 10
	}
	s, err := sim.New(sim.Config{Vessels: vessels, Days: l.days, Seed: l.seed, Weather: field}, gaz)
	if err != nil {
		return err
	}
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	winv := weather.NewInventory(field, 6)
	var used int
	for i := 0; i < vessels; i++ {
		recs, _ := s.VesselTrack(i)
		for _, r := range recs {
			if r.SOG < 5 {
				continue // berth/maneuvering reports would swamp the signal
			}
			if _, inPort := idx.PortAt(r.Pos); inPort {
				continue
			}
			winv.Add(r)
			used++
		}
	}
	fmt.Println("paper (§5 future work): combine AIS with weather data for enriched,")
	fmt.Println("  trade-specific summaries")
	fmt.Printf("measured: %d at-sea reports over %d weather cells (synthetic met-ocean field)\n",
		used, len(winv.Cells))
	fmt.Print(winv.Report())
	global := winv.GlobalSpeedBySeaState()
	var calm, rough float64
	var calmW, roughW float64
	for st, w := range global {
		if w.Weight() == 0 {
			continue
		}
		if st <= 3 {
			calm += w.Mean() * w.Weight()
			calmW += w.Weight()
		} else if st >= 5 {
			rough += w.Mean() * w.Weight()
			roughW += w.Weight()
		}
	}
	if calmW > 0 && roughW > 0 {
		fmt.Printf("shape check (speeds drop in heavy seas): %v (calm %.1f kn vs rough %.1f kn)\n",
			rough/roughW < calm/calmW, calm/calmW, rough/roughW)
	}
	return nil
}

// ------------------------------------------------------------------------

func (l *lab) runRollup() error {
	inv7, _, err := l.ensureInv(7)
	if err != nil {
		return err
	}
	inv6, _, err := l.ensureInv(6)
	if err != nil {
		return err
	}
	start := time.Now()
	rolled, err := inventory.RollUp(inv7, 6)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	recOf := func(inv *inventory.Inventory) (total uint64) {
		inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
			if k.Set == inventory.GSCell {
				total += s.Records
			}
			return true
		})
		return total
	}
	fmt.Println("paper (§5 future work): hierarchical use of the index — summaries at a")
	fmt.Println("  fine resolution merge to the coarser level without re-scanning raw data")
	fmt.Printf("measured: rolled %d res-7 groups into %d res-6 groups in %s\n",
		inv7.Len(), rolled.Len(), dur.Round(time.Millisecond))
	fmt.Printf("  records: direct res-6 build %d, rolled-up %d (equal: %v)\n",
		recOf(inv6), recOf(rolled), recOf(inv6) == recOf(rolled))
	fmt.Printf("  cells: direct %d vs rolled %d (roll-up >= direct: %v — fine trips cross more cell boundaries)\n",
		inv6.CountGroups(inventory.GSCell), rolled.CountGroups(inventory.GSCell),
		rolled.CountGroups(inventory.GSCell) >= inv6.CountGroups(inventory.GSCell))
	// The fine inventory is the largest object of the whole run; release it
	// once the hierarchy experiments are done so later experiments have
	// headroom (it rebuilds on demand).
	delete(l.invs, 7)
	delete(l.stats, 7)
	return nil
}
