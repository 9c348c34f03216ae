package main

import (
	"cmp"
	"fmt"
	"image"
	"io"
	"maps"
	"math"
	"path/filepath"
	"slices"
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
	"github.com/patternsoflife/pol/internal/stats"
	"github.com/patternsoflife/pol/internal/weather"
)

// partitions is the shuffle width of every build. Build's float sums follow
// the partitioning, so a constant keeps the section's digits the same at
// every GOMAXPROCS.
const partitions = 2

// lab owns the shared dataset and lazily built inventories of a polbench
// run. Wall-clock figures go to log, never into a report.
type lab struct {
	config
	log io.Writer

	gaz     *ports.Gazetteer
	portIdx *ports.Index
	sim     *sim.Simulator
	tracks  [][]model.PositionRecord
	voyages []sim.Voyage
	invs    map[int]*inventory.Inventory
}

func newLab(cfg config, log io.Writer) *lab {
	return &lab{config: cfg, log: log, invs: make(map[int]*inventory.Inventory)}
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
	for i, p := range all {
		l.tracks[i] = p.recs
		l.voyages = append(l.voyages, p.voys...)
	}
	fmt.Fprintf(l.log, "polbench: generated %s in %s\n", s.Config().Describe(), time.Since(start).Round(time.Millisecond))
	return nil
}

func (l *lab) ensureInv(res int) (*inventory.Inventory, error) {
	if inv, ok := l.invs[res]; ok {
		return inv, nil
	}
	if err := l.ensureSim(); err != nil {
		return nil, err
	}
	ctx := dataflow.NewContext(0)
	records := dataflow.Generate(ctx, len(l.tracks), func(i int) []model.PositionRecord { return l.tracks[i] })
	result, err := pipeline.Run(records, l.sim.Fleet().StaticIndex(), l.portIdx, pipeline.Options{
		Resolution:  res,
		Partitions:  partitions,
		Description: fmt.Sprintf("polbench res %d: %s", res, l.sim.Config().Describe()),
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(l.log, "polbench: built res-%d inventory: %s\n", res, result.Stats)
	inv := result.Inventory.Snapshot() // sealed: a third of the open build's heap
	l.invs[res] = inv
	return inv, nil
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
	i := slices.IndexFunc(l.sim.Fleet().Vessels, func(info model.VesselInfo) bool { return info.MMSI == v.MMSI })
	var track []model.PositionRecord
	for _, r := range l.tracks[i] {
		if r.Time >= v.DepartTime && r.Time <= v.ArriveTime {
			track = append(track, r)
		}
	}
	return track
}

// figures writes images into the output directory, in name order, and names
// them in the report.
func (l *lab) figures(r *report, imgs map[string]image.Image) error {
	for _, name := range slices.Sorted(maps.Keys(imgs)) {
		r.row("wrote", name)
		if err := render.WritePNG(imgs[name], filepath.Join(l.outDir, name)); err != nil {
			return err
		}
	}
	return nil
}

func pct(f float64) string { return fmt.Sprintf("%.2f %%", 100*f) }

func durS(sec float64) time.Duration {
	return (time.Duration(sec) * time.Second).Round(time.Minute)
}

// cellRecords sums the records of an inventory's (cell) grouping set.
func cellRecords(inv *inventory.Inventory) (total uint64) {
	inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		if k.Set == inventory.GSCell {
			total += s.Records
		}
		return true
	})
	return total
}

func (l *lab) runTable1() (*report, error) {
	if err := l.ensureSim(); err != nil {
		return nil, err
	}
	var records int
	for _, t := range l.tracks {
		records += len(t)
	}
	byType := map[model.VesselType]int{}
	for _, v := range l.sim.Fleet().Vessels {
		byType[v.Type]++
	}
	mix := ""
	for vt := model.VesselCargo; vt <= model.VesselPassenger; vt++ {
		mix += fmt.Sprintf(" %s=%d", vt, byType[vt])
	}
	r := &report{}
	r.row("", "paper", "measured (synthetic)")
	r.row("commercial fleet positional reports", "2.7 billion (60 GB)", fmt.Sprint(records))
	r.row("vessel static information", "60 thousand", fmt.Sprint(len(l.sim.Fleet().Vessels)))
	r.row("port information", "20 thousand", fmt.Sprint(l.gaz.Len()))
	r.row("fleet mix", "", mix[1:])
	r.row("voyages started / completed in the window", "", fmt.Sprintf("%d / %d", len(l.voyages), len(l.completedVoyages())))
	return r, nil
}

func (l *lab) runTable2() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	r := &report{}
	r.row("grouping set (res 6)", "groups")
	for _, gs := range inventory.AllGroupSets {
		r.row(fmt.Sprint(gs), fmt.Sprint(inv.CountGroups(gs)))
	}
	c1, c2, c3 := inv.CountGroups(inventory.GSCell), inv.CountGroups(inventory.GSCellType), inv.CountGroups(inventory.GSCellODType)
	r.check("|GS1| ≤ |GS2| ≤ |GS3|", c1 <= c2 && c2 <= c3)
	return r, nil
}

func (l *lab) runTable3() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	var busiest hexgrid.Cell
	var most uint64
	inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		if k.Set == inventory.GSCell &&
			(s.Records > most || (s.Records == most && k.Cell < busiest)) {
			busiest, most = k.Cell, s.Records
		}
		return true
	})
	s, _ := inv.Cell(busiest)
	p := busiest.LatLng()
	topN := func(entries []stats.TopEntry, name func(uint64) string) string {
		out := "top-n:"
		for _, e := range entries {
			out += fmt.Sprintf(" %s=%d", name(e.Key), e.Count)
		}
		return out
	}
	port := func(k uint64) string { return l.gaz.Name(model.PortID(k)) }
	cell := func(k uint64) string { return hexgrid.Cell(k).String() }
	p10, p50, p90 := s.SpeedPercentiles()
	r := &report{}
	r.row("feature", fmt.Sprintf("busiest res-6 cell %v (%.3f, %.3f)", busiest, p.Lat, p.Lng))
	r.row("records", fmt.Sprintf("cnt=%d", s.Records))
	r.row("ships", fmt.Sprintf("dist=%d", s.Ships.Estimate()))
	r.row("course", fmt.Sprintf("mean*=%.1f° bins=%v", s.Course.Mean(), s.CourseBins.Bins()))
	r.row("heading", fmt.Sprintf("mean*=%.1f° bins=%v", s.Heading.Mean(), s.HeadingBins.Bins()))
	r.row("speed", fmt.Sprintf("mean=%.2f std=%.2f p10/50/90=%.1f/%.1f/%.1f kn", s.Speed.Mean(), s.Speed.Std(), p10, p50, p90))
	r.row("trips", fmt.Sprintf("dist=%d", s.Trips.Estimate()))
	r.row("ETO", fmt.Sprintf("mean=%s std=%s p50=%s", durS(s.ETO.Mean()), durS(s.ETO.Std()), durS(s.ETODig.Quantile(0.5))))
	r.row("ATA", fmt.Sprintf("mean=%s std=%s p50=%s", durS(s.ATA.Mean()), durS(s.ATA.Std()), durS(s.ATADig.Quantile(0.5))))
	r.row("origin", topN(s.Origins.Top(3), port))
	r.row("destination", topN(s.Dests.Top(3), port))
	r.row("transitions", topN(s.TopTransitions(3), cell))
	r.check("the busiest cell carries every Table-3 feature",
		s.Records > 0 && s.Ships.Estimate() > 0 && s.Trips.Estimate() > 0 && s.Speed.Weight() > 0 &&
			s.ETO.Weight() > 0 && s.ATA.Weight() > 0 && len(s.Origins.Top(1)) > 0 &&
			len(s.Dests.Top(1)) > 0 && len(s.TopTransitions(1)) > 0)
	return r, nil
}

func (l *lab) runTable4() (*report, error) {
	type row struct {
		cells                    int
		compression, util, cover float64
	}
	var rows [2]row
	var coverBox geo.BBox
	for i, res := range []int{6, 7} {
		inv, err := l.ensureInv(res)
		if err != nil {
			return nil, err
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
		rows[i] = row{len(cells), inv.Compression(inventory.GSCell), inv.Utilization(), inv.CoverageUtilization(coverBox)}
	}
	r := &report{}
	r.row("", "cells", "compression", "utilization, global", "utilization, traffic envelope")
	r.row("paper res 6", "7.30 M", "99.73 %", "51.69 %", "")
	r.row("paper res 7", "42.47 M", "98.44 %", "42.96 %", "")
	for i, m := range rows {
		r.row(fmt.Sprintf("measured res %d", 6+i), fmt.Sprint(m.cells), pct(m.compression),
			fmt.Sprintf("%.4f %%", 100*m.util), pct(m.cover))
	}
	r.check("res-7 cells exceed res-6 cells", rows[1].cells > rows[0].cells)
	r.check("res-6 compression exceeds res-7", rows[0].compression > rows[1].compression)
	r.check("utilization drops with finer resolution, globally and in the envelope",
		rows[0].util > rows[1].util && rows[0].cover > rows[1].cover)
	return r, nil
}

func (l *lab) runFig1() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	r := &report{}
	r.row("", "measured")
	if err := l.figures(r, map[string]image.Image{
		"fig1_speed.png":  render.SpeedMap(inv, render.WorldBox, l.width, 24),
		"fig1_course.png": render.CourseMap(inv, render.WorldBox, l.width),
	}); err != nil {
		return nil, err
	}
	// The distribution of per-cell mean speeds: the figure's colour histogram.
	var speeds []float64
	inv.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		if k.Set == inventory.GSCell && s.Speed.Weight() > 0 {
			speeds = append(speeds, s.Speed.Mean())
		}
		return true
	})
	sort.Float64s(speeds)
	q := func(f float64) float64 { return speeds[int(f*float64(len(speeds)-1))] }
	r.row("populated cells rendered", fmt.Sprint(len(inv.Cells(inventory.GSCell))))
	r.row("per-cell mean speed p10 / p50 / p90", fmt.Sprintf("%.1f / %.1f / %.1f kn", q(0.1), q(0.5), q(0.9)))
	return r, nil
}

func (l *lab) runFig4() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	w := l.width / 2
	r := &report{}
	r.row("", "measured")
	if err := l.figures(r, map[string]image.Image{
		"fig4_baltic_tripfreq.png": render.TripFrequencyMap(inv, render.BalticBox, w),
		"fig4_baltic_speed.png":    render.SpeedMap(inv, render.BalticBox, w, 24),
		"fig4_baltic_course.png":   render.CourseMap(inv, render.BalticBox, w),
	}); err != nil {
		return nil, err
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
	r.row("populated Baltic cells", fmt.Sprint(baltic))
	if baltic > 0 {
		r.row("mean of cell speed means", fmt.Sprintf("%.1f kn", speedSum/float64(baltic)))
	}
	return r, nil
}

func (l *lab) runFig5() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	r := &report{}
	r.row("", "measured")
	if err := l.figures(r, map[string]image.Image{"fig5_ata.png": render.ATAMap(inv, render.WorldBox, l.width)}); err != nil {
		return nil, err
	}
	// The figure's gradient: a cell's mean ATA against its distance to its
	// top destination, in cell order so the sums are the same every run.
	var dist, ata []float64
	for _, c := range inv.Cells(inventory.GSCell) {
		s, _ := inv.Cell(c)
		if s.ATA.Weight() == 0 {
			continue
		}
		dest, _ := s.TopDestination()
		if p, ok := l.gaz.ByID(dest); ok {
			dist = append(dist, geo.Haversine(c.LatLng(), p.Pos)/1000)
			ata = append(ata, s.ATA.Mean()/3600)
		}
	}
	corr := correlation(dist, ata)
	r.row("cells with ATA", fmt.Sprint(len(ata)))
	r.row("corr(distance to top destination, mean ATA)", fmt.Sprintf("%.2f", corr))
	r.check("a cell's mean ATA rises with its distance to its top destination", corr > 0)
	return r, nil
}

func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

func (l *lab) runFig6() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	var ids []model.PortID
	for _, name := range []string{"Singapore", "Shanghai", "Rotterdam"} {
		p, ok := l.gaz.ByName(name)
		if !ok {
			return nil, fmt.Errorf("gazetteer missing %s", name)
		}
		ids = append(ids, p.ID)
	}
	counts := map[model.PortID]int{}
	for _, c := range inv.Cells(inventory.GSCell) {
		if top, _, ok := inv.MostFrequentDestination(c); ok {
			counts[top]++
		}
	}
	bound := map[model.PortID]int{}
	for _, v := range l.completedVoyages() {
		bound[v.Route.Dest]++
	}
	r := &report{}
	r.row("port", "completed voyages bound for it", "cells whose most frequent destination it is")
	attract := true
	for _, id := range ids {
		r.row(l.gaz.Name(id), fmt.Sprint(bound[id]), fmt.Sprint(counts[id]))
		attract = attract && (bound[id] == 0 || counts[id] > 0)
	}
	if err := l.figures(r, map[string]image.Image{"fig6_destinations.png": render.DestinationMap(inv, render.WorldBox, l.width, ids)}); err != nil {
		return nil, err
	}
	r.check("each of the three ports that a completed voyage is bound for attracts a cell", attract)
	return r, nil
}

func (l *lab) runQueryHits() (*report, error) {
	r := &report{}
	r.row("", "full-scan record hits", "inventory groups", "fewer hits")
	var inv6 *inventory.Inventory
	for _, res := range []int{6, 7} {
		inv, err := l.ensureInv(res)
		if err != nil {
			return nil, err
		}
		if res == 6 {
			inv6 = inv
		}
		// A full scan touches every raw record; an inventory point query
		// touches one group (the paper's "hits" framing compares records
		// scanned to groups stored).
		groups := inv.CountGroups(inventory.GSCell)
		raw := inv.Info().RawRecords
		r.row(fmt.Sprintf("res %d", res), fmt.Sprint(raw), fmt.Sprint(groups), pct(1-float64(groups)/float64(raw)))
	}

	// Wall clock: scan all records for a cell vs one map lookup.
	cells := inv6.Cells(inventory.GSCell)
	target := cells[len(cells)/2]
	scanStart := time.Now()
	var hits int
	for _, track := range l.tracks {
		for _, rec := range track {
			if hexgrid.LatLngToCell(rec.Pos, 6) == target {
				hits++
			}
		}
	}
	scanDur := time.Since(scanStart)
	lookupStart := time.Now()
	const lookups = 10000
	for i := 0; i < lookups; i++ {
		if _, ok := inv6.Cell(target); !ok {
			return nil, fmt.Errorf("target cell vanished")
		}
	}
	lookupDur := time.Since(lookupStart) / lookups
	speedup := float64(scanDur) / float64(max(lookupDur, 1))
	fmt.Fprintf(l.log, "polbench: queryhits: full scan = %s (%d hits); one inventory lookup = %s (%.0f× cheaper)\n",
		scanDur.Round(time.Microsecond), hits, lookupDur, speedup)
	r.check("one lookup ≥ 1 000× cheaper than the full scan", speedup >= 1000)
	return r, nil
}

func (l *lab) runETA() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	est := eta.New(inv)
	// MAE by trip-progress quartile, leave-in over the completed voyages.
	type bucket struct {
		sumAbs, sumRel float64
		n, nRel        int
	}
	buckets := make([]bucket, 4)
	for _, v := range l.completedVoyages() {
		track := l.trackDuring(v)
		dur := float64(v.ArriveTime - v.DepartTime)
		if dur <= 0 || len(track) < 8 {
			continue
		}
		for _, rec := range track {
			e, ok := est.Estimate(eta.Query{Pos: rec.Pos, VType: v.VType, Origin: v.Route.Origin, Dest: v.Route.Dest})
			if !ok {
				continue
			}
			truth := float64(v.ArriveTime - rec.Time)
			b := &buckets[min(int(float64(rec.Time-v.DepartTime)/dur*4), 3)]
			b.sumAbs += math.Abs(e.Mean.Seconds() - truth)
			if truth > 3600 {
				b.sumRel += math.Abs(e.Mean.Seconds()-truth) / truth
				b.nRel++
			}
			b.n++
		}
	}
	r := &report{}
	r.row("trip progress", "MAE", "relative error", "estimates")
	for i, b := range buckets {
		if b.n == 0 {
			continue
		}
		rel := b.sumRel / float64(max(b.nRel, 1))
		r.row(fmt.Sprintf("%d–%d %%", i*25, (i+1)*25), durS(b.sumAbs/float64(b.n)).String(), pct(rel), fmt.Sprint(b.n))
	}
	midOK := true
	for _, b := range buckets[1:3] {
		if b.nRel == 0 || b.sumRel/float64(b.nRel) > 0.15 {
			midOK = false
		}
	}
	r.check("mid-trip (25–75 %) relative error < 15 %", midOK)
	return r, nil
}

func (l *lab) runDest() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	voys := l.completedVoyages()
	r := &report{}
	r.row("observed", "top-1", "top-3", "voyages")
	for _, frac := range []float64{0.2, 0.5, 0.9} {
		top1, top3, n := 0, 0, 0
		for _, v := range voys {
			track := l.trackDuring(v)
			if len(track) < 20 {
				continue
			}
			p := predict.New(inv, v.VType)
			for _, rec := range track[:int(float64(len(track))*frac)] {
				p.Observe(rec.Pos)
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
		if n > 0 {
			r.row(fmt.Sprintf("%.0f %% of trip", frac*100), pct(float64(top1)/float64(n)), pct(float64(top3)/float64(n)), fmt.Sprint(n))
		}
	}
	return r, nil
}

// routeReach is how close to a forecast cell's centre a report must lie to
// count as covered.
const routeReach = 60e3

// covered counts the reports within routeReach of some path cell's centre.
// The centres are computed once and sorted by latitude, and only those in a
// report's latitude band are measured: two points farther apart along the
// meridian than routeReach are farther apart than that on the sphere.
func covered(reports []model.PositionRecord, path []hexgrid.Cell) int {
	centres := make([]geo.LatLng, len(path))
	for i, c := range path {
		centres[i] = c.LatLng()
	}
	slices.SortFunc(centres, func(a, b geo.LatLng) int { return cmp.Compare(a.Lat, b.Lat) })
	band := routeReach / geo.EarthRadiusMeters * 180 / math.Pi * 1.001 // a hair wide: rounding only admits more candidates
	n := 0
	for _, rec := range reports {
		lo, _ := slices.BinarySearchFunc(centres, rec.Pos.Lat-band, func(c geo.LatLng, lat float64) int { return cmp.Compare(c.Lat, lat) })
		for _, c := range centres[lo:] {
			if c.Lat > rec.Pos.Lat+band {
				break
			}
			if geo.Haversine(rec.Pos, c) < routeReach {
				n++
				break
			}
		}
	}
	return n
}

func (l *lab) runRoute() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	var evaluated, failed int
	var coverSum, hopSum float64
	for _, v := range l.completedVoyages() {
		track := l.trackDuring(v)
		if len(track) < 40 {
			continue
		}
		destPort, _ := l.gaz.ByID(v.Route.Dest)
		path, err := routing.Forecast(inv, v.Route.Origin, v.Route.Dest, v.VType, track[len(track)/4].Pos, destPort.Pos)
		if err != nil {
			failed++
			continue
		}
		evaluated++
		hopSum += float64(len(path))
		remaining := track[len(track)/4:]
		coverSum += float64(covered(remaining, path)) / float64(len(remaining))
	}
	if evaluated == 0 {
		return nil, fmt.Errorf("no voyages evaluated")
	}
	cover := coverSum / float64(evaluated)
	r := &report{}
	r.row("forecasts from 25 % into the voyage", "keys without history", "mean path", "remaining track within 60 km")
	r.row(fmt.Sprint(evaluated), fmt.Sprint(failed), fmt.Sprintf("%d cells", int(hopSum/float64(evaluated))), fmt.Sprintf("%.0f %%", 100*cover))
	r.check("forecasts track reality: > 70 % of the remaining track within 60 km", cover > 0.7)
	return r, nil
}

func (l *lab) runAnomaly() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
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
		return nil, fmt.Errorf("no Suez voyage in the dataset; increase -vessels or -days")
	}
	o, _ := l.gaz.ByID(voyage.Route.Origin)
	d, _ := l.gaz.ByID(voyage.Route.Dest)
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
	// A track sampled every 50 km along the planned route: the share of it
	// off the voyage's historical OD cells, and its normalcy deviation.
	sc := anomaly.New(inv)
	measure := func(blocked ...sim.Canal) (off, deviation float64, err error) {
		route, err := l.sim.Graph().Plan(voyage.Route.Origin, voyage.Route.Dest, blocked...)
		if err != nil {
			return 0, 0, err
		}
		var recs []model.PositionRecord
		for dist := 0.0; dist < route.DistM; dist += 50e3 {
			p := route.PointAtDistance(dist)
			if !onRoute(p) {
				off++
			}
			recs = append(recs, model.PositionRecord{Pos: p, SOG: 14, COG: route.BearingAtDistance(dist)})
		}
		return off / float64(len(recs)), sc.ScoreTrack(recs, voyage.VType), nil
	}
	suezOff, viaSuez, err := measure()
	if err != nil {
		return nil, err
	}
	capeOff, viaCape, err := measure(sim.SuezCanal)
	if err != nil {
		return nil, err
	}
	r := &report{}
	r.row(fmt.Sprintf("%s voyage %s → %s", voyage.VType, o.Name, d.Name), "via Suez", "via the Cape")
	r.row("track points off the historical OD route", pct(suezOff), pct(capeOff))
	r.row("global normalcy deviation", fmt.Sprintf("%.3f", viaSuez), fmt.Sprintf("%.3f", viaCape))
	r.check("re-routing via the Cape leaves the voyage's historical lane (off-route share 20 points higher)", capeOff > suezOff+0.2)
	return r, nil
}

func (l *lab) runAdaptive() (*report, error) {
	inv7, err := l.ensureInv(7)
	if err != nil {
		return nil, err
	}
	inv6, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	const threshold = 50
	ai, err := inventory.BuildAdaptive(inv7, 6, threshold)
	if err != nil {
		return nil, err
	}
	fine, coarse := ai.CountByResolution()
	// A res-7 cell at the threshold keeps its parent subdivided, so it is
	// its own adaptive cell.
	denseStayFine := true
	for _, c := range inv7.Cells(inventory.GSCell) {
		if s, _ := inv7.Cell(c); s.Records >= threshold {
			got, ok := ai.At(c.LatLng())
			denseStayFine = denseStayFine && ok && got.Cell == c
		}
	}
	uniform7 := inv7.CountGroups(inventory.GSCell)
	r := &report{}
	r.row(fmt.Sprintf("densest child ≥ %d records stays fine", threshold), "cells")
	r.row("uniform res 7", fmt.Sprint(uniform7))
	r.row("uniform res 6", fmt.Sprint(inv6.CountGroups(inventory.GSCell)))
	r.row("adaptive (fine res-7 + coarse res-6)", fmt.Sprintf("%d (%d + %d)", ai.Len(), fine, coarse))
	p, _ := l.gaz.ByName("Singapore")
	if cell, ok := ai.At(geo.Destination(p.Pos, 45, 20e3)); ok {
		r.row("Singapore approach resolution", fmt.Sprintf("res %d", cell.Cell.Resolution()))
	}
	r.check("records conserved: the adaptive total equals the res-7 (cell) record sum", ai.TotalRecords() == cellRecords(inv7))
	r.check(fmt.Sprintf("every res-6 parent with a ≥ %d-record child stays fine", threshold), denseStayFine)
	r.check("adaptive has fewer cells than uniform res 7", ai.Len() < uniform7)
	return r, nil
}

func (l *lab) runRollup() (*report, error) {
	inv7, err := l.ensureInv(7)
	if err != nil {
		return nil, err
	}
	inv6, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	direct, directCells, directGroups := cellRecords(inv6), inv6.CountGroups(inventory.GSCell), inv6.Len()
	// The roll-up is the run's last and largest step: the fine inventory and
	// its rolled copy are live together, so the direct build goes first (and
	// the fine one after; both rebuild on demand).
	delete(l.invs, 6)
	start := time.Now()
	rolled, err := inventory.RollUp(inv7, 6)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(l.log, "polbench: rollup: %d res-7 groups into %d res-6 groups in %s\n",
		inv7.Len(), rolled.Len(), time.Since(start).Round(time.Millisecond))
	delete(l.invs, 7)
	up, upCells := cellRecords(rolled), rolled.CountGroups(inventory.GSCell)
	r := &report{}
	r.row("res 6", "direct build", "rolled up from res 7")
	r.row("groups", fmt.Sprint(directGroups), fmt.Sprint(rolled.Len()))
	r.row("(cell) records", fmt.Sprint(direct), fmt.Sprint(up))
	r.row("cells", fmt.Sprint(directCells), fmt.Sprint(upCells))
	r.check("rolled-up records equal the direct res-6 build's", direct == up)
	r.check("the roll-up has at least the direct build's cells (fine trips cross more cell boundaries)", upCells >= directCells)
	return r, nil
}

func (l *lab) runBaseline() (*report, error) {
	inv, err := l.ensureInv(6)
	if err != nil {
		return nil, err
	}
	// Build the related-work baseline (§2, [32]): per-journey k-means +
	// convex hulls over the same trip data the inventory saw.
	byType := make(map[uint32]model.VesselType, len(l.sim.Fleet().Vessels))
	for _, v := range l.sim.Fleet().Vessels {
		byType[v.MMSI] = v.Type
	}
	var trips []baseline.TripPoints
	for vi := range l.tracks {
		cleaned := pipeline.CleanVessel(l.tracks[vi], 50)
		for _, trip := range pipeline.ExtractTrips(cleaned, l.portIdx, 2) {
			points := make([]geo.LatLng, len(trip.Records))
			for i, rec := range trip.Records {
				points[i] = rec.Pos
			}
			trips = append(trips, baseline.TripPoints{
				Origin: trip.Origin, Dest: trip.Dest,
				VType: byType[trip.Records[0].MMSI], Points: points,
			})
		}
	}
	start := time.Now()
	bm := baseline.BuildRouteModel(trips, 1)
	fmt.Fprintf(l.log, "polbench: baseline: k-means hull model built in %s\n", time.Since(start).Round(time.Millisecond))

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
	r := &report{}
	r.row(fmt.Sprintf("over %d extracted trips", len(trips)), "model size", "on-route coverage of trip points")
	r.row("k-means hull baseline", bm.Describe(), pct(float64(bmCovered)/float64(total)))
	r.row("inventory, (cell, origin, destination, type) set", fmt.Sprintf("%d groups", inv.CountGroups(inventory.GSCellODType)),
		pct(float64(invCovered)/float64(total)))
	return r, nil
}

func (l *lab) runWeather() (*report, error) {
	// Re-simulate a third of the fleet with the synthetic met-ocean field
	// active, build the weather-conditioned summaries, and show the
	// per-sea-state speed series.
	field := weather.NewField(l.seed)
	gaz := ports.Default()
	vessels := max(l.vessels/3, 10)
	s, err := sim.New(sim.Config{Vessels: vessels, Days: l.days, Seed: l.seed, Weather: field}, gaz)
	if err != nil {
		return nil, err
	}
	idx := ports.NewIndex(gaz, ports.IndexResolution)
	winv := weather.NewInventory(field, 6)
	var used int
	for i := 0; i < vessels; i++ {
		recs, _ := s.VesselTrack(i)
		for _, rec := range recs {
			if rec.SOG < 5 {
				continue // berth/maneuvering reports would swamp the signal
			}
			if _, inPort := idx.PortAt(rec.Pos); inPort {
				continue
			}
			winv.Add(rec)
			used++
		}
	}
	r := &report{}
	r.row(fmt.Sprintf("sea state (%d at-sea reports, %d weather cells)", used, len(winv.Cells)), "reports", "mean speed")
	var calm, rough, calmW, roughW float64
	for st, w := range winv.GlobalSpeedBySeaState() {
		if w.Weight() == 0 {
			continue
		}
		r.row(fmt.Sprint(st), fmt.Sprintf("%.0f", w.Weight()), fmt.Sprintf("%.1f kn", w.Mean()))
		if st <= 3 {
			calm += w.Mean() * w.Weight()
			calmW += w.Weight()
		} else if st >= 5 {
			rough += w.Mean() * w.Weight()
			roughW += w.Weight()
		}
	}
	r.check("speeds drop in heavy seas (sea state ≥ 5 slower than ≤ 3)", calmW > 0 && roughW > 0 && rough/roughW < calm/calmW)
	return r, nil
}
