package main

// adapter.go is the only file of the harness that imports the program. It
// binds to the frozen surface listed in README.md ("Frozen surface") and
// nothing else, so a refactor inside the program that keeps those functions
// keeps the benchmark. Every function here is a thin call into one layer;
// the callers wrap them in spans and clocks.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/api"
	"github.com/patternsoflife/pol/internal/cluster"
	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/replica"
	"github.com/patternsoflife/pol/internal/segment"
	"github.com/patternsoflife/pol/internal/sim"
)

// Program types the rest of the harness handles by name only.
type (
	record     = model.PositionRecord
	vesselInfo = model.VesselInfo
	view       = inventory.View
	heapInv    = inventory.Inventory
	groupKey   = inventory.GroupKey
	summary    = inventory.CellSummary
	cellID     = hexgrid.Cell
	portIndex  = ports.Index
	trip       = pipeline.Trip
	obsReg     = obs.Registry
	liveEngine = ingest.Engine
	replicaT   = replica.Replica
)

// keyedObs is one grouping-set observation with the group it belongs to.
type keyedObs struct {
	key groupKey
	obs inventory.Observation
}

const resolution = 6

const (
	gsCell   = inventory.GSCell
	gsCellOD = inventory.GSCellODType
)

// quiet is the logger handed to every component: the harness reads counters,
// not logs.
func quiet(string, ...any) {}

func newPortIndex() *portIndex { return ports.NewIndex(ports.Default(), ports.IndexResolution) }

func vesselTypeName(k groupKey) string { return k.VType.String() }

func cellCenter(c cellID) (lat, lng float64) {
	p := c.LatLng()
	return p.Lat, p.Lng
}

// ---------------------------------------------------------------- dataset

// simFleet runs internal/sim and returns the vessel statics with one track
// per vessel.
func simFleet(vessels, days int, seed int64) ([]vesselInfo, [][]record, error) {
	s, err := sim.New(sim.Config{
		Vessels: vessels, Days: days, Seed: seed,
		ReportInterval: 180, NoiseRate: 0.02,
	}, ports.Default())
	if err != nil {
		return nil, nil, err
	}
	tracks := make([][]record, vessels)
	for i := range tracks {
		tracks[i], _ = s.VesselTrack(i)
	}
	return s.Fleet().Vessels, tracks, nil
}

// writeFeed encodes statics then positions as timestamped NMEA through
// feed.Writer and returns the number of lines written.
func writeFeed(w io.Writer, statics []vesselInfo, staticAt []int64, recs []record) (int64, error) {
	fw := feed.NewWriter(w)
	for i, v := range statics {
		if err := fw.WriteStatic(v, staticAt[i]); err != nil {
			return 0, err
		}
	}
	for _, r := range recs {
		if err := fw.WritePosition(r); err != nil {
			return 0, err
		}
	}
	if err := fw.Flush(); err != nil {
		return 0, err
	}
	return fw.Lines, nil
}

// archiveRead is the decoded content of an archive.
type archiveRead struct {
	recs     []record
	statics  map[uint32]vesselInfo
	badLines int64
}

// readArchive decodes a whole archive: feed.NewReader(...).ReadAll.
func readArchive(path string) (*archiveRead, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fr := feed.NewReader(bufio.NewReaderSize(f, 1<<20))
	recs, err := fr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read archive %s: %w", path, err)
	}
	st := fr.Stats()
	return &archiveRead{recs: recs, statics: fr.StaticsAsVesselInfo(), badLines: st.BadLines + st.BadNMEA}, nil
}

// stageCount is one dataflow stage counter, as the program keeps it.
type stageCount struct {
	name      string
	in, nanos int64 // rows in, busy time
}

// buildStats is what one pipeline.Run reports about itself.
type buildStats struct {
	observations, shuffled int64
	stages                 []stageCount
}

// buildLocal runs dataflow.Parallelize → pipeline.Run at resolution 6.
func buildLocal(a *archiveRead, idx *portIndex) (*heapInv, buildStats, error) {
	ctx := dataflow.NewContext(0)
	ds := dataflow.Parallelize(ctx, a.recs, ctx.Parallelism())
	res, err := pipeline.Run(ds, a.statics, idx, pipeline.Options{Resolution: resolution})
	if err != nil {
		return nil, buildStats{}, fmt.Errorf("pipeline run: %w", err)
	}
	bs := buildStats{
		observations: res.Stats.Observations,
		shuffled:     ctx.Metrics().ShuffledRecords(),
	}
	for _, s := range ctx.Metrics().Stages() {
		bs.stages = append(bs.stages, stageCount{s.Name, s.RecordsIn, s.Nanos})
	}
	return res.Inventory, bs, nil
}

func writeSegment(v view, path string) error { return segment.WriteFile(v, path) }

// segReader is an open segment with the cache counters it was opened with.
type segReader struct {
	*segment.Reader
	m *segment.Metrics
}

// openSegment opens a segment with default options (64 pinned of 256
// shards) and its own cache counters.
func openSegment(path string) (*segReader, error) {
	m := segment.NewMetrics(nil)
	r, err := segment.Open(path, segment.Options{Metrics: m})
	if err != nil {
		return nil, err
	}
	return &segReader{Reader: r, m: m}, nil
}

// cacheCounts returns hits, misses, pinned blocks and pinned bytes.
func (s *segReader) cacheCounts() (hits, misses, pinned, pinnedBytes int64) {
	return s.m.CacheHits.Load(), s.m.CacheMisses.Load(), s.m.Pinned.Load(), s.m.PinnedBytes.Load()
}

// materialize copies a view into a frozen heap snapshot (Each → Put).
func materialize(v view) *heapInv {
	inv := inventory.New(v.Info())
	v.Each(func(k groupKey, s *summary) bool {
		inv.Put(k, s)
		return true
	})
	return inv.Snapshot()
}

func equalViews(a, b view) bool        { return inventory.EqualViews(a, b) }
func equalHeap(a, b *heapInv) bool     { return inventory.Equal(a, b) }
func usedRecords(v view) int64         { return v.Info().UsedRecords }
func rawRecords(v view) int64          { return v.Info().RawRecords }
func cellRecords(s *summary) uint64    { return s.Records }
func cellShips(s *summary) uint64      { return s.Ships.Estimate() }
func cellSpeedMean(s *summary) float64 { return s.Speed.Mean() }
func cellATARecords(s *summary) uint64 { return uint64(s.ATA.Weight()) }

// topDestCounts returns the counts of the five most frequent destinations.
func topDestCounts(s *summary) []uint64 {
	var out []uint64
	for _, e := range s.Dests.Top(5) {
		out = append(out, e.Count)
	}
	return out
}

// ---------------------------------------------------------------- cluster

// clusterBuild runs one archive job on a fresh loopback coordinator with two
// in-process workers and the default shuffle fabric. The counters it returns
// are those of this job, by layer-metric name, read from the result and from
// the obs.Registry handed to the coordinator and the workers.
func clusterBuild(ctx context.Context, archive string) (*heapInv, map[string]float64, error) {
	reg := obs.NewRegistry()
	co, err := cluster.NewCoordinator(cluster.Config{Addr: "127.0.0.1:0", MinWorkers: 2, Obs: reg, Logf: quiet})
	if err != nil {
		return nil, nil, err
	}
	defer co.Close()
	addr := co.Addr().String()
	var wg sync.WaitGroup
	werr := make([]error, 2)
	for w := range werr {
		wg.Add(1)
		go func() {
			defer wg.Done()
			werr[w] = cluster.RunWorker(ctx, cluster.WorkerConfig{
				Coordinator: addr, Name: fmt.Sprintf("w%d", w),
				ShuffleListen: "127.0.0.1:0", Obs: reg, Logf: quiet,
			})
		}()
	}
	res, err := co.Run(ctx, cluster.Job{
		Resolution: resolution,
		Archive:    &cluster.ArchiveJob{Path: archive, MapTasks: 8, ReduceTasks: 2},
	})
	wg.Wait()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster run: %w", err)
	}
	for _, e := range werr {
		if e != nil {
			return nil, nil, fmt.Errorf("cluster worker: %w", e)
		}
	}
	cnt := func(name string, l obs.Labels) float64 { return float64(reg.Counter(name, l).Value()) }
	cc := map[string]float64{
		"feed.bad_lines":     float64(res.Feed.BadLines + res.Feed.BadNMEA),
		"cluster.tasks":      float64(res.Tasks),
		"cluster.retries":    float64(res.Retries),
		"cluster.task_s_sum": reg.Histogram(cluster.MetricTaskSeconds, nil).Sum(),
		"cluster.ctl_bytes": cnt(cluster.MetricBytes, obs.Labels{"dir": "in"}) +
			cnt(cluster.MetricBytes, obs.Labels{"dir": "out"}),
		"cluster.shuffle_bytes_raw":  cnt(cluster.MetricShufflePayload, obs.Labels{"form": "raw"}),
		"cluster.shuffle_bytes_wire": cnt(cluster.MetricShufflePayload, obs.Labels{"form": "compressed"}),
		"cluster.shuffle_frames":     cnt(cluster.MetricShuffleFrames, obs.Labels{"event": "sent"}),
		"cluster.overlap_reduces":    cnt(cluster.MetricOverlapReduces, nil),
	}
	return res.Inventory, cc, nil
}

// ---------------------------------------------------------------- live stack

// liveStack is the live-ingest system under test: a journaling, check-
// pointing primary behind a TCP feed listener, its replication surface on
// loopback HTTP, one heap replica tailing it, and the query API served from
// the replica.
type liveStack struct {
	eng     *liveEngine
	feeds   *ingest.Server
	rep     *replicaT
	primReg *obsReg
	replSrv *http.Server
	apiSrv  *http.Server
	repDone chan error
	cancel  context.CancelFunc

	feedAddr, replURL, apiAddr string
}

// newPrimary opens an engine with WAL and checkpoints under dir.
func newPrimary(dir string, reg *obsReg) (*liveEngine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return ingest.NewEngine(ingest.Options{
		Resolution:      resolution,
		MergeEvery:      liveTick,
		JournalPath:     filepath.Join(dir, "live.wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: liveCheckpointEvery,
		WALSegmentBytes: liveWALSegment,
		Metrics:         reg,
		Logf:            quiet,
	})
}

// newReplica starts a heap replica tailing primaryURL.
func newReplica(ctx context.Context, primaryURL string) (*replicaT, chan error, error) {
	rep, err := replica.New(replica.Options{
		Primary: primaryURL, Resolution: resolution,
		// A replica started beside a fresh primary retries until the first
		// checkpoint generation exists; keep that retry short.
		RetryBase: 20 * time.Millisecond, RetryMax: 200 * time.Millisecond,
		Metrics: obs.NewRegistry(), Logf: quiet,
	})
	if err != nil {
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	return rep, done, nil
}

func serveHTTP(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // Serve returns ErrServerClosed at Close
	return srv, ln.Addr().String(), nil
}

func startLiveStack(dir string) (*liveStack, error) {
	ls := &liveStack{primReg: obs.NewRegistry()}
	var err error
	if ls.eng, err = newPrimary(dir, ls.primReg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls.feeds = ingest.NewServer(ls.eng, ln, ingest.ServerOptions{Logf: quiet})
	ls.feedAddr = ln.Addr().String()
	var replAddr string
	if ls.replSrv, replAddr, err = serveHTTP(ls.eng.ReplHandler()); err != nil {
		return nil, err
	}
	ls.replURL = "http://" + replAddr
	ctx, cancel := context.WithCancel(context.Background())
	ls.cancel = cancel
	if ls.rep, ls.repDone, err = newReplica(ctx, ls.replURL); err != nil {
		return nil, err
	}
	ls.apiSrv, ls.apiAddr, err = serveHTTP(api.NewLiveServer(ls.rep, ports.Default()).Handler())
	return ls, err
}

func (ls *liveStack) close() error {
	ls.cancel()
	<-ls.repDone
	_ = ls.apiSrv.Close()
	_ = ls.replSrv.Close()
	_ = ls.rep.Close()
	_ = ls.feeds.Close()
	return ls.eng.Close()
}

// liveStats is the slice of Engine.StatsSnapshot the harness reads.
type liveStats struct {
	positionsSeen, merges, checkpoints, degradedDropped int64
	queueDepth                                          int
	degraded                                            bool
}

func bootstrapped(r *replicaT) bool { return r.StatusSnapshot().Bootstrapped }

func engineStats(e *liveEngine) liveStats {
	s := e.StatsSnapshot()
	return liveStats{
		positionsSeen: s.PositionsSeen, merges: s.Merges, checkpoints: s.Checkpoints,
		degradedDropped: s.DegradedDropped, queueDepth: s.QueueDepth, degraded: s.Degraded,
	}
}

// stageP50ms reads the median of one pol_pipeline_stage_seconds series.
func stageP50ms(reg *obsReg, stage string) float64 {
	h := reg.Histogram(obs.MetricStageSeconds, obs.Labels{"stage": stage})
	if h.Count() == 0 {
		return 0
	}
	return h.Quantile(0.5) * 1e3
}

// newestCheckpointBytes sums the files of the newest checkpoint generation.
func newestCheckpointBytes(e *liveEngine) int64 {
	m := e.ReplManifestSnapshot()
	if len(m.Generations) == 0 {
		return 0
	}
	g := m.Generations[0]
	return g.InvSize + g.StateSize + g.SegSize
}

// ---------------------------------------------------------------- isolated calls

// submitAll pushes statics and positions straight into a fresh journaling
// engine (no TCP, no replica) and waits for the durability barrier.
func submitAll(dir string, statics []vesselInfo, recs []record) error {
	eng, err := newPrimary(dir, nil)
	if err != nil {
		return err
	}
	for _, v := range statics {
		if err := eng.SubmitStatic(v, nil); err != nil {
			return err
		}
	}
	for _, r := range recs {
		if err := eng.SubmitPosition(r, nil); err != nil {
			return err
		}
	}
	if err := eng.Sync(); err != nil {
		return err
	}
	return eng.Close()
}

// journalAll appends every record to a fresh journal and syncs it; it
// returns the journal's size.
func journalAll(base string, recs []record) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return 0, err
	}
	j, err := ingest.OpenJournal(base, ingest.JournalOptions{}, func(ingest.JournalEntry) error { return nil })
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		if err := j.AppendPosition(r); err != nil {
			return 0, err
		}
	}
	if err := j.Sync(); err != nil {
		return 0, err
	}
	size := j.Size()
	return size, j.Close()
}

func cleanVessel(recs []record) []record { return pipeline.CleanVessel(recs, 50) }

func extractTrips(recs []record, idx *portIndex) []trip { return pipeline.ExtractTrips(recs, idx, 2) }

// emitTrip projects one trip (pipeline.EmitTrip) and appends its
// observations to out.
func emitTrip(t trip, info vesselInfo, out []keyedObs) []keyedObs {
	pipeline.EmitTrip(t, info.Type, resolution, inventory.AllGroupSets, func(k groupKey, o inventory.Observation) {
		out = append(out, keyedObs{k, o})
	})
	return out
}

// observeAll folds observations into an inventory (Inventory.Observe).
func observeAll(inv *heapInv, obs []keyedObs) {
	for i := range obs {
		inv.Observe(obs[i].key, obs[i].obs)
	}
}

// onlineClean feeds one vessel's records through a fresh OnlineCleaner.
func onlineClean(recs []record) (accepted int) {
	c := pipeline.NewOnlineCleaner(50)
	for _, r := range recs {
		if c.Accept(r) == pipeline.RejectNone {
			accepted++
		}
	}
	return accepted
}

// onlineTrack feeds one vessel's cleaned records through a fresh TripTracker.
func onlineTrack(recs []record, idx *portIndex) (trips int) {
	t := pipeline.NewTripTracker(idx, 2)
	for _, r := range recs {
		trips += len(t.Push(r))
	}
	return trips
}

func newHeap() *heapInv { return inventory.New(inventory.BuildInfo{Resolution: resolution}) }

// walSuffix GETs the WAL suffix past the newest checkpoint from a
// replication surface and returns the bytes on the wire and the entries they
// carried.
func walSuffix(e *liveEngine, replURL string) (wire int64, entries int, err error) {
	_, from, upTo := e.WALStatus()
	for from < upTo {
		resp, err := http.Get(fmt.Sprintf("%s/v1/repl/wal?from_seq=%d&max=4096", replURL, from))
		if err != nil {
			return 0, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("repl wal from %d: %s", from, resp.Status)
		}
		chunk, _, err := ingest.ReadReplChunk(bytes.NewReader(body))
		if err != nil {
			return 0, 0, err
		}
		if len(chunk) == 0 {
			break
		}
		wire += int64(len(body))
		entries += len(chunk)
		from = chunk[len(chunk)-1].Seq
	}
	return wire, entries, nil
}

// ---------------------------------------------------------------- serving

// apiHandler is api.NewServer(view, gazetteer).Handler().
func apiHandler(v view) http.Handler { return api.NewServer(v, ports.Default()).Handler() }

// waitUntil polls cond every millisecond until it holds or d elapses.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
