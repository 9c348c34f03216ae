package main

// The system under test of each workload, run as `polbench sut` in a fresh
// child process so that its CPU, peak RSS and garbage are its own. The child
// speaks a line protocol: it prints JSON events on stdout (ready, reply,
// report) and reads one-word commands with arguments on stdin.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childEvent is one line the child prints.
type childEvent struct {
	Event string `json:"event"` // ready | reply | report

	// ready
	API  string `json:"api,omitempty"`
	Feed string `json:"feed,omitempty"`

	// reply
	AtNs   int64  `json:"at_ns,omitempty"`
	Merges int64  `json:"merges,omitempty"` // live-ingest: merges so far
	Err    string `json:"err,omitempty"`

	// report
	Report *childReport `json:"report,omitempty"`
}

// childReport is what the child measured about itself.
type childReport struct {
	GOMAXPROCS  int                `json:"gomaxprocs"`
	CPUSeconds  float64            `json:"cpu_s"`       // user+system, ready to stop
	RSSMB       float64            `json:"rss_mb"`      // median of VmRSS samples, ready to stop
	PeakRSSMB   float64            `json:"peak_rss_mb"` // VmHWM at stop, reset at ready
	RoundsMs    []float64          `json:"rounds_ms,omitempty"`
	Reports     int64              `json:"reports,omitempty"` // input reports of one round
	StoredBytes int64              `json:"stored_bytes"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
	Primary     []publish          `json:"primary,omitempty"`
	Replica     []publish          `json:"replica,omitempty"`
}

type sutArgs struct {
	workload, archive, ref, dir string
	seconds                     float64
	traced                      bool
}

func sutMain(argv []string) error {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	var a sutArgs
	fs.StringVar(&a.workload, "workload", "", "workload name")
	fs.StringVar(&a.archive, "archive", "", "archive path")
	fs.StringVar(&a.ref, "ref", "", "reference segment path")
	fs.StringVar(&a.dir, "dir", "", "scratch directory")
	fs.Float64Var(&a.seconds, "seconds", 10, "batch workloads: how long to run rounds")
	fs.BoolVar(&a.traced, "trace", false, "record spans and layer metrics")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	out := json.NewEncoder(os.Stdout)
	var tr *tracer
	if a.traced {
		tr = &tracer{}
	}
	var rep *childReport
	var err error
	switch a.workload {
	case "archive-build", "cluster-build":
		rep, err = sutBatch(a, tr, out)
	case "serve-heap", "serve-segment-cold":
		rep, err = sutServe(a, tr, out)
	case "live-ingest":
		rep, err = sutLive(a, tr, out)
	default:
		err = fmt.Errorf("unknown workload %q", a.workload)
	}
	if err != nil {
		return err
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Spans = tr.snapshot()
	return out.Encode(childEvent{Event: "report", Report: rep})
}

// cpuSeconds is the user+system CPU this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// statusMB reads one kB line of /proc/self/status ("VmRSS:", "VmHWM:") in MB.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler reads the resident set every 20 ms. Its median is what rss_mb
// reports: the high-water mark of a Go process under load is an accident of
// collector pacing (339 to 544 MB over four identical live-ingest runs).
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.mb = append(s.mb, statusMB("VmRSS:"))
			}
		}
	}()
	return s
}

// finish stops the sampler and fills the report's memory figures.
func (s *rssSampler) finish(rep *childReport) {
	close(s.stop)
	<-s.done
	rep.RSSMB = median(s.mb)
	rep.PeakRSSMB = statusMB("VmHWM:")
}

// resetPeakRSS collects garbage and resets VmHWM, so that the peak a child
// reports is that of serving, not of loading. Where the kernel refuses the
// write the peak includes start-up.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// memDelta runs f and returns the allocations and bytes it made, from
// runtime.MemStats. Untraced runs skip the two stop-the-world reads.
func memDelta(traced bool, f func() error) (allocs, bytes float64, err error) {
	if !traced {
		return 0, 0, f()
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), err
}

// ---------------------------------------------------------------- batch

// sutBatch runs build rounds for a.seconds (at least minRounds): archive →
// inventory → segment on disk → first answer from that segment.
func sutBatch(a sutArgs, tr *tracer, out *json.Encoder) (*childReport, error) {
	idx := newPortIndex()
	ref, err := openSegment(a.ref)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	probeCell := ref.Cells(gsCell)[0]
	want, _ := ref.Cell(probeCell)
	wantRecords := cellRecords(want)
	result := filepath.Join(a.dir, "result.polseg")
	minRounds := 4
	if a.workload == "cluster-build" {
		minRounds = 2
	}
	if err := out.Encode(childEvent{Event: "ready"}); err != nil {
		return nil, err
	}

	rep := &childReport{Layer: map[string]float64{}}
	lay := newLayerSums()
	rss := startRSSSampler()
	cpu0, start := cpuSeconds(), time.Now()
	for len(rep.RoundsMs) < minRounds || time.Since(start).Seconds() < a.seconds {
		t0 := time.Now()
		root := tr.start("round", -1)
		var inv *heapInv
		if a.workload == "archive-build" {
			inv, err = archiveRound(a, tr, root, idx, lay)
		} else {
			inv, err = clusterRound(a, tr, root, lay)
		}
		if err != nil {
			return nil, err
		}
		sp := tr.start("segment.WriteFile", root)
		err = writeSegment(inv, result)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("segment.Open", root)
		rd, err := openSegment(result)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("segment.Cell", root)
		got, ok := rd.Cell(probeCell)
		tr.end(sp)
		tr.end(root)
		rep.RoundsMs = append(rep.RoundsMs, float64(time.Since(t0))/1e6)
		if !ok || cellRecords(got) != wantRecords {
			return nil, fmt.Errorf("%s: first answer from the result segment is wrong for cell %v", a.workload, probeCell)
		}
		lay.groups += float64(inv.Len())
		lay.rounds++
		rd.Close()
	}
	rep.CPUSeconds = cpuSeconds() - cpu0
	rss.finish(rep)
	rep.StoredBytes = fileSize(result)
	rep.Reports = int64(lay.reports / lay.rounds)

	// Correctness gate, outside the clock: the last result is bit-equal to
	// the reference (archive-build) or to a local build (cluster-build).
	rd, err := openSegment(result)
	if err != nil {
		return nil, err
	}
	defer rd.Close()
	if a.workload == "archive-build" {
		if !equalViews(rd, ref) {
			return nil, fmt.Errorf("archive-build: result segment differs from the reference inventory")
		}
	} else {
		c0 := cpuSeconds()
		arc, err := readArchive(a.archive)
		if err != nil {
			return nil, err
		}
		local, _, err := buildLocal(arc, idx)
		if err != nil {
			return nil, err
		}
		lay.localCPU = cpuSeconds() - c0
		if !equalHeap(materialize(rd), local) {
			return nil, fmt.Errorf("cluster-build: result differs from a local build")
		}
	}
	if a.traced {
		lay.batchMetrics(rep, tr, a.workload)
		if a.workload == "archive-build" {
			if err := probeBatchStages(a.archive, idx, rep.Layer); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// layerSums accumulates the counters of the rounds of a batch workload.
type layerSums struct {
	rounds, reports, groups float64
	readAllocs              float64
	runAllocs, runBytes     float64
	counts                  map[string]float64 // per-round counters by metric name, reported per round
	stageNanos, stageRows   map[string]float64
	localCPU, clusterCPU    float64 // CPU seconds of one local build, of all cluster.Run calls
}

func newLayerSums() *layerSums {
	return &layerSums{counts: map[string]float64{}, stageNanos: map[string]float64{}, stageRows: map[string]float64{}}
}

func archiveRound(a sutArgs, tr *tracer, root int, idx *portIndex, lay *layerSums) (*heapInv, error) {
	var arc *archiveRead
	sp := tr.start("feed.ReadAll", root)
	allocs, _, err := memDelta(a.traced, func() (err error) {
		arc, err = readArchive(a.archive)
		return err
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	lay.readAllocs += allocs
	lay.counts["feed.bad_lines"] += float64(arc.badLines)
	lay.counts["pipeline.records_in"] += float64(len(arc.recs))
	lay.reports += float64(len(arc.recs))

	var inv *heapInv
	var bs buildStats
	sp = tr.start("pipeline.Run", root)
	allocs, bytes, err := memDelta(a.traced, func() (err error) {
		inv, bs, err = buildLocal(arc, idx)
		return err
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	lay.runAllocs += allocs
	lay.runBytes += bytes
	lay.counts["pipeline.observations_out"] += float64(bs.observations)
	lay.counts["dataflow.shuffled_records"] += float64(bs.shuffled)
	for _, s := range bs.stages {
		lay.stageNanos[s.name] += float64(s.nanos)
		lay.stageRows[s.name] += float64(s.in)
	}
	return inv, nil
}

func clusterRound(a sutArgs, tr *tracer, root int, lay *layerSums) (*heapInv, error) {
	sp := tr.start("cluster.Run", root)
	c0 := cpuSeconds()
	inv, cc, err := clusterBuild(context.Background(), a.archive)
	lay.clusterCPU += cpuSeconds() - c0
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	lay.reports += float64(rawRecords(inv))
	for name, v := range cc {
		lay.counts[name] += v
	}
	return inv, nil
}

// ratio is a/b, or 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// batchMetrics turns the rounds' spans and counters into layer metrics,
// per round where the metric is a count.
func (l *layerSums) batchMetrics(rep *childReport, tr *tracer, workload string) {
	self, count := selfTimes(tr.snapshot())
	ns := func(name string) float64 { return float64(self[name]) }
	m := rep.Layer
	for name, v := range l.counts {
		m[name] = v / l.rounds
	}
	m["segment.write_ns_per_group"] = ratio(ns("segment.WriteFile"), l.groups)
	m["segment.bytes_per_group"] = ratio(float64(rep.StoredBytes), l.groups/l.rounds)
	m["segment.open_us"] = ratio(ns("segment.Open")/1e3, float64(count["segment.Open"]))
	var spanned float64
	for name, d := range self {
		if name != "round" {
			spanned += float64(d)
		}
	}
	// Share of the rounds' wall time outside every span.
	m["harness.residual_frac"] = ratio(ns("round"), spanned+ns("round"))
	if workload == "archive-build" {
		m["feed.decode_ns_per_record"] = ratio(ns("feed.ReadAll"), l.reports)
		m["feed.allocs_per_record"] = ratio(l.readAllocs, l.reports)
		m["pipeline.run_allocs_per_record"] = ratio(l.runAllocs, l.reports)
		m["pipeline.run_bytes_per_record"] = ratio(l.runBytes, l.reports)
		per := func(stage string) float64 { return ratio(l.stageNanos[stage], l.stageRows[stage]) }
		m["dataflow.vessel_shuffle_ns_per_record"] = per("shuffle-by-vessel")
		m["dataflow.reduce_partial_ns_per_obs"] = per("feature-extraction.partial")
		m["dataflow.reduce_shuffle_ns_per_row"] = per("feature-extraction.shuffle")
		m["dataflow.reduce_merge_ns_per_row"] = per("feature-extraction.merge")
		return
	}
	// Overhead of the cluster path: 1 − CPU of a local build over the same
	// archive ÷ CPU inside cluster.Run, both per report. Its base is
	// cluster.local_cpu_us_per_record.
	m["cluster.local_cpu_us_per_record"] = ratio(l.localCPU*1e6, l.reports/l.rounds)
	m["cluster.overhead_frac"] = 1 - ratio(l.localCPU*l.rounds, l.clusterCPU)
}

// ---------------------------------------------------------------- serve

// sutServe serves the query API from the reference inventory: a frozen heap
// snapshot materialised from the segment, or the segment itself.
func sutServe(a sutArgs, tr *tracer, out *json.Encoder) (*childReport, error) {
	rd, err := openSegment(a.ref)
	if err != nil {
		return nil, err
	}
	var v view = rd
	if a.workload == "serve-heap" {
		v = materialize(rd)
		rd.Close()
		rd = nil
	}
	srv, addr, err := serveHTTP(apiHandler(v))
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	if err := out.Encode(childEvent{Event: "ready", API: addr}); err != nil {
		return nil, err
	}
	rss := startRSSSampler()
	cpu0 := cpuSeconds()
	if _, err := readCommand(bufio.NewReader(os.Stdin), "stop"); err != nil {
		return nil, err
	}
	rep := &childReport{
		CPUSeconds:  cpuSeconds() - cpu0,
		StoredBytes: fileSize(a.ref), Layer: map[string]float64{},
	}
	rss.finish(rep)
	_ = srv.Close()
	if a.traced {
		if rd != nil {
			hits, misses, _, pinnedBytes := rd.cacheCounts()
			rep.Layer["segment.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
			rep.Layer["segment.pinned_mb"] = float64(pinnedBytes) / (1 << 20)
		}
		if err := probeServe(v, rd, a.ref, rep.Layer); err != nil {
			return nil, err
		}
	}
	if rd != nil {
		if err := rd.Err(); err != nil {
			return nil, fmt.Errorf("segment reader: %w", err)
		}
		rd.Close()
	}
	return rep, nil
}

// readCommand reads the next command line and checks its verb; it returns
// the arguments.
func readCommand(in *bufio.Reader, verb string) ([]string, error) {
	line, err := in.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("waiting for %q: %w", verb, err)
	}
	f := strings.Fields(line)
	if len(f) == 0 || f[0] != verb {
		return nil, fmt.Errorf("expected command %q, got %q", verb, strings.TrimSpace(line))
	}
	return f[1:], nil
}

// ---------------------------------------------------------------- live

// liveSampler watches the primary and the replica from inside the child:
// every published snapshot (by pointer change), the deepest queue and the
// replica's sequence lag.
type liveSampler struct {
	mu       sync.Mutex
	primary  []publish
	replica  []publish
	queueMax int
	lagSeq   []float64
	stop     chan struct{}
	done     chan struct{}
}

func startSampler(ls *liveStack) *liveSampler {
	s := &liveSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var lastP, lastR *heapInv
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			now := time.Now().UnixNano()
			s.mu.Lock()
			if p := ls.eng.Snapshot(); p != lastP {
				lastP = p
				s.primary = append(s.primary, publish{now, rawRecords(p), usedRecords(p)})
			}
			if r := ls.rep.Snapshot(); r != lastR {
				lastR = r
				s.replica = append(s.replica, publish{now, rawRecords(r), usedRecords(r)})
			}
			if n%20 == 0 { // every 10 ms
				s.queueMax = max(s.queueMax, engineStats(ls.eng).queueDepth)
				s.lagSeq = append(s.lagSeq, float64(ls.rep.LagSeq()))
			}
			s.mu.Unlock()
		}
	}()
	return s
}

func (s *liveSampler) close() {
	close(s.stop)
	<-s.done
}

// sutLive runs the live stack and serves the parent's commands until stop:
//
//	publish N  wait until the primary has seen N reports, then merge and publish
//	attach     wait for the first checkpoint and the replica's bootstrap from it
//	cover N    wait until the replica has applied everything up to report N
//	mark       the measured part starts here (CPU and allocation baselines)
//	gate N     the correctness gate, N being every report sent
func sutLive(a sutArgs, tr *tracer, out *json.Encoder) (*childReport, error) {
	sp := tr.start("live.start", -1)
	ls, err := startLiveStack(a.dir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sam := startSampler(ls)
	if err := out.Encode(childEvent{Event: "ready", API: ls.apiAddr, Feed: ls.feedAddr}); err != nil {
		return nil, err
	}
	in := bufio.NewReader(os.Stdin)
	var cpu0 float64
	var rss *rssSampler
	var marks []runtime.MemStats // at mark and at each cover after it, traced runs only
	var covered []int
	for {
		line, err := in.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("waiting for a command: %w", err)
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		var n int
		if len(f) > 1 {
			if n, err = strconv.Atoi(f[1]); err != nil {
				return nil, fmt.Errorf("command %q: %w", strings.TrimSpace(line), err)
			}
		}
		if f[0] == "stop" {
			break
		}
		sp := tr.start("live."+f[0], -1)
		switch f[0] {
		case "publish":
			if err = primarySaw(ls, n); err == nil {
				err = ls.eng.PublishNow()
			}
		case "attach":
			if !waitUntil(patience, func() bool { return engineStats(ls.eng).checkpoints >= 1 && bootstrapped(ls.rep) }) {
				st := engineStats(ls.eng)
				err = fmt.Errorf("warm-up: %d merges, %d checkpoints, replica bootstrapped=%v", st.merges, st.checkpoints, bootstrapped(ls.rep))
			}
		case "cover":
			err = replicaCovers(ls, n)
		case "mark":
			resetPeakRSS()
			rss = startRSSSampler()
			cpu0 = cpuSeconds()
		case "gate":
			err = liveGate(ls, n)
		default:
			err = fmt.Errorf("unknown command %q", f[0])
		}
		tr.end(sp)
		if a.traced && (f[0] == "mark" || (f[0] == "cover" && len(marks) > 0)) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			marks, covered = append(marks, ms), append(covered, n)
		}
		reply := childEvent{Event: "reply", AtNs: time.Now().UnixNano(), Merges: engineStats(ls.eng).merges}
		if err != nil {
			reply.Err = err.Error()
		}
		if err := out.Encode(reply); err != nil {
			return nil, err
		}
	}
	sam.close()
	st := engineStats(ls.eng)
	rep := &childReport{
		CPUSeconds: cpuSeconds() - cpu0,
		Primary:    sam.primary, Replica: sam.replica,
		Layer: map[string]float64{},
	}
	if rss == nil {
		return nil, fmt.Errorf("stop before mark")
	}
	rss.finish(rep)
	final := filepath.Join(a.dir, "final.polseg")
	if err := writeSegment(ls.eng.Snapshot(), final); err != nil {
		return nil, err
	}
	rep.StoredBytes = fileSize(final)
	if a.traced {
		m := rep.Layer
		if len(marks) >= 2 { // mark, then the burst's cover
			n := float64(covered[1] - covered[0])
			m["ingest.allocs_per_record"] = float64(marks[1].Mallocs-marks[0].Mallocs) / n
			m["ingest.bytes_per_record"] = float64(marks[1].TotalAlloc-marks[0].TotalAlloc) / n
		}
		m["ingest.queue_depth_max"] = float64(sam.queueMax)
		m["ingest.merges"], m["ingest.checkpoints"] = float64(st.merges), float64(st.checkpoints)
		m["ingest.journal_fsync_ms_p50"] = stageP50ms(ls.primReg, "journal_fsync")
		m["ingest.merge_ms_p50"] = stageP50ms(ls.primReg, "ingest_merge")
		m["ingest.publish_ms_p50"] = stageP50ms(ls.primReg, "ingest_publish")
		m["ingest.checkpoint_ms_p50"] = stageP50ms(ls.primReg, "checkpoint")
		m["ingest.ckpt_bytes_per_gen"] = float64(newestCheckpointBytes(ls.eng))
		m["replica.lag_seq_p99"] = quantile(sortedCopy(sam.lagSeq), 0.99)
		if err := probeLive(ls, a.dir, m); err != nil {
			return nil, err
		}
	}
	return rep, ls.close()
}

// patience bounds every wait on the live stack.
const patience = 60 * time.Second

func primarySaw(ls *liveStack, n int) error {
	if !waitUntil(patience, func() bool { return engineStats(ls.eng).positionsSeen >= int64(n) }) {
		return fmt.Errorf("primary saw %d of %d reports", engineStats(ls.eng).positionsSeen, n)
	}
	return nil
}

// replicaCovers waits until the primary has seen n reports, made them
// durable and published them, and the replica has applied the primary's
// whole WAL.
func replicaCovers(ls *liveStack, n int) error {
	if err := primarySaw(ls, n); err != nil {
		return err
	}
	if err := ls.eng.Sync(); err != nil {
		return err
	}
	if err := ls.eng.PublishNow(); err != nil {
		return err
	}
	target := ls.eng.WALSeq()
	if !waitUntil(patience, func() bool { return ls.rep.AppliedSeq() >= target }) {
		return fmt.Errorf("replica applied seq %d of %d", ls.rep.AppliedSeq(), target)
	}
	return nil
}

// liveGate is the live-ingest correctness gate, taken after the last cover: the replica's snapshot is bit-equal to the primary's, the primary
// counted every report sent, and nothing was dropped.
func liveGate(ls *liveStack, total int) error {
	prim := ls.eng.Snapshot()
	if !waitUntil(10*time.Second, func() bool { return usedRecords(ls.rep.Snapshot()) == usedRecords(prim) }) {
		return fmt.Errorf("replica snapshot covers %d trip records, primary %d", usedRecords(ls.rep.Snapshot()), usedRecords(prim))
	}
	if !equalHeap(prim, ls.rep.Snapshot()) {
		return fmt.Errorf("replica snapshot differs from the primary's")
	}
	st := engineStats(ls.eng)
	if st.positionsSeen != int64(total) {
		return fmt.Errorf("primary counted %d reports, %d were sent", st.positionsSeen, total)
	}
	if st.degraded || st.degradedDropped != 0 {
		return fmt.Errorf("primary degraded=%v dropped=%d", st.degraded, st.degradedDropped)
	}
	return nil
}
