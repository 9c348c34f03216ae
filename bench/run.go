package main

// The parent: single-process load generator and clock. It sets the dataset
// up, starts the workload's system under test as a child process, drives it,
// checks its answers and turns what both sides measured into metrics.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

type runArgs struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	shape    fleetShape
	clones   int    // live stream clones
	setups   int    // how many times set-up is repeated
	buildDir string // scratch, removed at exit
	outDir   string // results and traces
}

// metricValue is one reported number with the samples behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// runRecord is one run as written to the results file.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Env       envInfo                `json:"env"`
	Reports   int                    `json:"dataset_reports"`
	Groups    int                    `json:"dataset_groups"`
	ChildProc int                    `json:"child_gomaxprocs"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	LateP99Us float64                `json:"gen_late_p99_us"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]metricValue `json:"info,omitempty"` // reported, not bounded
}

// child is a running system under test.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	events *bufio.Scanner
}

func startChild(a runArgs, ref *reference, sutDir string, procs int) (*child, childEvent, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, childEvent{}, err
	}
	cmd := exec.Command(exe, "sut",
		"-workload", a.workload, "-archive", ref.archive, "-ref", ref.segment,
		"-dir", sutDir, "-seconds", fmt.Sprint(a.seconds), fmt.Sprintf("-trace=%v", a.traced))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, childEvent{}, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, childEvent{}, err
	}
	if err := cmd.Start(); err != nil {
		return nil, childEvent{}, err
	}
	c := &child{cmd: cmd, stdin: stdin, events: bufio.NewScanner(stdout)}
	c.events.Buffer(make([]byte, 1<<20), 1<<28) // a traced report carries its spans
	ev, err := c.next("ready")
	if err != nil {
		c.kill()
		return nil, childEvent{}, err
	}
	return c, ev, nil
}

// next reads the child's next event and checks its kind.
func (c *child) next(kind string) (childEvent, error) {
	var ev childEvent
	if !c.events.Scan() {
		err := c.events.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return ev, fmt.Errorf("child ended before %q: %w", kind, err)
	}
	if err := json.Unmarshal(c.events.Bytes(), &ev); err != nil {
		return ev, fmt.Errorf("child event: %w", err)
	}
	if ev.Event != kind {
		return ev, fmt.Errorf("child sent %q, expected %q", ev.Event, kind)
	}
	if ev.Err != "" {
		return ev, fmt.Errorf("child: %s", ev.Err)
	}
	return ev, nil
}

func (c *child) send(format string, args ...any) error {
	_, err := fmt.Fprintf(c.stdin, format+"\n", args...)
	return err
}

// finish reads the report and waits for the child to end.
func (c *child) finish() (*childReport, error) {
	ev, err := c.next("report")
	if err != nil {
		c.kill()
		return nil, err
	}
	c.stdin.Close()
	if err := c.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child exit: %w", err)
	}
	return ev.Report, nil
}

func (c *child) kill() {
	c.stdin.Close()
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // the exit status of a killed child says nothing new
}

// measured is what a workload driver hands back for the metric table.
type measured struct {
	throughput      float64
	throughputN     int
	latP50          float64
	latN            int
	ops             float64 // divisor of cpu_us_per_op
	storedPerRecord float64
	attempted       int // a failed operation fails the run, so every one of these succeeded
	lateUs          []float64
	info            map[string]metricValue
	layer           map[string]float64
	report          *childReport
	setupExtra      float64 // seconds of set-up the driver itself did (live warm-up)
	pooledTail      float64 // ms: the percentile with ten samples beyond it, over all samples
}

func runWorkload(a runArgs) (*runRecord, error) {
	spec, ok := findWorkload(a.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", a.workload)
	}
	work := filepath.Join(a.buildDir, fmt.Sprintf("work-%s-%d", a.workload, os.Getpid()))
	sutDir := filepath.Join(work, "sut")
	if err := os.MkdirAll(sutDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	env := fingerprint()

	// Set-up, several times over: the median is steadier than one.
	var d *dataset
	var ref *reference
	var setups []float64
	for i := 0; i < a.setups; i++ {
		t0 := time.Now()
		var err error
		if d, ref, err = setUp(a.seed, a.shape, work); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	nproc := runtime.NumCPU()
	// The serve children leave one core to the generator, whose closed loop
	// keeps it busy. The live stack keeps all cores: its generator is light,
	// and on one core every query would queue behind the 10 ms time slices
	// of whichever of engine loop, checkpoint writer and replica is running.
	procs := nproc
	if spec.loop != "batch" && a.workload != "live-ingest" {
		procs = max(1, nproc-1)
	}
	var tr *tracer
	if a.traced {
		tr = &tracer{}
	}
	t0 := time.Now()
	c, ready, err := startChild(a, ref, sutDir, procs)
	if err != nil {
		return nil, err
	}
	readyS := time.Since(t0).Seconds()

	// The generator's own collector must not stall the schedule: a cycle
	// over the reference inventory holds the pacer up by 10 ms and more.
	// The parent allocates a few hundred MB at most while it drives.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Nor may the generator run on more cores than the child leaves it: with
	// three busy threads on two cores the child shares one, and its CPU per
	// request moved between 145 and 206 us from run to run (128-138 without).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(1, nproc-procs)))

	var m *measured
	switch a.workload {
	case "archive-build", "cluster-build":
		m, err = driveBatch(c)
	case "serve-heap", "serve-segment-cold":
		m, err = driveServe(a, c, ready, ref, nproc, tr)
	case "live-ingest":
		m, err = driveLive(a, c, ready, d, ref, nproc, sutDir, tr)
	}
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("%s: %w", a.workload, err)
	}

	rec := &runRecord{
		Workload: a.workload, Seed: a.seed, Seconds: a.seconds, Traced: a.traced,
		Env: env, Reports: ref.reports, Groups: ref.groups, ChildProc: m.report.GOMAXPROCS,
		Attempted: m.attempted,
		LateP99Us: quantile(sortedCopy(m.lateUs), 0.99),
		Info:      m.info,
	}
	if rec.Info == nil {
		rec.Info = map[string]metricValue{}
	}
	rec.Info["peak_rss_mb"] = metricValue{Value: m.report.PeakRSSMB, Unit: "MB", Note: "VmHWM"}
	e2e := map[string]metricValue{
		"setup_s":                 {Value: median(setups) + readyS + m.setupExtra, Unit: "s", Samples: a.setups},
		"throughput_per_s":        {Value: m.throughput, Unit: "1/s", Samples: m.throughputN},
		"latency_p50_ms":          {Value: m.latP50, Unit: "ms", Samples: m.latN},
		"cpu_us_per_op":           {Value: m.report.CPUSeconds * 1e6 / m.ops, Unit: "us", Samples: int(m.ops)},
		"rss_mb":                  {Value: m.report.RSSMB, Unit: "MB"},
		"stored_bytes_per_record": {Value: m.storedPerRecord, Unit: "B"},
	}
	if !a.traced {
		rec.Metrics = e2e
		return rec, nil
	}

	// Traced run: the layer table. The end-to-end numbers it produced stay
	// in the record as info.
	for k, v := range e2e {
		rec.Info[k] = v
	}
	layer := map[string]float64{}
	for _, side := range []map[string]float64{m.report.Layer, m.layer} {
		for k, v := range side {
			layer[k] = v
		}
	}
	layer["harness.gen_late_p99_us"] = rec.LateP99Us
	layer["harness.traced_throughput_per_s"] = m.throughput
	// What recording cost: spans recorded on both sides times the measured
	// cost of one, as a share of the measured time on one core. Two runs of
	// this length differ by more than that (see README.md, "Tracing
	// overhead"), so their difference cannot show it.
	spans := len(tr.snapshot()) + len(m.report.Spans)
	layer["harness.trace_overhead_frac"] = float64(spans) * spanCostNs() / (a.seconds * 1e9)
	rec.Metrics = make(map[string]metricValue, len(perLayer))
	for _, s := range perLayer {
		rec.Metrics[s.name] = metricValue{Value: layer[s.name], Unit: s.unit}
	}
	if err := os.MkdirAll(a.outDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(a.outDir, "trace-"+a.workload+".json")
	if err := writeTrace(tracePath, a.workload, map[string][]span{"parent": tr.snapshot(), "child": m.report.Spans}); err != nil {
		return nil, err
	}
	return rec, nil
}

// driveBatch waits for the child to finish its rounds.
func driveBatch(c *child) (*measured, error) {
	rep, err := c.finish()
	if err != nil {
		return nil, err
	}
	rounds := sortedCopy(rep.RoundsMs)
	p50 := quantile(rounds, 0.5)
	n := len(rounds)
	return &measured{
		report:     rep,
		throughput: float64(rep.Reports) / (p50 / 1e3), throughputN: n,
		latP50: p50, latN: n,
		ops:             float64(rep.Reports) * float64(n),
		storedPerRecord: float64(rep.StoredBytes) / float64(rep.Reports),
		attempted:       n,
	}, nil
}

// latencyOf summarises open-loop samples: the median and, unbounded, the
// pooled percentile that the ten-samples-beyond rule allows.
func (m *measured) latencyOf(open loadResult) {
	sorted := sortedCopy(open.latMs)
	m.latP50 = quantile(sorted, 0.5)
	m.latN = len(open.latMs)
	m.lateUs = open.lateUs
	pq, pv := tailPercentile(sorted)
	m.pooledTail = pv
	m.info[fmt.Sprintf("latency_p%g_ms", pq*100)] = metricValue{Value: pv, Unit: "ms", Samples: m.latN, Note: "pooled"}
}

func driveServe(a runArgs, c *child, ready childEvent, ref *reference, nproc int, tr *tracer) (*measured, error) {
	reqs, skipped, err := makeRequests(ref.inv, a.seed, mixSize)
	if err != nil {
		return nil, err
	}
	closedFor := time.Duration(a.seconds * closedShare * float64(time.Second))
	openFor := time.Duration(a.seconds*float64(time.Second)) - closedFor
	closed := closedLoop(ready.API, reqs, nproc, closedFor, tr)
	open := openLoop(ready.API, reqs, serveRate, openFor, nproc, false, tr, time.Sleep)
	if err := c.send("stop"); err != nil {
		return nil, err
	}
	rep, err := c.finish()
	if err != nil {
		return nil, err
	}
	for _, r := range []loadResult{closed, open} {
		if r.failed > 0 {
			return nil, fmt.Errorf("%d of %d requests failed or were answered wrongly, first: %v", r.failed, r.attempted, r.firstErr)
		}
	}
	m := &measured{
		report:     rep,
		throughput: float64(closed.attempted) / closed.elapsed.Seconds(), throughputN: closed.attempted,
		ops:             float64(closed.attempted + open.attempted),
		storedPerRecord: float64(rep.StoredBytes) / float64(ref.reports),
		attempted:       closed.attempted + open.attempted,
		info: map[string]metricValue{
			"open_rate_hz":      {Value: serveRate, Unit: "1/s"},
			"mix_skipped_draws": {Value: float64(skipped), Unit: "count", Samples: mixSize},
		},
	}
	m.latencyOf(open)
	if a.traced {
		// What the socket, net/http and the client add: closed-loop median
		// minus the mix-weighted median of the handlers alone.
		var handlerUs float64
		for _, q := range queryMix {
			handlerUs += float64(q.share) / 100 * rep.Layer["api.handler_us_p50."+q.route]
		}
		e2eUs := quantile(sortedCopy(closed.latMs), 0.5) * 1e3
		m.layer = map[string]float64{
			"net.http_overhead_us_p50": e2eUs - handlerUs,
			"net.query_tail_ms":        m.pooledTail,
			"harness.residual_frac":    1 - handlerUs/e2eUs,
		}
	}
	return m, nil
}

func driveLive(a runArgs, c *child, ready childEvent, d *dataset, ref *reference, nproc int, sutDir string, tr *tracer) (*measured, error) {
	stream, err := makeLiveStream(d, a.seed, a.clones, liveThin)
	if err != nil {
		return nil, err
	}
	reqs, skipped, err := makeRequests(ref.inv, a.seed, mixSize)
	if err != nil {
		return nil, err
	}
	if a.traced {
		// The child's isolated calls replay the same stream.
		if err := os.WriteFile(filepath.Join(sutDir, "stream.nmea"), append(append([]byte(nil), stream.head...), joinLines(stream.lines)...), 0o644); err != nil {
			return nil, err
		}
	}
	total := len(stream.lines)
	pacedFor := time.Duration(a.seconds / 2 * float64(time.Second))
	nPaced := min(int(livePacedRate*pacedFor.Seconds()), int(float64(total)*livePacedShare))
	nBurst := total - nPaced // cumulative: the burst ends at this report
	pacedFor = time.Duration(float64(nPaced) / livePacedRate * float64(time.Second))

	feed, err := dialFeed(ready.Feed, stream)
	if err != nil {
		return nil, err
	}
	defer feed.close()

	// Warm-up, not measured: the stream in slices of one per cent, each
	// merged and published on demand, until the primary has merged often
	// enough to write its first checkpoint; then the replica bootstraps from
	// it and catches up. Trips do not complete in the first days of the
	// stream, so how much of it the warm-up takes is found, not fixed.
	ask := func(format string, args ...any) (childEvent, error) {
		if err := c.send(format, args...); err != nil {
			return childEvent{}, err
		}
		return c.next("reply")
	}
	sp := tr.start("phase.warm", -1)
	t0 := time.Now()
	nWarm := 0
	for merges := int64(0); merges < liveCheckpointEvery; {
		if nWarm += total / 100; nWarm > nBurst/2 {
			return nil, fmt.Errorf("warm-up: %d merges after %d of %d reports", merges, nWarm, total)
		}
		if err := feed.burst(nWarm); err != nil {
			return nil, err
		}
		ev, err := ask("publish %d", nWarm)
		if err != nil {
			return nil, err
		}
		merges = ev.Merges
	}
	for _, cmd := range []string{"attach", fmt.Sprintf("cover %d", nWarm), fmt.Sprintf("mark %d", nWarm)} {
		if _, err := ask(cmd); err != nil {
			return nil, err
		}
	}
	tr.end(sp)
	warmS := time.Since(t0).Seconds()

	// Burst: closed loop against TCP backpressure, until the replica has
	// applied every report of it.
	sp = tr.start("phase.burst", -1)
	t0 = time.Now()
	if err := feed.burst(nBurst); err != nil {
		return nil, err
	}
	ev, err := ask("cover %d", nBurst)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	burst := time.Duration(ev.AtNs - t0.UnixNano())
	// Paced: open loop, with the query mix beside it.
	sp = tr.start("phase.paced", -1)
	var queries loadResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		queries = openLoop(ready.API, reqs, liveQueryRate, pacedFor, nproc, true, tr, time.Sleep)
	}()
	late, err := feed.paced(total, livePacedRate)
	wg.Wait()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, cmd := range []string{"cover", "gate"} {
		if _, err := ask("%s %d", cmd, total); err != nil {
			return nil, err
		}
	}
	if err := c.send("stop"); err != nil {
		return nil, err
	}
	rep, err := c.finish()
	if err != nil {
		return nil, err
	}
	if queries.failed > 0 {
		return nil, fmt.Errorf("%d of %d queries failed, first: %v", queries.failed, queries.attempted, queries.firstErr)
	}

	fresh := sortedCopy(freshness(rep.Primary, rep.Replica, &feed.log, nBurst))
	_, freshTail := tailPercentile(fresh)
	m := &measured{
		report:     rep,
		throughput: float64(nBurst-nWarm) / burst.Seconds(), throughputN: nBurst - nWarm,
		setupExtra:      warmS,
		ops:             float64(total - nWarm),
		storedPerRecord: float64(rep.StoredBytes) / float64(total),
		attempted:       total + queries.attempted,
		info: map[string]metricValue{
			"freshness_p50_ms":  {Value: quantile(fresh, 0.5), Unit: "ms", Samples: len(fresh)},
			"freshness_tail_ms": {Value: freshTail, Unit: "ms", Samples: len(fresh)},
			"paced_rate_hz":     {Value: livePacedRate, Unit: "1/s", Samples: nPaced},
			"query_rate_hz":     {Value: liveQueryRate, Unit: "1/s"},
			"stream_reports":    {Value: float64(total), Unit: "count"},
			"warmup_reports":    {Value: float64(nWarm), Unit: "count"},
			"mix_skipped_draws": {Value: float64(skipped), Unit: "count", Samples: mixSize},
		},
	}
	m.latencyOf(queries)
	m.lateUs = append(m.lateUs, late...)
	if a.traced {
		perRecordNs := 1e9 / m.throughput
		m.layer = map[string]float64{
			"replica.freshness_p50_ms":    quantile(fresh, 0.5),
			"replica.freshness_tail_ms":   freshTail,
			"replica.freshness_samples":   float64(len(fresh)),
			"net.query_tail_ms":           m.pooledTail,
			"ingest.accept_ns_per_record": perRecordNs - rep.Layer["ingest.submit_ns_per_record"],
			// Share of the burst's per-report wall not covered by the five
			// isolated calls of the engine loop.
			"harness.residual_frac": 1 - (rep.Layer["ingest.submit_ns_per_record"]-rep.Layer["ingest.loop_residual_ns_per_record"])/perRecordNs,
		}
	}
	return m, nil
}

func joinLines(lines [][]byte) []byte {
	var out []byte
	for _, l := range lines {
		out = append(out, l...)
	}
	return out
}

func resultsPath(outDir string) string { return filepath.Join(outDir, "results.jsonl") }

// appendRecord adds one run to the results file.
func appendRecord(outDir string, rec *runRecord) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(resultsPath(outDir), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []runRecord
	dec := json.NewDecoder(f)
	for dec.More() {
		var r runRecord
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
