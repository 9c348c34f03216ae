package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// ErrKilled reports that the worker terminated itself through the
// cluster.worker.kill failpoint (fault-injection for re-queue tests).
var ErrKilled = errors.New("cluster: worker killed by failpoint")

// Failpoints evaluated by a worker, armed through the shared
// internal/fault registry (POL_FAILPOINTS or WorkerConfig.Faults). Kill
// makes the worker vanish mid-task after one heartbeat; Execute replaces
// a task execution with an injected error. The legacy flag syntaxes map
// onto fault specs: "kill-task=N" ≈ "cluster.worker.kill=error*1@N-1",
// "fail-tasks=N" ≈ "cluster.worker.execute=error*N".
const (
	FPWorkerKill    = "cluster.worker.kill"
	FPWorkerExecute = "cluster.worker.execute"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Coordinator is the TCP address to dial.
	Coordinator string
	// Name identifies the worker in logs and results (default host:pid).
	Name string
	// Parallelism is the dataflow pool width per task (default GOMAXPROCS).
	Parallelism int
	// HeartbeatEvery is the liveness interval while executing a task
	// (default 2s; keep it well under the coordinator's TaskTimeout).
	HeartbeatEvery time.Duration
	// DialRetryFor keeps re-dialing a not-yet-listening coordinator for
	// this long (default 10s) — workers may start first.
	DialRetryFor time.Duration
	// MaxFrameBytes caps one protocol frame (default DefaultMaxFrameBytes).
	MaxFrameBytes int
	// ShuffleListen is the address the worker's peer-shuffle listener
	// binds (default ":0" — any interface, ephemeral port). Peers of a
	// peer-shuffle archive job stream bucket frames here.
	ShuffleListen string
	// ShuffleAdvertise overrides the shuffle address announced to the
	// coordinator (default: the listener's port joined with the local IP
	// of the coordinator connection — right whenever peers can route the
	// same way the coordinator is reached).
	ShuffleAdvertise string
	// WriteTimeout bounds one peer-shuffle frame write (default 10s); a
	// blocked peer drops the connection and the sender replays on
	// reconnect.
	WriteTimeout time.Duration
	// Faults is the failpoint registry consulted at FPWorkerKill and
	// FPWorkerExecute (default: the process-wide registry armed from
	// POL_FAILPOINTS).
	Faults *fault.Registry
	// Obs receives worker metrics (default obs.Default()).
	Obs *obs.Registry
	// Tracer, when non-nil, records one execution span per task, joining
	// the coordinator's job trace through Task.TraceParent (tasks without
	// one start fresh worker-local traces). Pipeline stage spans nest
	// under it.
	Tracer *trace.Tracer
	// Logf, when non-nil, receives worker progress lines.
	Logf func(format string, args ...any)

	// resultDelay, when non-nil, delays each result send (test hook for
	// shuffled completion order and straggler scenarios).
	resultDelay func(t Task) time.Duration
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		c.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if c.Parallelism < 1 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.DialRetryFor <= 0 {
		c.DialRetryFor = 10 * time.Second
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if c.ShuffleListen == "" {
		c.ShuffleListen = ":0"
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.Faults == nil {
		c.Faults = fault.Default()
	}
	return c
}

// worker is the run state of one RunWorker call.
type worker struct {
	cfg     WorkerConfig
	conn    net.Conn
	writeMu sync.Mutex // heartbeat goroutine vs result sends
	metrics *workerMetrics
	portIdx *ports.Index
	shuffle *shuffleState   // peer-shuffle listener + reassembly
	runCtx  context.Context // cancelled when the connection dies

	simSpec SimSpec        // cached fleet spec…
	sim     *sim.Simulator // …and its simulator (lane graph reuse)
}

// RunWorker connects to the coordinator and executes tasks until the
// coordinator sends a shutdown (returns nil), the connection is lost, the
// context is cancelled, or a kill failpoint fires (returns ErrKilled).
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	w := &worker{
		cfg:     cfg,
		metrics: newWorkerMetrics(cfg.Obs),
		portIdx: ports.NewIndex(ports.Default(), ports.IndexResolution),
	}
	conn, err := w.dial(ctx)
	if err != nil {
		return err
	}
	w.conn = conn
	defer conn.Close()

	// runCtx cancels running pipelines the moment the connection dies or
	// the caller's context is cancelled. Set before the shuffle starts:
	// the reduce loop reads it.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.runCtx = runCtx

	sh, err := newShuffleState(w)
	if err != nil {
		return err
	}
	w.shuffle = sh
	defer sh.shutdown()
	sh.start()
	addr := sh.resolveAdvertise(conn)
	if err := w.send(&envelope{Type: msgHello, Hello: &helloMsg{Name: cfg.Name, Procs: cfg.Parallelism, ShuffleAddr: addr}}); err != nil {
		return err
	}
	w.logf("connected to %s as %s (shuffle %s)", cfg.Coordinator, cfg.Name, addr)

	frames := make(chan *envelope, 16)
	readErr := make(chan error, 1)
	go func() {
		in := countingReader{r: conn, c: w.metrics.bytesIn}
		for {
			env, err := readFrame(in, cfg.MaxFrameBytes)
			if err != nil {
				readErr <- err
				cancel()
				close(frames)
				return
			}
			frames <- env
		}
	}()

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case env, ok := <-frames:
			if !ok {
				err := <-readErr
				if err == io.EOF {
					return nil // coordinator closed us out
				}
				return fmt.Errorf("cluster: connection lost: %w", err)
			}
			switch env.Type {
			case msgShutdown:
				w.logf("shutdown received")
				return nil
			case msgRoster:
				if env.Roster != nil {
					w.shuffle.setRoster(env.Roster)
				}
			case msgTask:
				if env.Task == nil {
					continue
				}
				done, err := w.handleTask(runCtx, *env.Task)
				if err != nil {
					return err
				}
				if done {
					return ErrKilled
				}
			}
		}
	}
}

// dial connects with retries, tolerating a coordinator that starts late.
func (w *worker) dial(ctx context.Context) (net.Conn, error) {
	deadline := time.Now().Add(w.cfg.DialRetryFor)
	for {
		conn, err := net.DialTimeout("tcp", w.cfg.Coordinator, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: dial %s: %w", w.cfg.Coordinator, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// send writes one frame under the write mutex (heartbeats interleave with
// results on the same connection).
func (w *worker) send(env *envelope) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return writeFrame(countingWriter{w: w.conn, c: w.metrics.bytesOut}, env)
}

// handleTask executes one task and reports its result; killed reports that
// the kill failpoint fired and the worker must exit.
func (w *worker) handleTask(ctx context.Context, t Task) (killed bool, fatal error) {
	w.logf("task %d (%s) attempt %d", t.ID, t.Kind, t.Attempt)
	if err := w.cfg.Faults.Hit(FPWorkerKill); err != nil {
		// Die mid-task: prove liveness once, then vanish without a result.
		w.send(&envelope{Type: msgHeartbeat, Heartbeat: &heartbeatMsg{TaskID: t.ID}})
		w.conn.Close()
		w.logf("failpoint: killed on task %d", t.ID)
		return true, nil
	}

	// Heartbeat for the whole execution.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(w.cfg.HeartbeatEvery)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				w.metrics.heartbeats.Inc()
				if err := w.send(&envelope{Type: msgHeartbeat, Heartbeat: &heartbeatMsg{TaskID: t.ID}}); err != nil {
					return
				}
			}
		}
	}()

	// The execution span joins the coordinator's job trace via the
	// traceparent stamped into the task frame; pipeline stage spans nest
	// under it through the context.
	parent, _ := trace.ParseTraceparent(t.TraceParent)
	span := w.cfg.Tracer.StartRemote("cluster.task."+t.Kind.String(), parent)
	span.SetAttr("task", fmt.Sprint(t.ID))
	span.SetAttr("attempt", fmt.Sprint(t.Attempt))
	if span != nil {
		w.logf("task %d trace %s", t.ID, span.Trace)
	}
	res := w.execute(trace.ContextWith(ctx, span), t)
	if res.Err != "" {
		span.SetAttr("error", res.Err)
		span.MarkError()
	}
	span.Finish()
	close(hbStop)
	hbWG.Wait()
	if res.Err == "" {
		w.metrics.tasksOK.Inc()
	} else {
		w.metrics.tasksErr.Inc()
		w.logf("task %d failed: %s", t.ID, res.Err)
	}
	if w.cfg.resultDelay != nil {
		if d := w.cfg.resultDelay(t); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
	}
	if err := w.send(&envelope{Type: msgResult, Result: res}); err != nil {
		return false, fmt.Errorf("cluster: send result %d: %w", t.ID, err)
	}
	return false, nil
}

// execute runs one task, never panicking the worker loop on bad input.
func (w *worker) execute(ctx context.Context, t Task) *TaskResult {
	res := &TaskResult{ID: t.ID, Attempt: t.Attempt, Worker: w.cfg.Name}
	if err := w.cfg.Faults.Hit(FPWorkerExecute); err != nil {
		res.Err = err.Error()
		return res
	}
	var err error
	switch t.Kind {
	case TaskSimBuild:
		err = w.runSimBuild(ctx, t, res)
	case TaskScan:
		err = w.runScan(t, res)
	default:
		err = fmt.Errorf("unknown task kind %d", t.Kind)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// simulator returns a cached simulator for the spec; rebuilding the lane
// graph per task would dominate small tasks.
func (w *worker) simulator(spec SimSpec) (*sim.Simulator, error) {
	if w.sim != nil && w.simSpec == spec {
		return w.sim, nil
	}
	s, err := sim.New(spec.Config(), ports.Default())
	if err != nil {
		return nil, err
	}
	w.sim, w.simSpec = s, spec
	return s, nil
}

// runSimBuild regenerates the task's vessel range from the shared seed and
// runs the full pipeline over it. The fleet static index covers the whole
// fleet, exactly as in a single-process synthetic build.
func (w *worker) runSimBuild(ctx context.Context, t Task, res *TaskResult) error {
	s, err := w.simulator(t.Sim)
	if err != nil {
		return err
	}
	if t.VesselLo < 0 || t.VesselHi > len(s.Fleet().Vessels) || t.VesselLo >= t.VesselHi {
		return fmt.Errorf("bad vessel range [%d,%d) of %d", t.VesselLo, t.VesselHi, len(s.Fleet().Vessels))
	}
	dctx := dataflow.NewContextWith(ctx, w.cfg.Parallelism)
	records := dataflow.Generate(dctx, t.VesselHi-t.VesselLo, func(part int) []model.PositionRecord {
		recs, _ := s.VesselTrack(t.VesselLo + part)
		return recs
	})
	return w.runPipeline(records, s.Fleet().StaticIndex(), t, res)
}

// runScan decodes one archive section and streams its positions, bucketed
// by vessel hash, to the buckets' owners — the map side of the archive
// shuffle.
func (w *worker) runScan(t Task, res *TaskResult) error {
	if t.Buckets < 1 {
		return fmt.Errorf("scan task %d without buckets", t.ID)
	}
	r, closer, err := feed.OpenSection(t.Section)
	if err != nil {
		return err
	}
	defer closer.Close()
	buckets := make([][]model.PositionRecord, t.Buckets)
	for {
		it, err := r.NextItem()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if it.Kind == feed.ItemPosition {
			b := dataflow.HashKey(it.Pos.MMSI) % uint64(t.Buckets)
			buckets[b] = append(buckets[b], it.Pos)
		}
	}
	res.Feed = r.Stats()
	res.SectionIndex = t.Section.Index
	statics := r.StaticsAsVesselInfo()
	// The bucket blocks stream straight to their owners (the bucket's
	// statics riding the Last frame); the result reports only the
	// per-bucket record counts. Frames for buckets with no assigned owner
	// yet are parked and re-delivered when the roster arrives.
	counts := make([]int, t.Buckets)
	epoch := w.shuffle.currentEpoch()
	for b, recs := range buckets {
		counts[b] = len(recs)
		frames, err := bucketFrames(w.cfg.Name, epoch, t, b, recs, bucketStatics(statics, b, t.Buckets))
		if err != nil {
			return err
		}
		for _, f := range frames {
			w.shuffle.emit(f)
		}
	}
	res.BucketRecords = counts
	return nil
}

// reduceOwnedBucket folds one owned bucket whose shuffle inputs are all
// here — the overlap path: it runs while other sections are still
// scanning. The result reports under the bucket's stable task ID, so a
// straggling old owner's completion after a reassignment is dropped as a
// duplicate by the coordinator.
func (w *worker) reduceOwnedBucket(bucket int) {
	sh := w.shuffle
	records, statics, as, ok := sh.assemble(bucket)
	if !ok {
		return
	}
	sh.mu.Lock()
	resolution := sh.roster.Resolution
	traceParent := sh.roster.TraceParent
	epoch := sh.roster.Epoch
	sh.mu.Unlock()
	w.logf("reduce bucket %d: %d records, %d vessels (epoch %d)", bucket, len(records), len(statics), epoch)
	w.metrics.reduceInflight.Add(1)
	defer w.metrics.reduceInflight.Add(-1)

	res := &TaskResult{ID: as.TaskID, Attempt: epoch, Worker: w.cfg.Name}
	parent, _ := trace.ParseTraceparent(traceParent)
	span := w.cfg.Tracer.StartRemote("cluster.task.reduce-build", parent)
	span.SetAttr("task", fmt.Sprint(as.TaskID))
	span.SetAttr("bucket", fmt.Sprint(bucket))
	ctx := w.runCtx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := w.cfg.Faults.Hit(FPWorkerExecute); err != nil {
		res.Err = err.Error()
	} else {
		t := Task{ID: as.TaskID, Kind: TaskReduceBuild, Resolution: resolution}
		dctx := dataflow.NewContextWith(trace.ContextWith(ctx, span), w.cfg.Parallelism)
		ds := dataflow.Parallelize(dctx, records, w.cfg.Parallelism*4)
		if err := w.runPipeline(ds, statics, t, res); err != nil {
			res.Err = err.Error()
		}
	}
	if res.Err != "" {
		span.SetAttr("error", res.Err)
		span.MarkError()
		w.metrics.tasksErr.Inc()
		w.logf("reduce bucket %d failed: %s", bucket, res.Err)
	} else {
		w.metrics.tasksOK.Inc()
	}
	span.Finish()
	sh.markResult(bucket, res.Err != "")
	if err := w.send(&envelope{Type: msgResult, Result: res}); err != nil {
		w.logf("send reduce result %d: %v", as.TaskID, err)
	}
}

// runPipeline executes the inventory pipeline and marshals the partial.
// Reduce tasks run with a single pipeline partition: a bucket's summaries
// then fold in one canonical pass regardless of worker parallelism, which
// is what lets the coordinator's ordered merge reproduce a single-process
// build bit for bit (parallelism across buckets, determinism within one).
func (w *worker) runPipeline(records *dataflow.Dataset[model.PositionRecord], static map[uint32]model.VesselInfo, t Task, res *TaskResult) error {
	parts := 0
	if t.Kind == TaskReduceBuild {
		parts = 1
	}
	out, err := pipeline.Run(records, static, w.portIdx, pipeline.Options{
		Resolution:  t.Resolution,
		Partitions:  parts,
		Description: fmt.Sprintf("cluster task %d (%s)", t.ID, t.Kind),
		Obs:         w.cfg.Obs,
		Tracer:      w.cfg.Tracer,
	})
	if err != nil {
		return err
	}
	blob, err := inventory.Marshal(out.Inventory)
	if err != nil {
		return err
	}
	res.Inventory = blob
	res.Stats = out.Stats
	return nil
}
