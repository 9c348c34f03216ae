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
)

// ErrKilled reports that the worker terminated itself through the
// cluster.worker.kill failpoint (fault-injection for re-queue tests).
var ErrKilled = errors.New("cluster: worker killed by failpoint")

// Failpoints evaluated by a worker, armed through the shared
// internal/fault registry (POL_FAILPOINTS or WorkerConfig.Faults). Kill
// makes the worker vanish mid-task after one heartbeat; Execute replaces
// a scan or a bucket reduce with an injected error.
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
	// ShuffleListen is the address the worker's peer-shuffle listener
	// binds (default ":0" — any interface, ephemeral port). Peers stream
	// bucket frames here.
	ShuffleListen string
	// ShuffleAdvertise overrides the shuffle address announced to the
	// coordinator (default: the listener's port joined with the local IP
	// of the coordinator connection — right whenever peers can route the
	// same way the coordinator is reached).
	ShuffleAdvertise string
	// Faults is the failpoint registry consulted at FPWorkerKill and
	// FPWorkerExecute (default: the process-wide registry armed from
	// POL_FAILPOINTS).
	Faults *fault.Registry
	// Obs receives worker metrics (default obs.Default()).
	Obs *obs.Registry
	// Tracer, when non-nil, records one execution span per scan and per
	// bucket reduce, joining the coordinator's job trace through the
	// traceparent in the task or roster (without one they start fresh
	// worker-local traces). Pipeline stage spans nest under it.
	Tracer *trace.Tracer
	// Logf, when non-nil, receives worker progress lines.
	Logf func(format string, args ...any)

	// resultDelay, when non-nil, delays each scan result send while the
	// task keeps heartbeating (test hook: shuffled completion order, or a
	// result held back until the test lets it go).
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
	if c.ShuffleListen == "" {
		c.ShuffleListen = ":0"
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
	if err := w.send(&envelope{Type: msgHello, Hello: &helloMsg{Name: cfg.Name, ShuffleAddr: addr}}); err != nil {
		return err
	}
	w.logf("connected to %s as %s (shuffle %s)", cfg.Coordinator, cfg.Name, addr)

	frames := make(chan *envelope, 16)
	readErr := make(chan error, 1)
	go func() {
		for {
			env, n, err := readFrame[envelope](conn, maxFrameBytes)
			w.metrics.bytesIn.Add(int64(n))
			if err != nil {
				readErr <- err
				cancel()
				close(frames)
				return
			}
			frames <- env
		}
	}()

	// A result that cannot be written is judged against the read side: a
	// job ends with its last bucket, which can be while this worker still
	// holds a scan or its result, and then the shutdown frame or the clean
	// close is already in frames. unsent only stops further tasks.
	var unsent error
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
				return fmt.Errorf("cluster: connection lost: %w", errors.Join(unsent, err))
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
				if env.Task == nil || unsent != nil {
					continue
				}
				var killed bool
				if killed, unsent = w.handleTask(runCtx, *env.Task); killed {
					return ErrKilled
				}
			}
		}
	}
}

// dialRetryFor is how long a worker keeps re-dialing a coordinator that is
// not listening yet — workers may start first.
const dialRetryFor = 10 * time.Second

// dial connects with retries, tolerating a coordinator that starts late.
func (w *worker) dial(ctx context.Context) (net.Conn, error) {
	deadline := time.Now().Add(dialRetryFor)
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
	n, err := writeFrame(w.conn, env)
	w.metrics.bytesOut.Add(int64(n))
	return err
}

// handleTask executes one task and reports its result; killed reports that
// the kill failpoint fired and the worker must exit, unsent that the result
// could not be written.
func (w *worker) handleTask(ctx context.Context, t Task) (killed bool, unsent error) {
	w.logf("task %d (scan) attempt %d", t.ID, t.Attempt)
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
	span := w.cfg.Tracer.StartRemote("cluster.task.scan", parent)
	span.SetAttr("task", fmt.Sprint(t.ID))
	span.SetAttr("attempt", fmt.Sprint(t.Attempt))
	if span != nil {
		w.logf("task %d trace %s", t.ID, span.Trace)
	}
	res := w.execute(t)
	if res.Err != "" {
		span.SetAttr("error", res.Err)
		span.MarkError()
	}
	span.Finish()
	if w.cfg.resultDelay != nil {
		if d := w.cfg.resultDelay(t); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
	}
	close(hbStop)
	hbWG.Wait()
	if res.Err == "" {
		w.metrics.tasksOK.Inc()
	} else {
		w.metrics.tasksErr.Inc()
		w.logf("task %d failed: %s", t.ID, res.Err)
	}
	if err := w.send(&envelope{Type: msgResult, Result: res}); err != nil {
		return false, fmt.Errorf("cluster: send result %d: %w", t.ID, err)
	}
	return false, nil
}

// execute runs one scan: it decodes the task's archive section and streams
// its positions, bucketed by vessel hash, to the buckets' owners — the map
// side of the shuffle. A failure is reported in the result, not returned.
func (w *worker) execute(t Task) *TaskResult {
	res := &TaskResult{ID: t.ID}
	err := w.cfg.Faults.Hit(FPWorkerExecute)
	if err == nil {
		res.Feed, err = w.runScan(t)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

func (w *worker) runScan(t Task) (feed.ReadStats, error) {
	if t.Buckets < 1 {
		return feed.ReadStats{}, fmt.Errorf("scan task %d without buckets", t.ID)
	}
	r, closer, err := feed.OpenSection(t.Section)
	if err != nil {
		return feed.ReadStats{}, err
	}
	defer closer.Close()
	buckets := make([][]model.PositionRecord, t.Buckets)
	for {
		it, err := r.NextItem()
		if err == io.EOF {
			break
		}
		if err != nil {
			return feed.ReadStats{}, err
		}
		if it.Kind == feed.ItemPosition {
			b := bucketOf(it.Pos.MMSI, t.Buckets)
			buckets[b] = append(buckets[b], it.Pos)
		}
	}
	statics := r.StaticsAsVesselInfo()
	// The bucket blocks stream straight to their owners (the bucket's
	// statics riding the Last frame). Frames for buckets with no assigned
	// owner yet are parked and re-delivered when the roster arrives.
	for b, recs := range buckets {
		for _, f := range bucketFrames(t, b, recs, bucketStatics(statics, b, t.Buckets)) {
			w.shuffle.emit(f)
		}
	}
	return r.Stats(), nil
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

	res := &TaskResult{ID: as.TaskID}
	parent, _ := trace.ParseTraceparent(traceParent)
	span := w.cfg.Tracer.StartRemote("cluster.task.reduce-build", parent)
	span.SetAttr("task", fmt.Sprint(as.TaskID))
	span.SetAttr("bucket", fmt.Sprint(bucket))
	ctx := w.runCtx
	if ctx == nil {
		ctx = context.Background()
	}
	err := w.cfg.Faults.Hit(FPWorkerExecute)
	if err == nil {
		dctx := dataflow.NewContextWith(trace.ContextWith(ctx, span), w.cfg.Parallelism)
		ds := dataflow.Parallelize(dctx, records, w.cfg.Parallelism*4)
		err = w.runPipeline(ds, statics, resolution, res)
	}
	if err != nil {
		res.Err = err.Error()
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
	if err = w.send(&envelope{Type: msgResult, Result: res}); err != nil {
		w.logf("send reduce result %d: %v", as.TaskID, err)
	}
	sh.markResult(bucket, res.Err != "", err == nil)
}

// runPipeline executes the inventory pipeline over one vessel-complete
// bucket and marshals the partial. It runs with a single pipeline
// partition: a bucket's summaries then fold in one canonical pass
// regardless of worker parallelism, which is what lets the coordinator's
// ordered merge reproduce a single-process build bit for bit (parallelism
// across buckets, determinism within one).
func (w *worker) runPipeline(records *dataflow.Dataset[model.PositionRecord], static map[uint32]model.VesselInfo, resolution int, res *TaskResult) error {
	out, err := pipeline.Run(records, static, w.portIdx, pipeline.Options{
		Resolution:  resolution,
		Partitions:  1,
		Description: fmt.Sprintf("cluster task %d (reduce-build)", res.ID),
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
