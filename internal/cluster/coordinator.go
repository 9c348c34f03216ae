package cluster

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/pipeline"
)

// Config parameterizes a coordinator.
type Config struct {
	// Addr is the TCP listen address (e.g. ":7700", "127.0.0.1:0").
	Addr string
	// MinWorkers defers task dispatch until this many workers have joined
	// (default 1). Workers joining later still receive work.
	MinWorkers int
	// TaskTimeout is the liveness deadline per running task: a task whose
	// worker neither heartbeats nor completes within it is re-queued as a
	// straggler (default 30s).
	TaskTimeout time.Duration
	// MaxRetries bounds re-executions per task beyond the first attempt
	// (default 3); exhausting it fails the job.
	MaxRetries int
	// RetryBackoff delays attempt n+1 of a task by n×RetryBackoff
	// (default 250ms).
	RetryBackoff time.Duration
	// Obs receives cluster metrics (default obs.Default()).
	Obs *obs.Registry
	// Tracer, when non-nil, records the job as a trace — a cluster.job
	// root (joining any ambient span on Run's context), the shuffle phase
	// as its child, and a traceparent stamped into every Task and roster
	// so worker execution spans land in the same distributed trace.
	Tracer *trace.Tracer
	// Logf, when non-nil, receives coordinator progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MinWorkers < 1 {
		c.MinWorkers = 1
	}
	if c.TaskTimeout <= 0 {
		c.TaskTimeout = 30 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	return c
}

// Job describes one distributed build. Archive is required: an archive is
// the one input a distributed build reads.
type Job struct {
	Resolution  int
	Description string
	Archive     *ArchiveJob
}

// ArchiveJob names a timestamped-NMEA archive and the job's geometry: scan
// map tasks over byte-range sections, reduces over vessel-hash buckets.
// Path must be readable by every worker (shared or replicated storage — on
// a loopback cluster, the same filesystem).
type ArchiveJob struct {
	Path string
	// MapTasks is the section count (default 4 per expected worker).
	MapTasks int
	// ReduceTasks is the vessel-hash bucket count (default 2 per worker).
	ReduceTasks int
}

// BuildResult is the reduced output of a distributed build.
type BuildResult struct {
	Inventory *inventory.Inventory
	Stats     pipeline.Stats
	Feed      feed.ReadStats
	// Tasks, Retries and Duplicates count scheduling outcomes (scans and
	// bucket reduces alike). Reassigned counts shuffle-bucket ownership
	// changes after an owner died or stalled.
	Tasks, Retries, Duplicates, Reassigned int
}

// Coordinator schedules a distributed build over connected workers.
type Coordinator struct {
	cfg     Config
	ln      net.Listener
	metrics *coordMetrics
	events  chan event
	done    chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // every accepted conn, until its reader exits
}

// event is one scheduler input from a worker connection.
type event struct {
	kind eventKind
	rem  *remote
	env  *envelope
	err  error
}

type eventKind uint8

const (
	evJoin eventKind = iota + 1
	evFrame
	evGone
)

// remote is the coordinator's view of one worker connection.
type remote struct {
	name        string
	conn        net.Conn
	shuffleAddr string     // peer-shuffle listener; "" means cannot own buckets
	cur         *taskState // task currently assigned, nil when idle
	strikes     int        // consecutive straggler timeouts; cleared on completion
}

// strikeLimit benches a worker from new assignments after this many
// consecutive straggler timeouts, so a black-holing worker cannot keep
// reclaiming the task it just lost. The bench lifts when every live worker
// is benched (otherwise a lone slow worker would deadlock the job) or when
// the worker completes anything.
const strikeLimit = 2

// taskState tracks one task through attempts and retries.
type taskState struct {
	task      Task
	attempts  int       // executions started
	notBefore time.Time // retry backoff gate
	deadline  time.Time // liveness deadline while running
	runner    *remote   // nil unless running
	holder    *remote   // worker whose retained outputs back this completed scan
	started   time.Time
	done      bool
}

// NewCoordinator starts listening on cfg.Addr. Workers may dial as soon as
// this returns; they idle until Run dispatches a job.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", cfg.Addr, err)
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		metrics: newCoordMetrics(cfg.Obs),
		events:  make(chan event, 64),
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
	go c.acceptLoop()
	return c, nil
}

// Addr returns the bound listen address (useful with ":0").
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Close stops the listener. Run closes it implicitly when it returns.
func (c *Coordinator) Close() error { return c.ln.Close() }

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// post delivers a connection event to the scheduler unless the job is over.
func (c *Coordinator) post(ev event) {
	select {
	case c.events <- ev:
	case <-c.done:
	}
}

// acceptLoop hands fresh connections to per-connection handshake readers.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.connMu.Lock()
		c.conns[conn] = struct{}{}
		c.connMu.Unlock()
		go c.handshake(conn)
	}
}

// closeConns force-closes every accepted connection. Run calls it on the
// way out so workers — and through them their peer shuffle streams — tear
// down even when the job aborted before a worker was enrolled or told to
// shut down.
func (c *Coordinator) closeConns() {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	for conn := range c.conns {
		conn.Close()
	}
}

// handshake reads the hello frame, then streams worker frames as events.
func (c *Coordinator) handshake(conn net.Conn) {
	defer func() {
		conn.Close()
		c.connMu.Lock()
		delete(c.conns, conn)
		c.connMu.Unlock()
	}()
	conn.SetReadDeadline(time.Now().Add(writeTimeout))
	env, n, err := readFrame[envelope](conn, maxFrameBytes)
	c.metrics.bytesIn.Add(int64(n))
	if err != nil || env.Type != msgHello || env.Hello == nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	rem := &remote{name: env.Hello.Name, conn: conn, shuffleAddr: env.Hello.ShuffleAddr}
	c.post(event{kind: evJoin, rem: rem})
	for {
		env, n, err := readFrame[envelope](conn, maxFrameBytes)
		c.metrics.bytesIn.Add(int64(n))
		if err != nil {
			c.post(event{kind: evGone, rem: rem, err: err})
			return
		}
		c.post(event{kind: evFrame, rem: rem, env: env})
	}
}

// send writes one frame to a worker under the write deadline; on failure
// the connection is closed and the reader goroutine reports evGone.
func (c *Coordinator) send(rem *remote, env *envelope) bool {
	rem.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := writeFrame(rem.conn, env)
	rem.conn.SetWriteDeadline(time.Time{})
	c.metrics.bytesOut.Add(int64(n))
	if err != nil {
		rem.conn.Close()
		return false
	}
	return true
}

// Run executes one job to completion and returns the reduced result. It
// consumes the coordinator: the listener is closed and every worker is told
// to shut down when it returns.
func (c *Coordinator) Run(ctx context.Context, job Job) (*BuildResult, error) {
	defer c.closeConns()
	defer c.ln.Close()
	defer close(c.done)
	if job.Archive == nil {
		return nil, errors.New("cluster: job needs an Archive")
	}
	if job.Resolution <= 0 {
		job.Resolution = 6
	}
	start := time.Now()
	// Join any ambient trace on ctx (polbuild's client root); otherwise
	// the job starts a fresh one. Workers join via Task.TraceParent.
	jobSpan := c.cfg.Tracer.StartChild(trace.FromContext(ctx), "cluster.job")
	defer jobSpan.Finish()
	final := inventory.New(inventory.BuildInfo{
		Resolution:  job.Resolution,
		BuiltUnix:   time.Now().Unix(),
		Description: job.Description,
	})

	res := &BuildResult{}
	partials, err := c.schedule(ctx, job, jobSpan, res)
	if err != nil {
		jobSpan.SetError(err)
		return nil, err
	}

	// Partial inventories are held as they arrive but folded only after the
	// job completes, in ascending task ID. Order-sensitive summary
	// statistics (Welford moments, circular means, t-digests) make
	// arrival-order merging nondeterministic under scheduling races; the
	// ordered merge pins the distributed result to one canonical fold —
	// bucket 0, bucket 1, … — no matter which worker finished first, which
	// is half of what makes distributed builds bit-exact with local ones
	// (the other half is the single-partition reduce pipeline). MergeImage
	// decodes each image straight into the result (shard-parallel, a fixed
	// order within each shard) and adds its RawRecords/UsedRecords, so the
	// reduced inventory reports the same totals a single-process build would.
	for _, id := range slices.Sorted(maps.Keys(partials)) {
		if err := final.MergeImage(partials[id]); err != nil {
			return nil, fmt.Errorf("cluster: task %d partial inventory: %w", id, err)
		}
	}

	res.Inventory = final
	res.Stats.Groups = int64(final.Len())
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// bucketState tracks one shuffle bucket through ownership changes. The
// stable id is the idempotency key its reduce results report under, so a
// straggling old owner's completion after a reassignment dedupes.
type bucketState struct {
	bucket   int
	id       uint64
	owner    *remote
	attempts int // ownership grants (first assignment counts)
	granted  time.Time
	deadline time.Time // extended by the owner's bucket heartbeats
	done     bool
}

// schedule is the one scheduler loop. It drives the job as one overlapped
// phase: scan tasks are assigned to idle workers, their bucket outputs
// stream worker-to-worker per the roster, and bucket reduce results arrive
// here while scans are still running; it returns each bucket's partial
// inventory image by task ID. The coordinator only ever moves control
// traffic — ownership rosters, scan tasks, results — never shuffled
// records.
//
// Task lifecycle: heartbeats extend a running task's deadline, a missed
// deadline or a lost worker re-queues it with bounded, backed-off retries,
// and idempotent task IDs make a second completion a no-op.
//
// Fault handling: a dead worker's running scan re-queues as usual; its
// *completed* scans re-queue too when buckets are still outstanding,
// because the retained map outputs a reassigned owner would need died
// with it (re-execution is deterministic, receivers dedupe frames). Owned
// buckets of a dead or stalled owner are re-granted round-robin under a
// bumped roster epoch; live scan holders then re-stream their retained
// frames to the new owner.
func (c *Coordinator) schedule(ctx context.Context, job Job, jobSpan *trace.Span, res *BuildResult) (partials map[uint64][]byte, err error) {
	mapTasks, reduceTasks := job.Archive.MapTasks, job.Archive.ReduceTasks
	if mapTasks <= 0 {
		mapTasks = 4 * c.cfg.MinWorkers
	}
	if reduceTasks <= 0 {
		reduceTasks = 2 * c.cfg.MinWorkers
	}
	sections, err := feed.Split(job.Archive.Path, mapTasks)
	if err != nil {
		return nil, err
	}
	traceParent := jobSpan.TraceParent()
	var nextID uint64
	scans := make(map[uint64]*taskState, len(sections))
	var pending []*taskState
	for _, sec := range sections {
		nextID++
		ts := &taskState{task: Task{
			ID:          nextID,
			TraceParent: traceParent,
			Section:     sec,
			Buckets:     reduceTasks,
		}}
		scans[ts.task.ID] = ts
		pending = append(pending, ts)
	}
	buckets := make([]*bucketState, reduceTasks)
	bucketByID := make(map[uint64]*bucketState, reduceTasks)
	for b := range buckets {
		nextID++
		bs := &bucketState{bucket: b, id: nextID}
		buckets[b] = bs
		bucketByID[bs.id] = bs
	}
	res.Tasks = len(sections) + reduceTasks
	scansLeft, bucketsLeft := len(sections), reduceTasks
	feedCounted := make(map[uint64]bool, len(sections))
	partials = make(map[uint64][]byte, reduceTasks)

	workers := make(map[*remote]bool)
	started := false // MinWorkers reached once; dispatch stays open
	defer func() {
		// Tell every connected worker the job is over.
		for rem := range workers {
			c.send(rem, &envelope{Type: msgShutdown})
			rem.conn.Close()
		}
		c.metrics.workers.Set(0)
	}()

	c.logf("phase peer-shuffle: %d scans, %d buckets", len(sections), reduceTasks)
	span := c.cfg.Tracer.StartChild(jobSpan, "cluster.phase.peer-shuffle")
	span.SetAttr("scans", fmt.Sprint(len(sections)))
	span.SetAttr("buckets", fmt.Sprint(reduceTasks))
	defer func() {
		span.SetError(err)
		span.Finish()
	}()

	// Roster management. Epoch 0 means "not broadcast yet"; every
	// ownership change bumps it, and workers ignore stale epochs.
	epoch, rr := 0, 0
	var roster *rosterMsg
	broadcast := func() {
		roster = &rosterMsg{
			Epoch:       epoch,
			Sections:    len(sections),
			Resolution:  job.Resolution,
			TraceParent: traceParent,
		}
		for _, bs := range buckets {
			as := BucketAssign{Bucket: bs.bucket, TaskID: bs.id}
			if bs.owner != nil {
				as.Owner, as.Addr = bs.owner.name, bs.owner.shuffleAddr
			}
			roster.Buckets = append(roster.Buckets, as)
		}
		for rem := range workers {
			c.send(rem, &envelope{Type: msgRoster, Roster: roster})
		}
		c.logf("phase peer-shuffle: roster epoch %d broadcast", epoch)
	}
	// assignBuckets grants every ownerless bucket round-robin over the
	// workers that can own one, in name order.
	assignBuckets := func() bool {
		var el []*remote
		for rem := range workers {
			if rem.shuffleAddr != "" {
				el = append(el, rem)
			}
		}
		if len(el) == 0 {
			return false
		}
		sort.Slice(el, func(i, j int) bool { return el[i].name < el[j].name })
		changed := false
		now := time.Now()
		for _, bs := range buckets {
			if bs.done || bs.owner != nil {
				continue
			}
			bs.owner = el[rr%len(el)]
			rr++
			bs.attempts++
			bs.granted = now
			bs.deadline = now.Add(c.cfg.TaskTimeout)
			c.metrics.assigned.Inc()
			changed = true
		}
		return changed
	}
	// benchBucket drops a bucket's owner so the next assignBuckets
	// re-grants it; bounded like task retries.
	benchBucket := func(bs *bucketState, why string) error {
		bs.owner = nil
		if bs.attempts > c.cfg.MaxRetries {
			c.metrics.failed.Inc()
			return fmt.Errorf("cluster: bucket %d (task %d) failed after %d owners: %s",
				bs.bucket, bs.id, bs.attempts, why)
		}
		c.metrics.retried.Inc()
		c.metrics.reassigned.Inc()
		res.Retries++
		res.Reassigned++
		span.AddEvent("reassign",
			trace.Attr{Key: "bucket", Value: fmt.Sprint(bs.bucket)},
			trace.Attr{Key: "why", Value: why})
		c.logf("phase peer-shuffle: bucket %d re-owned (%s)", bs.bucket, why)
		return nil
	}
	// requeue puts a scan back on the pending list behind its retry
	// backoff; exhausting MaxRetries fails the job.
	requeue := func(ts *taskState, why string) error {
		ts.runner = nil
		if ts.attempts > c.cfg.MaxRetries {
			c.metrics.failed.Inc()
			return fmt.Errorf("cluster: task %d (scan) failed after %d attempts: %s",
				ts.task.ID, ts.attempts, why)
		}
		c.metrics.retried.Inc()
		res.Retries++
		span.AddEvent("requeue",
			trace.Attr{Key: "task", Value: fmt.Sprint(ts.task.ID)},
			trace.Attr{Key: "why", Value: why})
		ts.notBefore = time.Now().Add(time.Duration(ts.attempts) * c.cfg.RetryBackoff)
		pending = append(pending, ts)
		c.logf("phase peer-shuffle: task %d re-queued (%s), attempt %d next", ts.task.ID, why, ts.attempts+1)
		return nil
	}
	assignScans := func() {
		allBenched := true
		for rem := range workers {
			if rem.strikes < strikeLimit {
				allBenched = false
				break
			}
		}
		now := time.Now()
		for rem := range workers {
			if rem.cur != nil || (rem.strikes >= strikeLimit && !allBenched) {
				continue
			}
			best := -1
			for i := 0; i < len(pending); i++ {
				if pending[i].done {
					// Completed by a straggler after being re-queued.
					pending = append(pending[:i], pending[i+1:]...)
					i--
					continue
				}
				if !pending[i].notBefore.After(now) {
					best = i
					break
				}
			}
			if best < 0 {
				return
			}
			ts := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			ts.attempts++
			ts.task.Attempt = ts.attempts
			ts.runner = rem
			ts.deadline = now.Add(c.cfg.TaskTimeout)
			ts.started = now
			rem.cur = ts
			c.metrics.assigned.Inc()
			// On send failure the reader goroutine delivers evGone, which
			// re-queues the task with consistent attempt accounting.
			c.send(rem, &envelope{Type: msgTask, Task: &ts.task})
		}
	}

	tick := c.cfg.TaskTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	for {
		if !started && len(workers) >= c.cfg.MinWorkers {
			started = true
		}
		if started {
			// Grant ownership before scans so the roster usually beats
			// the first map outputs to every worker (frames that do race
			// ahead are parked and re-delivered on roster install).
			if assignBuckets() {
				epoch++
				broadcast()
			}
			assignScans()
		}
		// The last bucket can reduce before the last scan's result frame
		// arrives (its output is already shuffled); the result carries the
		// section's read statistics, so the job waits for one per section.
		if bucketsLeft == 0 && len(feedCounted) == len(sections) {
			c.logf("phase peer-shuffle: complete (%d reassignments)", res.Reassigned)
			return partials, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: phase peer-shuffle aborted: %w", ctx.Err())
		case <-ticker.C:
			now := time.Now()
			for _, ts := range scans {
				if ts.runner != nil && now.After(ts.deadline) {
					// Drop the claim; the straggler may still finish, in
					// which case whichever completion arrives first wins
					// and the other is dropped as a duplicate.
					ts.runner.strikes++
					ts.runner.cur = nil
					if err := requeue(ts, "straggler timeout"); err != nil {
						return nil, err
					}
				}
			}
			for _, bs := range buckets {
				if bs.owner != nil && !bs.done && now.After(bs.deadline) {
					bs.owner.strikes++
					if err := benchBucket(bs, "owner stalled"); err != nil {
						return nil, err
					}
				}
			}
		case ev := <-c.events:
			switch ev.kind {
			case evJoin:
				workers[ev.rem] = true
				c.metrics.workers.Set(float64(len(workers)))
				c.logf("worker %s joined (%d connected)", ev.rem.name, len(workers))
				if roster != nil {
					c.send(ev.rem, &envelope{Type: msgRoster, Roster: roster})
				}
			case evGone:
				if !workers[ev.rem] {
					break
				}
				delete(workers, ev.rem)
				c.metrics.workers.Set(float64(len(workers)))
				c.logf("worker %s gone: %v", ev.rem.name, ev.err)
				if ts := ev.rem.cur; ts != nil && ts.runner == ev.rem {
					if err := requeue(ts, "worker lost"); err != nil {
						return nil, err
					}
				}
				// Completed scans whose retained outputs died with the
				// worker: re-queue so a reassigned owner can still be fed.
				// Receivers that already hold the frames dedupe the re-run.
				for _, ts := range scans {
					if ts.done && ts.holder == ev.rem {
						ts.done, ts.holder = false, nil
						scansLeft++
						if err := requeue(ts, "scan holder lost"); err != nil {
							return nil, err
						}
					}
				}
				for _, bs := range buckets {
					if bs.owner == ev.rem && !bs.done {
						if err := benchBucket(bs, "owner lost"); err != nil {
							return nil, err
						}
					}
				}
			case evFrame:
				switch ev.env.Type {
				case msgHeartbeat:
					c.metrics.heartbeats.Inc()
					hb := ev.env.Heartbeat
					if hb == nil {
						break
					}
					if ts := scans[hb.TaskID]; ts != nil && ts.runner == ev.rem {
						ts.deadline = time.Now().Add(c.cfg.TaskTimeout)
					} else if bs := bucketByID[hb.TaskID]; bs != nil && bs.owner == ev.rem {
						bs.deadline = time.Now().Add(c.cfg.TaskTimeout)
					}
				case msgResult:
					r := ev.env.Result
					if r == nil {
						break
					}
					if ev.rem.cur != nil && ev.rem.cur.task.ID == r.ID {
						ev.rem.cur = nil
					}
					ev.rem.strikes = 0
					ts, bs := scans[r.ID], bucketByID[r.ID]
					// Idempotent IDs make a second completion a no-op. So is
					// a failure from a worker that no longer holds the task:
					// it must not be charged to whoever holds it now. A late
					// success is still taken — the work is done, whoever
					// did it.
					stale := r.Err != "" && (ts != nil && ts.runner != ev.rem || bs != nil && bs.owner != ev.rem)
					switch {
					case ts == nil && bs == nil, ts != nil && ts.done, bs != nil && bs.done, stale:
						c.metrics.duplicate.Inc()
						res.Duplicates++
					case ts != nil && r.Err != "":
						if err := requeue(ts, "worker error: "+r.Err); err != nil {
							return nil, err
						}
					case ts != nil:
						ts.done, ts.runner, ts.holder = true, nil, ev.rem
						scansLeft--
						c.metrics.completed.Inc()
						c.metrics.taskSeconds.Observe(time.Since(ts.started).Seconds())
						if !feedCounted[r.ID] {
							feedCounted[r.ID] = true
							res.Feed.Add(r.Feed)
						}
					case r.Err != "":
						// The reduce itself failed on the owner: rotate
						// ownership; the next roster epoch lets the worker
						// (or a peer) retry from the shuffled inputs.
						if err := benchBucket(bs, "reduce error: "+r.Err); err != nil {
							return nil, err
						}
					default:
						bs.done = true
						bucketsLeft--
						c.metrics.completed.Inc()
						c.metrics.taskSeconds.Observe(time.Since(bs.granted).Seconds())
						if scansLeft > 0 {
							// The overlap the direct shuffle buys: this bucket
							// reduced while sections were still scanning.
							c.metrics.overlapReduces.Inc()
						}
						partials[r.ID] = r.Inventory
						addStats(&res.Stats, r.Stats)
					}
				}
			}
		}
	}
}

// addStats sums pipeline flow statistics across partial builds.
func addStats(dst *pipeline.Stats, s pipeline.Stats) {
	dst.RawRecords += s.RawRecords
	dst.ValidRecords += s.ValidRecords
	dst.FeasibleRecords += s.FeasibleRecords
	dst.CommercialOnly += s.CommercialOnly
	dst.TripRecords += s.TripRecords
	dst.Trips += s.Trips
	dst.Observations += s.Observations
}
