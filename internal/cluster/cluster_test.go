package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// testFleet is the simulated fleet whose archive every test builds from
// (archiveFixture, shuffle_test.go): small enough for fast tests, large
// enough that sections and buckets exercise real merges.
var testFleet = sim.Config{Vessels: 8, Days: 3, Seed: 11}

const testRes = 6

// startWorker launches RunWorker in a goroutine with fast test timings.
func startWorker(t *testing.T, addr string, mod func(*WorkerConfig)) chan error {
	t.Helper()
	cfg := WorkerConfig{
		Coordinator:    addr,
		Parallelism:    2,
		HeartbeatEvery: 25 * time.Millisecond,
		Obs:            obs.NewRegistry(),
	}
	if mod != nil {
		mod(&cfg)
	}
	ch := make(chan error, 1)
	go func() { ch <- RunWorker(context.Background(), cfg) }()
	return ch
}

func newTestCoordinator(t *testing.T, mod func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Addr:         "127.0.0.1:0",
		TaskTimeout:  5 * time.Second,
		RetryBackoff: 10 * time.Millisecond,
		Obs:          obs.NewRegistry(),
		Logf:         t.Logf,
	}
	if mod != nil {
		mod(&cfg)
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

func assertEqualBuild(t *testing.T, res *BuildResult, local *pipeline.Result) {
	t.Helper()
	if !inventory.Equal(res.Inventory, local.Inventory) {
		t.Fatalf("distributed inventory differs from local: %d vs %d groups",
			res.Inventory.Len(), local.Inventory.Len())
	}
	di, li := res.Inventory.Info(), local.Inventory.Info()
	if di.RawRecords != li.RawRecords || di.UsedRecords != li.UsedRecords {
		t.Fatalf("build info records: distributed raw=%d used=%d, local raw=%d used=%d",
			di.RawRecords, di.UsedRecords, li.RawRecords, li.UsedRecords)
	}
	if res.Stats.RawRecords != local.Stats.RawRecords ||
		res.Stats.Trips != local.Stats.Trips ||
		res.Stats.Observations != local.Stats.Observations {
		t.Fatalf("stats: distributed %+v, local %+v", res.Stats, local.Stats)
	}
}

// TestDistributedEqualsLocalJittered is the core equivalence property:
// for 1, 2 and 4 workers, with per-task completion jitter shuffling result
// order, the distributed build equals the single-process build exactly.
func TestDistributedEqualsLocalJittered(t *testing.T) {
	path, local := archiveFixture(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			co := newTestCoordinator(t, func(c *Config) { c.MinWorkers = n })
			addr := co.Addr().String()
			var chans []chan error
			for i := 0; i < n; i++ {
				i := i
				chans = append(chans, startWorker(t, addr, func(c *WorkerConfig) {
					c.Name = fmt.Sprintf("w%d", i)
					// Deterministic per-(task, worker) jitter shuffles the
					// order results arrive in.
					c.resultDelay = func(tk Task) time.Duration {
						return time.Duration((tk.ID*7+uint64(i)*13)%4) * 5 * time.Millisecond
					}
				}))
			}
			res, err := co.Run(context.Background(), Job{
				Resolution: testRes,
				Archive:    &ArchiveJob{Path: path, MapTasks: 5, ReduceTasks: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			assertEqualBuild(t, res, local)
			if res.Tasks != 5+3 {
				t.Errorf("scheduled %d tasks, want 8 (5 scan + 3 reduce)", res.Tasks)
			}
			// A result delayed past the last bucket's reduce still counts.
			if res.Feed != archFeed {
				t.Errorf("summed scan statistics %+v, sequential read %+v", res.Feed, archFeed)
			}
			for i, ch := range chans {
				if err := <-ch; err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}
		})
	}
}

// TestWorkerExitsCleanAfterJobEnd: a job is over when its last bucket is,
// which can be while a worker still holds a scan — a duplicate, a re-queued
// one, or only its result frame (the output is already shuffled). The
// coordinator then sends the shutdown and closes; a worker whose result
// write hits the dead socket has run a successful job and must return nil,
// not "send result: broken pipe". The test is the coordinator: it sends
// one scan, and once the worker holds the result, the shutdown and a reset.
func TestWorkerExitsCleanAfterJobEnd(t *testing.T) {
	path, _ := archiveFixture(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reg := obs.NewRegistry()
	holding := make(chan struct{})
	w := startWorker(t, ln.Addr().String(), func(c *WorkerConfig) {
		c.Obs = reg
		// Held until the connection dies: handleTask stops waiting then.
		c.resultDelay = func(Task) time.Duration { close(holding); return time.Minute }
	})
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if env, _, err := readFrame[envelope](conn, maxFrameBytes); err != nil || env.Type != msgHello {
		t.Fatalf("hello: %+v, %v", env, err)
	}
	// No roster: the scan's frames park, which is all this worker needs.
	scan := Task{ID: 1, Attempt: 1, Section: feed.Section{Path: path, End: 1}, Buckets: 1}
	if _, err := writeFrame(conn, &envelope{Type: msgTask, Task: &scan}); err != nil {
		t.Fatal(err)
	}
	<-holding
	in := reg.Counter(MetricBytes, obs.Labels{"dir": "in"})
	before := in.Value()
	if _, err := writeFrame(conn, &envelope{Type: msgShutdown}); err != nil {
		t.Fatal(err)
	}
	for in.Value() == before { // the worker has read the shutdown frame
		time.Sleep(time.Millisecond)
	}
	conn.(*net.TCPConn).SetLinger(0) // close resets: the worker's next write fails
	conn.Close()
	if err := <-w; err != nil {
		t.Errorf("worker exit after the job's shutdown: %v", err)
	}
}

// TestDistributedWorkerKill injects a failpoint that kills one of two
// workers upon its first task: the dead worker's task must be re-queued and
// the build must still equal the single-process result.
func TestDistributedWorkerKill(t *testing.T) {
	path, local := archiveFixture(t)
	co := newTestCoordinator(t, func(c *Config) { c.MinWorkers = 2 })
	addr := co.Addr().String()
	survivor := startWorker(t, addr, func(c *WorkerConfig) { c.Name = "survivor" })
	victim := startWorker(t, addr, func(c *WorkerConfig) {
		c.Name = "victim"
		c.Faults = fault.New()
		if err := c.Faults.Enable(FPWorkerKill, "error*1"); err != nil {
			t.Fatal(err)
		}
	})
	res, err := co.Run(context.Background(), Job{
		Resolution: testRes,
		Archive:    &ArchiveJob{Path: path, MapTasks: 6, ReduceTasks: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualBuild(t, res, local)
	if res.Retries < 1 {
		t.Errorf("killed worker's task was not re-queued (retries=%d)", res.Retries)
	}
	if err := <-victim; !errors.Is(err, ErrKilled) {
		t.Errorf("victim exit: %v, want ErrKilled", err)
	}
	if err := <-survivor; err != nil {
		t.Errorf("survivor exit: %v", err)
	}
}

// TestInjectedFailureRecovers covers bounded retries: a worker that fails
// its first execution recovers on retry; a worker that always fails
// exhausts MaxRetries and fails the job.
func TestInjectedFailureRecovers(t *testing.T) {
	path, local := archiveFixture(t)
	job := Job{Resolution: testRes, Archive: &ArchiveJob{Path: path, MapTasks: 3, ReduceTasks: 2}}
	co := newTestCoordinator(t, nil)
	w := startWorker(t, co.Addr().String(), func(c *WorkerConfig) {
		c.Faults = fault.New()
		if err := c.Faults.Enable(FPWorkerExecute, "error*1"); err != nil {
			t.Fatal(err)
		}
	})
	res, err := co.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualBuild(t, res, local)
	if res.Retries < 1 {
		t.Errorf("injected failure not retried (retries=%d)", res.Retries)
	}
	if err := <-w; err != nil {
		t.Errorf("worker exit: %v", err)
	}

	co = newTestCoordinator(t, func(c *Config) { c.MaxRetries = 2 })
	w = startWorker(t, co.Addr().String(), func(c *WorkerConfig) {
		c.Faults = fault.New()
		if err := c.Faults.Enable(FPWorkerExecute, "error"); err != nil {
			t.Fatal(err)
		}
	})
	_, err = co.Run(context.Background(), job)
	if err == nil || !strings.Contains(err.Error(), "failed after") {
		t.Fatalf("always-failing worker: err = %v, want retry exhaustion", err)
	}
	<-w
}

// testClient speaks the raw wire protocol, giving tests exact control over
// frame timing that a real worker does not. It announces no shuffle
// address, so it is handed scans but never owns a bucket.
type testClient struct {
	t    *testing.T
	conn net.Conn
}

func dialClient(t *testing.T, addr, name string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &testClient{t: t, conn: conn}
	c.write(&envelope{Type: msgHello, Hello: &helloMsg{Name: name}})
	return c
}

func (c *testClient) write(env *envelope) {
	c.t.Helper()
	if _, err := writeFrame(c.conn, env); err != nil {
		c.t.Fatalf("client write: %v", err)
	}
}

// readTask returns the next task frame, skipping rosters.
func (c *testClient) readTask() Task {
	c.t.Helper()
	for {
		env, _, err := readFrame[envelope](c.conn, maxFrameBytes)
		if err != nil {
			c.t.Fatalf("client read: %v", err)
		}
		if env.Type == msgTask {
			return *env.Task
		}
	}
}

// runResult is what a Run started on its own goroutine hands back.
type runResult struct {
	res *BuildResult
	err error
}

func runAsync(co *Coordinator, job Job) chan runResult {
	done := make(chan runResult, 1)
	go func() {
		res, err := co.Run(context.Background(), job)
		done <- runResult{res, err}
	}()
	return done
}

// TestDuplicateCompletionDropped sends the result of one scan twice: the
// second completion must be counted and dropped, leaving the reduced
// inventory identical to the local build. The client is a worker whose
// control loop the test drives — its real shuffle state scans, shuffles to
// itself and reduces, and the test decides which frames go up.
func TestDuplicateCompletionDropped(t *testing.T) {
	path, local := archiveFixture(t)
	co := newTestCoordinator(t, nil)
	done := runAsync(co, Job{
		Resolution: testRes,
		Archive:    &ArchiveJob{Path: path, MapTasks: 2, ReduceTasks: 1},
	})

	conn, err := net.Dial("tcp", co.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exec := &worker{
		cfg:     WorkerConfig{Name: "dup-client", Parallelism: 2, ShuffleListen: "127.0.0.1:0"}.withDefaults(),
		conn:    conn,
		metrics: newWorkerMetrics(obs.NewRegistry()),
		portIdx: ports.NewIndex(ports.Default(), ports.IndexResolution),
	}
	sh, err := newShuffleState(exec)
	if err != nil {
		t.Fatal(err)
	}
	exec.shuffle = sh
	sh.start()
	defer sh.shutdown()
	send := func(env *envelope) {
		t.Helper()
		if err := exec.send(env); err != nil {
			t.Fatalf("client write: %v", err)
		}
	}
	send(&envelope{Type: msgHello, Hello: &helloMsg{Name: exec.cfg.Name, ShuffleAddr: sh.resolveAdvertise(conn)}})
	for scans := 0; scans < 2; {
		env, _, err := readFrame[envelope](conn, maxFrameBytes)
		if err != nil {
			t.Fatalf("client read: %v", err)
		}
		switch env.Type {
		case msgRoster:
			sh.setRoster(env.Roster)
		case msgTask:
			res := exec.execute(*env.Task)
			if res.Err != "" {
				t.Fatalf("task %d: %s", env.Task.ID, res.Err)
			}
			send(&envelope{Type: msgResult, Result: res})
			if scans == 0 {
				// Replay the first completion: the coordinator processes the
				// duplicate before the second scan's result can let the
				// bucket reduce and finish the job.
				send(&envelope{Type: msgResult, Result: res})
			}
			scans++
		}
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertEqualBuild(t, out.res, local)
	if out.res.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", out.res.Duplicates)
	}
	if out.res.Retries != 0 {
		t.Errorf("retries = %d, want 0", out.res.Retries)
	}
}

// TestStaleErrorDropped: a failure reported by a worker that no longer
// holds the task must not be charged to the worker that holds it now. A
// protocol client takes a scan and goes silent about it; once the scan has
// timed out and a real worker holds its finished re-run (result gated), the
// client reports the scan failed — and, never having owned it, the bucket's
// reduce too. With MaxRetries 1 the stale scan error used to kill the job
// ("failed after 2 attempts") over a healthy worker's head, and the stale
// reduce error to take the bucket from its owner; both must be dropped as
// duplicates.
func TestStaleErrorDropped(t *testing.T) {
	path, local := archiveFixture(t)
	reg := obs.NewRegistry()
	co := newTestCoordinator(t, func(c *Config) {
		c.MinWorkers = 2
		c.TaskTimeout = 400 * time.Millisecond
		c.MaxRetries = 1
		c.Obs = reg
	})
	addr := co.Addr().String()
	done := runAsync(co, Job{
		Resolution: testRes,
		Archive:    &ArchiveJob{Path: path, MapTasks: 3, ReduceTasks: 1},
	})

	// The real worker's results are gated: its first until the client is
	// busy with a second scan (so the re-queued one can only go to the real
	// worker), the re-run's until the stale error has been processed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
	first, holding, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var lostID uint64 // written before first closes, read after
	results := 0
	silent := dialClient(t, addr, "silent")
	defer silent.conn.Close()
	w := startWorker(t, addr, func(c *WorkerConfig) {
		c.Name = "real"
		c.resultDelay = func(tk Task) time.Duration {
			if results++; results == 1 {
				wait(first)
			} else if tk.ID == lostID && tk.Attempt == 2 {
				close(holding)
				wait(release)
			}
			return 0
		}
	})

	lost := silent.readTask() // taken, never answered
	busy := silent.readTask() // the third scan, handed over when lost timed out
	if busy.ID == lost.ID {
		t.Fatalf("client was handed task %d again", lost.ID)
	}
	lostID = lost.ID
	close(first)
	select {
	case <-holding:
	case out := <-done:
		t.Fatalf("job ended before the re-run was held: %v", out.err)
	}
	silent.write(&envelope{Type: msgHeartbeat, Heartbeat: &heartbeatMsg{TaskID: busy.ID}})
	silent.write(&envelope{Type: msgResult, Result: &TaskResult{ID: lost.ID, Err: "stale"}})
	const bucketID = 3 + 1 // task IDs: the scans, then the buckets
	silent.write(&envelope{Type: msgResult, Result: &TaskResult{ID: bucketID, Err: "stale"}})
	dup := reg.Counter(MetricTasks, obs.Labels{"event": "duplicate"})
	for dup.Value() < 2 {
		select {
		case out := <-done:
			t.Fatalf("stale error ended the job: %v", out.err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The client leaves; its second scan re-queues to the only worker left.
	silent.conn.Close()
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	assertEqualBuild(t, out.res, local)
	if out.res.Duplicates != 2 || out.res.Reassigned != 0 {
		t.Errorf("duplicates = %d, reassigned = %d, want 2 and 0", out.res.Duplicates, out.res.Reassigned)
	}
	if err := <-w; err != nil {
		t.Errorf("worker exit: %v", err)
	}
}

// TestStragglerRequeued connects one protocol client that accepts scans but
// never heartbeats or completes: its tasks must time out and be re-queued
// to the real worker (the client benched after two strikes), and the
// result must still equal the local build.
func TestStragglerRequeued(t *testing.T) {
	path, local := archiveFixture(t)
	co := newTestCoordinator(t, func(c *Config) {
		c.MinWorkers = 2
		c.TaskTimeout = 150 * time.Millisecond
		c.MaxRetries = 8
	})
	addr := co.Addr().String()

	blackhole := dialClient(t, addr, "blackhole")
	defer blackhole.conn.Close()
	go func() {
		// Swallow every frame until the coordinator hangs up.
		for {
			if _, _, err := readFrame[envelope](blackhole.conn, maxFrameBytes); err != nil {
				return
			}
		}
	}()
	w := startWorker(t, addr, func(c *WorkerConfig) { c.Name = "real" })

	res, err := co.Run(context.Background(), Job{
		Resolution: testRes,
		Archive:    &ArchiveJob{Path: path, MapTasks: 4, ReduceTasks: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualBuild(t, res, local)
	if res.Retries < 1 {
		t.Errorf("straggler tasks not re-queued (retries=%d)", res.Retries)
	}
	if err := <-w; err != nil {
		t.Errorf("worker exit: %v", err)
	}
}

// TestDistributedArchiveEqualsLocal runs a job over an archive that repeats
// every vessel's static report — scan sections, shuffle worker to worker,
// reduce vessel buckets — and compares the inventory and the summed feed
// statistics against a sequential single-process build.
func TestDistributedArchiveEqualsLocal(t *testing.T) {
	path, local := archiveFixture(t)
	co := newTestCoordinator(t, func(c *Config) { c.MinWorkers = 2 })
	addr := co.Addr().String()
	w1 := startWorker(t, addr, func(c *WorkerConfig) { c.Name = "a1" })
	w2 := startWorker(t, addr, func(c *WorkerConfig) { c.Name = "a2" })
	res, err := co.Run(context.Background(), Job{
		Resolution: testRes,
		Archive:    &ArchiveJob{Path: path, MapTasks: 3, ReduceTasks: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualBuild(t, res, local)
	if res.Tasks != 3+2 {
		t.Errorf("scheduled %d tasks, want 5 (3 scan + 2 reduce)", res.Tasks)
	}
	if got, want := res.Feed.Positions, archFeed.Positions; got != want {
		t.Errorf("scan positions = %d, want %d", got, want)
	}
	if got, want := res.Feed.Statics, archFeed.Statics; got != want {
		t.Errorf("scan statics = %d, want %d", got, want)
	}
	for _, ch := range []chan error{w1, w2} {
		if err := <-ch; err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}
}

// TestRunValidation rejects a job without an archive and honors context
// abort while no worker has joined.
func TestRunValidation(t *testing.T) {
	co := newTestCoordinator(t, nil)
	if _, err := co.Run(context.Background(), Job{}); err == nil {
		t.Error("job without an archive must fail")
	}

	path, _ := archiveFixture(t)
	co = newTestCoordinator(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := co.Run(ctx, Job{Archive: &ArchiveJob{Path: path, MapTasks: 2}})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("no-worker run: err = %v, want deadline exceeded", err)
	}
}

// TestProtocolFrames round-trips an envelope and rejects oversized frames
// before allocating their payload.
func TestProtocolFrames(t *testing.T) {
	frame := taskFrame(t)
	got, n, err := readFrame[envelope](bytes.NewReader(frame), maxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := feed.Section{Path: "fleet.nmea", Index: 3, Start: 1234, End: 5678}
	if got.Type != msgTask || got.Task == nil || got.Task.ID != 42 || got.Task.Attempt != 2 ||
		got.Task.Buckets != 7 || got.Task.Section != want || n != len(frame) {
		t.Fatalf("round-trip mismatch: %+v (%d of %d bytes)", got, n, len(frame))
	}

	if _, _, err := readFrame[envelope](bytes.NewReader(frame), 8); err == nil ||
		!strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("oversize frame: %v, want cap rejection", err)
	}
	// A corrupt length prefix must be rejected before allocation.
	huge := []byte{0x7f, 0xff, 0xff, 0xff}
	if _, _, err := readFrame[envelope](bytes.NewReader(huge), 1<<20); err == nil ||
		!strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("corrupt prefix: %v, want cap rejection", err)
	}
}

// taskFrame is one encoded control frame: TestProtocolFrames' fixture and
// FuzzReadFrame's seed.
func taskFrame(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := writeFrame(&buf, &envelope{Type: msgTask, Task: &Task{
		ID: 42, Attempt: 2, Buckets: 7,
		Section: feed.Section{Path: "fleet.nmea", Index: 3, Start: 1234, End: 5678},
	}})
	if err != nil || n != buf.Len() {
		t.Fatalf("writeFrame: %d of %d bytes, %v", n, buf.Len(), err)
	}
	return buf.Bytes()
}

// TestWorkerFaultSpecs pins the fault-spec shapes the worker failpoints
// are driven with: a one-shot kill on the Nth evaluation and a bounded run
// of execution failures.
func TestWorkerFaultSpecs(t *testing.T) {
	r := fault.New()
	if err := r.Enable(FPWorkerKill, "error*1@1"); err != nil {
		t.Fatal(err)
	}
	if r.Hit(FPWorkerKill) != nil {
		t.Error("kill fired on first task, want second")
	}
	if r.Hit(FPWorkerKill) == nil {
		t.Error("kill did not fire on second task")
	}
	if r.Hit(FPWorkerKill) != nil {
		t.Error("one-shot kill fired twice")
	}
	if err := r.Enable(FPWorkerExecute, "error*3"); err != nil {
		t.Fatal(err)
	}
	var fails int
	for i := 0; i < 6; i++ {
		if r.Hit(FPWorkerExecute) != nil {
			fails++
		}
	}
	if fails != 3 {
		t.Errorf("execute failpoint fired %d times, want 3", fails)
	}
}
