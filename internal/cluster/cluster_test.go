package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// testSpec is the shared synthetic fleet: small enough for fast tests,
// large enough that vessel-range tasks exercise real merges.
var testSpec = SimSpec{Vessels: 8, Days: 3, Seed: 11}

const testRes = 6

var (
	localOnce sync.Once
	localRes  *pipeline.Result
	localErr  error
)

// localBuild runs the single-process synthetic build the distributed result
// must be semantically identical to. Computed once and shared: the fixture
// is read-only.
func localBuild(t *testing.T) *pipeline.Result {
	t.Helper()
	localOnce.Do(func() {
		s, err := sim.New(testSpec.Config(), ports.Default())
		if err != nil {
			localErr = err
			return
		}
		ctx := dataflow.NewContext(4)
		records := dataflow.Generate(ctx, len(s.Fleet().Vessels), func(part int) []model.PositionRecord {
			recs, _ := s.VesselTrack(part)
			return recs
		})
		localRes, localErr = pipeline.Run(records, s.Fleet().StaticIndex(),
			ports.NewIndex(ports.Default(), ports.IndexResolution),
			pipeline.Options{Resolution: testRes})
	})
	if localErr != nil {
		t.Fatal(localErr)
	}
	return localRes
}

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

// TestDistributedEqualsLocalSynthetic is the core equivalence property:
// for 1, 2 and 4 workers, with per-task completion jitter shuffling result
// order, the distributed build equals the single-process build exactly.
func TestDistributedEqualsLocalSynthetic(t *testing.T) {
	local := localBuild(t)
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
				Synthetic:  &SyntheticJob{Spec: testSpec, Tasks: 5},
			})
			if err != nil {
				t.Fatal(err)
			}
			assertEqualBuild(t, res, local)
			if res.Tasks != 5 {
				t.Errorf("scheduled %d tasks, want 5", res.Tasks)
			}
			for i, ch := range chans {
				if err := <-ch; err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}
		})
	}
}

// TestDistributedWorkerKill injects a failpoint that kills one of two
// workers upon its first task: the dead worker's task must be re-queued and
// the build must still equal the single-process result.
func TestDistributedWorkerKill(t *testing.T) {
	local := localBuild(t)
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
		Synthetic:  &SyntheticJob{Spec: testSpec, Tasks: 6},
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
	local := localBuild(t)
	co := newTestCoordinator(t, nil)
	w := startWorker(t, co.Addr().String(), func(c *WorkerConfig) {
		c.Faults = fault.New()
		if err := c.Faults.Enable(FPWorkerExecute, "error*1"); err != nil {
			t.Fatal(err)
		}
	})
	res, err := co.Run(context.Background(), Job{
		Resolution: testRes,
		Synthetic:  &SyntheticJob{Spec: testSpec, Tasks: 3},
	})
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
	_, err = co.Run(context.Background(), Job{
		Resolution: testRes,
		Synthetic:  &SyntheticJob{Spec: testSpec, Tasks: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "failed after") {
		t.Fatalf("always-failing worker: err = %v, want retry exhaustion", err)
	}
	<-w
}

// testClient speaks the raw wire protocol, giving tests exact control over
// frame timing that a real worker does not.
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
	c.write(&envelope{Type: msgHello, Hello: &helloMsg{Name: name, Procs: 1}})
	return c
}

func (c *testClient) write(env *envelope) {
	c.t.Helper()
	if err := writeFrame(c.conn, env); err != nil {
		c.t.Fatalf("client write: %v", err)
	}
}

func (c *testClient) read() *envelope {
	c.t.Helper()
	env, err := readFrame(c.conn, DefaultMaxFrameBytes)
	if err != nil {
		c.t.Fatalf("client read: %v", err)
	}
	return env
}

// TestDuplicateCompletionDropped sends the result of one task twice through
// a protocol-level client: the second completion must be counted and
// dropped, leaving the reduced inventory identical to the local build.
func TestDuplicateCompletionDropped(t *testing.T) {
	local := localBuild(t)
	co := newTestCoordinator(t, nil)
	done := make(chan *BuildResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := co.Run(context.Background(), Job{
			Resolution: testRes,
			Synthetic:  &SyntheticJob{Spec: testSpec, Tasks: 2},
		})
		errCh <- err
		done <- res
	}()

	client := dialClient(t, co.Addr().String(), "dup-client")
	defer client.conn.Close()
	exec := &worker{
		cfg:     WorkerConfig{Name: "dup-client", Parallelism: 2}.withDefaults(),
		metrics: newWorkerMetrics(obs.NewRegistry()),
		portIdx: ports.NewIndex(ports.Default(), ports.IndexResolution),
	}
	for i := 0; i < 2; i++ {
		env := client.read()
		if env.Type != msgTask {
			t.Fatalf("frame %d: type %d, want task", i, env.Type)
		}
		res := exec.execute(context.Background(), *env.Task)
		if res.Err != "" {
			t.Fatalf("task %d: %s", env.Task.ID, res.Err)
		}
		client.write(&envelope{Type: msgResult, Result: res})
		if i == 0 {
			// Replay the first completion: the coordinator processes the
			// duplicate before the second task's result can finish the job.
			client.write(&envelope{Type: msgResult, Result: res})
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	res := <-done
	assertEqualBuild(t, res, local)
	if res.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", res.Duplicates)
	}
	if res.Retries != 0 {
		t.Errorf("retries = %d, want 0", res.Retries)
	}
}

// TestStragglerRequeued connects one protocol client that accepts tasks but
// never heartbeats or completes: its tasks must time out and be re-queued
// to the real worker, and the result must still equal the local build.
func TestStragglerRequeued(t *testing.T) {
	local := localBuild(t)
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
			if _, err := readFrame(blackhole.conn, DefaultMaxFrameBytes); err != nil {
				return
			}
		}
	}()
	w := startWorker(t, addr, func(c *WorkerConfig) { c.Name = "real" })

	res, err := co.Run(context.Background(), Job{
		Resolution: testRes,
		Synthetic:  &SyntheticJob{Spec: testSpec, Tasks: 4},
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

// TestDistributedArchiveEqualsLocal runs an archive job over an archive
// that repeats every vessel's static report — scan sections, shuffle
// worker to worker, reduce vessel buckets — and compares the inventory and
// the summed feed statistics against a sequential single-process build.
func TestDistributedArchiveEqualsLocal(t *testing.T) {
	s, err := sim.New(testSpec.Config(), ports.Default())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fw := feed.NewWriter(&buf)
	for i, v := range s.Fleet().Vessels {
		recs, _ := s.VesselTrack(i)
		if len(recs) > 60 {
			recs = recs[:60]
		}
		for j, r := range recs {
			if j%20 == 0 {
				if err := fw.WriteStatic(v, r.Time); err != nil {
					t.Fatal(err)
				}
			}
			if err := fw.WritePosition(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.nmea")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Single-process reference, mirroring polbuild's archive path.
	fr := feed.NewReader(bytes.NewReader(buf.Bytes()))
	all, err := fr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	ctx := dataflow.NewContext(4)
	local, err := pipeline.Run(
		dataflow.Parallelize(ctx, all, 8),
		fr.StaticsAsVesselInfo(),
		ports.NewIndex(ports.Default(), ports.IndexResolution),
		pipeline.Options{Resolution: testRes})
	if err != nil {
		t.Fatal(err)
	}

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
	if got, want := res.Feed.Positions, fr.Stats().Positions; got != want {
		t.Errorf("scan positions = %d, want %d", got, want)
	}
	if got, want := res.Feed.Statics, fr.Stats().Statics; got != want {
		t.Errorf("scan statics = %d, want %d", got, want)
	}
	for _, ch := range []chan error{w1, w2} {
		if err := <-ch; err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}
}

// TestRunValidation rejects malformed jobs and honors context abort.
func TestRunValidation(t *testing.T) {
	co := newTestCoordinator(t, nil)
	if _, err := co.Run(context.Background(), Job{}); err == nil {
		t.Error("job without shape must fail")
	}

	co = newTestCoordinator(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := co.Run(ctx, Job{Synthetic: &SyntheticJob{Spec: testSpec, Tasks: 2}})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("no-worker run: err = %v, want deadline exceeded", err)
	}
}

// TestProtocolFrames round-trips an envelope and rejects oversized frames
// before allocating their payload.
func TestProtocolFrames(t *testing.T) {
	env := &envelope{Type: msgTask, Task: &Task{
		ID: 42, Attempt: 2, Kind: TaskScan, Buckets: 7,
		Section: feed.Section{Path: "fleet.nmea", Index: 3, Start: 1234, End: 5678},
	}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	got, err := readFrame(bytes.NewReader(frame), DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != msgTask || got.Task == nil || got.Task.ID != 42 ||
		got.Task.Buckets != 7 || got.Task.Section != env.Task.Section {
		t.Fatalf("round-trip mismatch: %+v", got)
	}

	if _, err := readFrame(bytes.NewReader(frame), 8); err == nil ||
		!strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("oversize frame: %v, want cap rejection", err)
	}
	// A corrupt length prefix must be rejected before allocation.
	huge := []byte{0x7f, 0xff, 0xff, 0xff}
	if _, err := readFrame(bytes.NewReader(huge), 1<<20); err == nil ||
		!strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("corrupt prefix: %v, want cap rejection", err)
	}
}

// TestWorkerFaultSpecs pins the fault-spec shapes the worker failpoints
// are driven with (the replacements for the old kill-task=N /
// fail-tasks=N flags): a one-shot kill on the Nth evaluation and a
// bounded run of execution failures.
func TestWorkerFaultSpecs(t *testing.T) {
	r := fault.New()
	if err := r.Enable(FPWorkerKill, "error*1@1"); err != nil { // legacy kill-task=2
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
	if err := r.Enable(FPWorkerExecute, "error*3"); err != nil { // legacy fail-tasks=3
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
