package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
)

// The one shared fixture: testFleet's NMEA archive (every vessel's static
// report repeated through it), its single-process reference build and the
// sequential reader's statistics. Built once; each test gets its own
// on-disk copy.
var (
	archOnce  sync.Once
	archData  []byte
	archLocal *pipeline.Result
	archFeed  feed.ReadStats
	archErr   error
)

func archiveFixture(t *testing.T) (string, *pipeline.Result) {
	t.Helper()
	archOnce.Do(func() {
		s, err := sim.New(testFleet, ports.Default())
		if err != nil {
			archErr = err
			return
		}
		var buf bytes.Buffer
		fw := feed.NewWriter(&buf)
		for i, v := range s.Fleet().Vessels {
			recs, _ := s.VesselTrack(i)
			if len(recs) > 80 {
				recs = recs[:80]
			}
			for j, r := range recs {
				if j%25 == 0 {
					if err := fw.WriteStatic(v, r.Time); err != nil {
						archErr = err
						return
					}
				}
				if err := fw.WritePosition(r); err != nil {
					archErr = err
					return
				}
			}
		}
		if err := fw.Flush(); err != nil {
			archErr = err
			return
		}
		archData = buf.Bytes()

		fr := feed.NewReader(bytes.NewReader(archData))
		all, err := fr.ReadAll()
		if err != nil {
			archErr = err
			return
		}
		archFeed = fr.Stats()
		ctx := dataflow.NewContext(4)
		archLocal, archErr = pipeline.Run(
			dataflow.Parallelize(ctx, all, 8),
			fr.StaticsAsVesselInfo(),
			ports.NewIndex(ports.Default(), ports.IndexResolution),
			pipeline.Options{Resolution: testRes})
	})
	if archErr != nil {
		t.Fatal(archErr)
	}
	path := filepath.Join(t.TempDir(), "fleet.nmea")
	if err := os.WriteFile(path, archData, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, archLocal
}

// newTestShuffle builds a shuffleState with no running loops: tests drive
// ingest/assemble directly and read the reduce queue themselves. The hour
// heartbeat keeps the roster-started heartbeat loop from ever touching the
// (absent) coordinator connection.
func newTestShuffle(t testing.TB, name string) *shuffleState {
	t.Helper()
	w := &worker{
		cfg: WorkerConfig{
			Coordinator:    "unused",
			Name:           name,
			HeartbeatEvery: time.Hour,
		}.withDefaults(),
		metrics: newWorkerMetrics(obs.NewRegistry()),
		portIdx: ports.NewIndex(ports.Default(), ports.IndexResolution),
	}
	sh, err := newShuffleState(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.shutdown)
	w.shuffle = sh
	return sh
}

// sealTestFrame builds one sealed peer frame for tests.
func sealTestFrame(t testing.TB, taskID uint64, section, bucket, seq int, last bool, frames int,
	recs []model.PositionRecord, statics map[uint32]model.VesselInfo) *peerFrame {
	t.Helper()
	f := &peerFrame{TaskID: taskID, Section: section, Bucket: bucket,
		Seq: seq, Last: last, Frames: frames, Records: len(recs),
		content: &peerPayload{Records: recs, Statics: statics}}
	if !f.seal() {
		t.Fatal("a fresh frame did not seal")
	}
	return f
}

// TestBucketOfIsRunsVesselPartition holds the distributed build's bucketing
// to the local build's: every MMSI goes to the bucket that pipeline.Run's
// vessel shuffle puts it in, for every width tried. That is the
// structural reason a cluster build equals a local one.
func TestBucketOfIsRunsVesselPartition(t *testing.T) {
	var recs []model.PositionRecord
	for i := uint32(0); i < 500; i++ {
		recs = append(recs, model.PositionRecord{MMSI: 200000000 + i*7919})
	}
	for _, n := range []int{1, 2, 3, 8} {
		ctx := dataflow.NewContext(2)
		placed := pipeline.ByVessel(dataflow.Parallelize(ctx, recs, 4), n, "where",
			func(part int, runs iter.Seq[[]model.PositionRecord]) [][2]int {
				var out [][2]int
				for run := range runs {
					for _, r := range run {
						out = append(out, [2]int{int(r.MMSI), part})
					}
				}
				return out
			})
		got, err := dataflow.Collect(placed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(recs) {
			t.Fatalf("n=%d: %d rows placed, want %d", n, len(got), len(recs))
		}
		for _, mp := range got {
			if b := bucketOf(uint32(mp[0]), n); b != mp[1] {
				t.Errorf("n=%d: MMSI %d in vessel partition %d, bucketOf says %d", n, mp[0], mp[1], b)
			}
		}
	}
}

// TestPeerFrameRoundTrip seals, writes, reads and opens one shuffle frame,
// pinning the codec: records and statics survive and the byte counts
// agree.
func TestPeerFrameRoundTrip(t *testing.T) {
	recs := []model.PositionRecord{{MMSI: 111, Time: 5}, {MMSI: 222, Time: 9}}
	statics := map[uint32]model.VesselInfo{111: {MMSI: 111}}
	f := sealTestFrame(t, 3, 1, 2, 0, true, 1, recs, statics)
	if len(f.Payload) == 0 || f.Records != 2 {
		t.Fatalf("seal: %d payload bytes, Records=%d", len(f.Payload), f.Records)
	}
	var buf bytes.Buffer
	wn, err := writeFrame(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	got, rn, err := readFrame[peerFrame](bytes.NewReader(buf.Bytes()), maxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if wn != buf.Len() || rn != buf.Len() {
		t.Errorf("frame sizes: wrote %d, read %d, want %d", wn, rn, buf.Len())
	}
	p, err := got.open()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) != 2 || p.Records[0].MMSI != 111 || p.Records[1].MMSI != 222 {
		t.Errorf("records round-trip: %+v", p.Records)
	}
	if len(p.Statics) != 1 || p.Statics[111].MMSI != 111 {
		t.Errorf("statics round-trip: %+v", p.Statics)
	}
}

// TestPeerFrameCorruption is the property suite over damaged frames: a
// flipped payload byte, a header field rewritten after sealing (a frame
// claiming the wrong bucket), a resealed header whose record count lies,
// a truncated stream, and an oversized length prefix must all be rejected
// before anything reaches a reduce.
func TestPeerFrameCorruption(t *testing.T) {
	recs := []model.PositionRecord{{MMSI: 7, Time: 1}, {MMSI: 8, Time: 2}}
	mk := func() *peerFrame { return sealTestFrame(t, 5, 0, 1, 0, true, 1, recs, nil) }

	flipped := mk()
	flipped.Payload = append([]byte(nil), flipped.Payload...)
	flipped.Payload[len(flipped.Payload)/2] ^= 0x40
	if _, err := flipped.open(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("flipped payload: %v, want CRC mismatch", err)
	}

	relabeled := mk()
	relabeled.Bucket++ // claims a different bucket than was sealed
	if _, err := relabeled.open(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("relabeled bucket: %v, want CRC mismatch", err)
	}

	lying := mk()
	lying.Records++
	lying.CRC = lying.digest() // CRC consistent, payload contradicts header
	if _, err := lying.open(); err == nil || !strings.Contains(err.Error(), "records") {
		t.Errorf("lying record count: %v, want record-count rejection", err)
	}

	var buf bytes.Buffer
	if _, err := writeFrame(&buf, mk()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame[peerFrame](bytes.NewReader(buf.Bytes()[:buf.Len()-3]), maxFrameBytes); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, _, err := readFrame[peerFrame](bytes.NewReader(buf.Bytes()), 8); err == nil ||
		!strings.Contains(err.Error(), "exceeds cap") {
		t.Errorf("oversize frame: %v, want cap rejection", err)
	}
}

// TestShuffleReorderAndDedupe drives reassembly directly: frames arriving
// out of order across two sections complete the bucket exactly once,
// duplicates (mid-stream and after the reduce fired) are dropped and
// counted, corrupt frames are rejected, and assemble reproduces the
// section-ascending, sequence-ordered record stream.
func TestShuffleReorderAndDedupe(t *testing.T) {
	sh := newTestShuffle(t, "self")
	sh.setRoster(&rosterMsg{Epoch: 1, Sections: 2, Resolution: testRes,
		Buckets: []BucketAssign{{Bucket: 0, Owner: "self", Addr: "local", TaskID: 9}}})
	// A stale roster must be ignored.
	sh.setRoster(&rosterMsg{Epoch: 1, Sections: 99})
	if sh.roster.Sections != 2 {
		t.Fatal("stale roster epoch installed")
	}

	r0 := []model.PositionRecord{{MMSI: 1, Time: 1}}
	r1 := []model.PositionRecord{{MMSI: 1, Time: 2}}
	r2 := []model.PositionRecord{{MMSI: 1, Time: 3}}
	s0f0 := sealTestFrame(t, 20, 0, 0, 0, false, 0, r0, nil)
	s0f1 := sealTestFrame(t, 20, 0, 0, 1, true, 2, r1, nil)
	s1f0 := sealTestFrame(t, 21, 1, 0, 0, true, 1, r2, map[uint32]model.VesselInfo{1: {MMSI: 1}})

	bad := sealTestFrame(t, 20, 0, 0, 0, false, 0, r0, nil)
	bad.CRC++
	if err := sh.ingest(bad); err == nil {
		t.Error("corrupt frame ingested")
	}

	// Section 1 first, then section 0 reversed, with a mid-stream dup.
	for _, f := range []*peerFrame{s1f0, s0f1, s0f1, s0f0} {
		if err := sh.ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := sh.w.metrics.peerFramesDup.Value(); got != 1 {
		t.Errorf("mid-stream dup count = %d, want 1", got)
	}
	select {
	case b := <-sh.reduceCh:
		if b != 0 {
			t.Fatalf("reduce queued bucket %d, want 0", b)
		}
	default:
		t.Fatal("completed bucket not queued for reduce")
	}
	// A replay arriving after the reduce fired is dropped as late.
	if err := sh.ingest(s1f0); err != nil {
		t.Fatal(err)
	}
	if got := sh.w.metrics.peerFramesDup.Value(); got != 2 {
		t.Errorf("late dup count = %d, want 2", got)
	}

	records, statics, as, ok := sh.assemble(0)
	if !ok || as.TaskID != 9 {
		t.Fatalf("assemble: ok=%v assign=%+v", ok, as)
	}
	if len(records) != 3 || records[0].Time != 1 || records[1].Time != 2 || records[2].Time != 3 {
		t.Errorf("assembled order: %+v", records)
	}
	if len(statics) != 1 || statics[1].MMSI != 1 {
		t.Errorf("assembled statics: %+v", statics)
	}
}

// TestPeerShuffleArchiveEqualsLocal is the peer-fabric equivalence
// property: for 1, 2 and 4 workers the direct-shuffle distributed build is
// bit-exact with the single-process build, and with more than one worker
// shuffle bytes do move between them.
func TestPeerShuffleArchiveEqualsLocal(t *testing.T) {
	path, local := archiveFixture(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			co := newTestCoordinator(t, func(c *Config) { c.MinWorkers = n })
			addr := co.Addr().String()
			regs := make([]*obs.Registry, n)
			var chans []chan error
			for i := 0; i < n; i++ {
				i := i
				regs[i] = obs.NewRegistry()
				chans = append(chans, startWorker(t, addr, func(c *WorkerConfig) {
					c.Name = fmt.Sprintf("p%d", i)
					c.Obs = regs[i]
				}))
			}
			res, err := co.Run(context.Background(), Job{
				Resolution: testRes,
				Archive:    &ArchiveJob{Path: path, MapTasks: 5, ReduceTasks: 2 * n},
			})
			if err != nil {
				t.Fatal(err)
			}
			assertEqualBuild(t, res, local)
			if res.Tasks != 5+2*n {
				t.Errorf("scheduled %d tasks, want %d", res.Tasks, 5+2*n)
			}
			var peerBytes int64
			for _, reg := range regs {
				peerBytes += reg.Counter(MetricShuffleBytes, obs.Labels{"path": "peer", "dir": "in"}).Value()
			}
			if n > 1 && peerBytes == 0 {
				t.Error("no peer shuffle bytes recorded")
			}
			for i, ch := range chans {
				if err := <-ch; err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}
		})
	}
}

// TestPeerShuffleOwnerKilledMidShuffle kills one of three workers while the
// shuffle is in flight: the victim holds completed scan output and owns
// buckets, so its death must re-route the shuffle — re-queue its scans,
// re-own its buckets under a new roster epoch — and the result must still
// be bit-exact.
func TestPeerShuffleOwnerKilledMidShuffle(t *testing.T) {
	path, local := archiveFixture(t)
	co := newTestCoordinator(t, func(c *Config) {
		c.MinWorkers = 3
		c.MaxRetries = 6
	})
	addr := co.Addr().String()
	var survivors []chan error
	for i := 0; i < 2; i++ {
		i := i
		survivors = append(survivors, startWorker(t, addr, func(c *WorkerConfig) {
			c.Name = fmt.Sprintf("s%d", i)
			// Slow the survivors' first results so the victim finishes a
			// scan (becoming a retained-output holder) and is handed a
			// second task — where the kill failpoint fires.
			c.resultDelay = func(Task) time.Duration { return 100 * time.Millisecond }
		}))
	}
	victim := startWorker(t, addr, func(c *WorkerConfig) {
		c.Name = "victim"
		c.Faults = fault.New()
		if err := c.Faults.Enable(FPWorkerKill, "error*1@1"); err != nil {
			t.Fatal(err)
		}
	})
	res, err := co.Run(context.Background(), Job{
		Resolution: testRes,
		Archive:    &ArchiveJob{Path: path, MapTasks: 6, ReduceTasks: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualBuild(t, res, local)
	if res.Reassigned < 1 {
		t.Errorf("dead owner's buckets not reassigned (reassigned=%d)", res.Reassigned)
	}
	if res.Retries < 1 {
		t.Errorf("dead worker's scans not re-queued (retries=%d)", res.Retries)
	}
	if err := <-victim; !errors.Is(err, ErrKilled) {
		t.Errorf("victim exit: %v, want ErrKilled", err)
	}
	for i, ch := range survivors {
		if err := <-ch; err != nil {
			t.Errorf("survivor %d: %v", i, err)
		}
	}
}

// TestPeerShuffleConnectionFailpoints arms the peer-stream failpoints on
// both workers — the first dials fail, then an injected write error drops
// an established stream mid-shuffle — and asserts the reconnect-and-replay
// path converges to the exact single-process build, with the replayed
// duplicates counted and dropped.
func TestPeerShuffleConnectionFailpoints(t *testing.T) {
	path, local := archiveFixture(t)
	co := newTestCoordinator(t, func(c *Config) { c.MinWorkers = 2 })
	addr := co.Addr().String()
	regs := make([]*obs.Registry, 2)
	var chans []chan error
	for i := 0; i < 2; i++ {
		i := i
		regs[i] = obs.NewRegistry()
		faults := fault.New()
		if err := faults.Enable(FPPeerDial, "error*2"); err != nil {
			t.Fatal(err)
		}
		if err := faults.Enable(FPPeerWrite, "error*1@2"); err != nil {
			t.Fatal(err)
		}
		chans = append(chans, startWorker(t, addr, func(c *WorkerConfig) {
			c.Name = fmt.Sprintf("f%d", i)
			c.Obs = regs[i]
			c.Faults = faults
		}))
	}
	res, err := co.Run(context.Background(), Job{
		Resolution: testRes,
		Archive:    &ArchiveJob{Path: path, MapTasks: 4, ReduceTasks: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualBuild(t, res, local)
	var dialErrs, writeErrs, dups int64
	for _, reg := range regs {
		dialErrs += reg.Counter(MetricShuffleErrors, obs.Labels{"kind": "dial"}).Value()
		writeErrs += reg.Counter(MetricShuffleErrors, obs.Labels{"kind": "write"}).Value()
		dups += reg.Counter(MetricShuffleFrames, obs.Labels{"event": "duplicate"}).Value()
	}
	if dialErrs < 1 {
		t.Errorf("dial failpoint never fired (dialErrs=%d)", dialErrs)
	}
	if writeErrs < 1 {
		t.Errorf("write failpoint never fired (writeErrs=%d)", writeErrs)
	}
	if writeErrs >= 1 && dups < 1 {
		t.Errorf("mid-stream drop produced no replay duplicates (dups=%d)", dups)
	}
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
}

// TestClusterNoGoroutineLeaks runs a completed peer-shuffle job and an
// aborted one, then requires the process goroutine count to return to its
// baseline: coordinator teardown must close every worker connection, and
// worker teardown must join the shuffle listener, senders, reducer and
// heartbeat loops.
func TestClusterNoGoroutineLeaks(t *testing.T) {
	path, local := archiveFixture(t)
	// Let goroutines from earlier tests finish winding down first.
	settle := time.Now().Add(2 * time.Second)
	before := runtime.NumGoroutine()
	for time.Now().Before(settle) {
		time.Sleep(25 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < before {
			before = n
		} else {
			break
		}
	}

	run := func(cancelEarly bool) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		co := newTestCoordinator(t, func(c *Config) { c.MinWorkers = 2 })
		addr := co.Addr().String()
		w1 := startWorker(t, addr, func(c *WorkerConfig) { c.Name = "l1" })
		w2 := startWorker(t, addr, func(c *WorkerConfig) { c.Name = "l2" })
		if cancelEarly {
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
		}
		res, err := co.Run(ctx, Job{
			Resolution: testRes,
			Archive:    &ArchiveJob{Path: path, MapTasks: 4, ReduceTasks: 4},
		})
		if !cancelEarly {
			if err != nil {
				t.Fatal(err)
			}
			assertEqualBuild(t, res, local)
		}
		// Workers must return whichever way the job ended; on an abort
		// their exit error is the severed connection.
		for _, ch := range []chan error{w1, w2} {
			select {
			case <-ch:
			case <-time.After(15 * time.Second):
				t.Fatal("worker did not exit after job teardown")
			}
		}
	}
	run(false)
	run(true)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d at baseline, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
}
