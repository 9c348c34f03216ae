package cluster

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/model"
)

// bucketOf maps an MMSI to its shuffle bucket. Senders and receivers
// must agree on this function — it is the partitioning
// contract that makes every bucket vessel-complete.
func bucketOf(mmsi uint32, buckets int) int {
	return int(dataflow.HashKey(mmsi) % uint64(buckets))
}

// contrib accumulates one scan section's frames for one bucket. total is
// -1 until the Last frame announces how many frames the section sent;
// the section's contribution is complete when every sequence number in
// [0, total) has been accepted exactly once.
type contrib struct {
	taskID   uint64
	total    int
	payloads map[int]*peerPayload
}

func (c *contrib) complete() bool { return c.total >= 0 && len(c.payloads) == c.total }

// shuffleState is the worker side of the peer shuffle: the listener peers
// stream bucket frames to, the per-destination senders for this worker's
// own map outputs, the reassembly state for buckets this worker owns, and
// the reducer that folds a bucket the moment its last input arrives.
type shuffleState struct {
	w         *worker
	ln        net.Listener
	advertise string
	stop      chan struct{}
	wg        sync.WaitGroup
	reduceCh  chan int

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	senders  map[string]*peerSender
	roster   *rosterMsg
	assigns  map[int]BucketAssign
	contribs map[int]map[int]*contrib // bucket → section → contribution
	retained map[int][]*peerFrame     // bucket → this worker's map outputs
	queued   map[int]bool             // bucket handed to the reducer
	resulted map[int]bool             // bucket result sent (stop heartbeating)
	failed   map[int]bool             // bucket reduce failed (retry on re-own)
	hbStart  sync.Once
}

// newShuffleState opens the peer listener. The worker advertises the
// resolved address in its hello; peers dial it to deliver bucket frames.
func newShuffleState(w *worker) (*shuffleState, error) {
	ln, err := net.Listen("tcp", w.cfg.ShuffleListen)
	if err != nil {
		return nil, fmt.Errorf("cluster: shuffle listen %s: %w", w.cfg.ShuffleListen, err)
	}
	return &shuffleState{
		w:        w,
		ln:       ln,
		stop:     make(chan struct{}),
		reduceCh: make(chan int, 256),
		conns:    make(map[net.Conn]struct{}),
		senders:  make(map[string]*peerSender),
		assigns:  make(map[int]BucketAssign),
		contribs: make(map[int]map[int]*contrib),
		retained: make(map[int][]*peerFrame),
		queued:   make(map[int]bool),
		resulted: make(map[int]bool),
		failed:   make(map[int]bool),
	}, nil
}

// resolveAdvertise picks the address peers dial: the configured override,
// or the listener port joined with the IP this worker reaches the
// coordinator from (the best guess at a peer-routable interface).
func (sh *shuffleState) resolveAdvertise(coordConn net.Conn) string {
	if sh.w.cfg.ShuffleAdvertise != "" {
		sh.advertise = sh.w.cfg.ShuffleAdvertise
		return sh.advertise
	}
	_, port, err := net.SplitHostPort(sh.ln.Addr().String())
	if err != nil {
		sh.advertise = sh.ln.Addr().String()
		return sh.advertise
	}
	host := ""
	if coordConn != nil {
		if h, _, err := net.SplitHostPort(coordConn.LocalAddr().String()); err == nil {
			host = h
		}
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	sh.advertise = net.JoinHostPort(host, port)
	return sh.advertise
}

// start launches the accept loop and the reducer.
func (sh *shuffleState) start() {
	sh.wg.Add(2)
	go sh.acceptLoop()
	go sh.reduceLoop()
}

// shutdown tears the shuffle down: listener, inbound connections, senders,
// reducer, heartbeats. Blocks until every goroutine has exited, so a
// returning RunWorker leaks nothing.
func (sh *shuffleState) shutdown() {
	close(sh.stop)
	sh.ln.Close()
	sh.mu.Lock()
	for conn := range sh.conns {
		conn.Close()
	}
	for _, s := range sh.senders {
		s.close()
	}
	sh.mu.Unlock()
	sh.wg.Wait()
}

// acceptLoop owns inbound peer connections.
func (sh *shuffleState) acceptLoop() {
	defer sh.wg.Done()
	for {
		conn, err := sh.ln.Accept()
		if err != nil {
			return
		}
		sh.mu.Lock()
		sh.conns[conn] = struct{}{}
		sh.mu.Unlock()
		sh.wg.Add(1)
		go sh.handleConn(conn)
	}
}

// handleConn ingests frames from one peer until the stream ends or a frame
// fails validation (the connection is dropped; the sender reconnects and
// replays, and dedupe makes the replay harmless).
func (sh *shuffleState) handleConn(conn net.Conn) {
	defer sh.wg.Done()
	defer func() {
		conn.Close()
		sh.mu.Lock()
		delete(sh.conns, conn)
		sh.mu.Unlock()
	}()
	for {
		f, n, err := readFrame[peerFrame](conn, maxFrameBytes)
		if err != nil {
			return
		}
		sh.w.metrics.shufflePeerRecv.Add(int64(n))
		sh.w.metrics.peerFramesRecv.Inc()
		if err := sh.ingest(f); err != nil {
			sh.w.metrics.peerFramesRejected.Inc()
			sh.w.logf("peer frame rejected: %v", err)
			return
		}
	}
}

// ingest validates and files one frame, firing the reduce when it was the
// bucket's last missing input. Duplicate (task, bucket, seq) keys — from
// straggler re-execution, reconnect replay, or reassignment resend — are
// counted and dropped.
func (sh *shuffleState) ingest(f *peerFrame) error {
	p, err := f.open(maxFrameBytes)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.queued[f.Bucket] {
		// Already reducing (or reduced): late duplicates carry nothing new.
		sh.w.metrics.peerFramesDup.Inc()
		return nil
	}
	secs := sh.contribs[f.Bucket]
	if secs == nil {
		secs = make(map[int]*contrib)
		sh.contribs[f.Bucket] = secs
	}
	c := secs[f.Section]
	if c == nil {
		c = &contrib{taskID: f.TaskID, total: -1, payloads: make(map[int]*peerPayload)}
		secs[f.Section] = c
	}
	if _, dup := c.payloads[f.Seq]; dup {
		sh.w.metrics.peerFramesDup.Inc()
		return nil
	}
	if f.Seq < 0 || (f.Last && f.Frames <= f.Seq) {
		return fmt.Errorf("cluster: peer frame task %d bucket %d: bad seq %d/frames %d", f.TaskID, f.Bucket, f.Seq, f.Frames)
	}
	c.payloads[f.Seq] = p
	if f.Last {
		c.total = f.Frames
	}
	sh.maybeReduceLocked(f.Bucket)
	return nil
}

// maybeReduceLocked queues a bucket for reduction once this worker owns it
// and every section's contribution is complete.
func (sh *shuffleState) maybeReduceLocked(bucket int) {
	if sh.roster == nil || sh.queued[bucket] {
		return
	}
	as, ok := sh.assigns[bucket]
	if !ok || as.Owner != sh.w.cfg.Name {
		return
	}
	secs := sh.contribs[bucket]
	if len(secs) < sh.roster.Sections {
		return
	}
	for i := 0; i < sh.roster.Sections; i++ {
		c, ok := secs[i]
		if !ok || !c.complete() {
			return
		}
	}
	sh.queued[bucket] = true
	select {
	case sh.reduceCh <- bucket:
	case <-sh.stop:
	}
}

// retain records a locally produced frame so an ownership change can
// re-stream the bucket to its new owner, then delivers it.
func (sh *shuffleState) emit(f *peerFrame) {
	sh.w.metrics.shuffleRawBytes.Add(int64(f.RawLen))
	sh.w.metrics.shuffleCompBytes.Add(int64(len(f.Payload)))
	sh.mu.Lock()
	sh.retained[f.Bucket] = append(sh.retained[f.Bucket], f)
	as, ok := sh.assigns[f.Bucket]
	sh.mu.Unlock()
	if !ok || as.Addr == "" {
		return // parked bucket: the next roster broadcast re-delivers
	}
	sh.deliver(as.Addr, f)
}

// deliver routes one frame: straight into local reassembly when this
// worker owns the destination bucket, otherwise onto the sender queue for
// the owning peer.
func (sh *shuffleState) deliver(addr string, frames ...*peerFrame) {
	if addr == sh.advertise {
		for _, f := range frames {
			if err := sh.ingest(f); err != nil {
				sh.w.metrics.peerFramesRejected.Inc()
				sh.w.logf("local shuffle frame rejected: %v", err)
			}
		}
		return
	}
	sh.sender(addr).enqueue(frames...)
}

func (sh *shuffleState) sender(addr string) *peerSender {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.senders[addr]
	if !ok {
		s = newPeerSender(addr, sh.w.cfg.Faults, sh.w.metrics)
		sh.senders[addr] = s
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			s.run(sh.stop)
		}()
	}
	return s
}

// setRoster installs a roster broadcast. On an ownership change this
// worker re-streams its retained map outputs for the moved bucket to the
// new owner, clears a failed reduce so the bucket can retry, and
// re-evaluates completeness for everything it now owns (frames may have
// arrived before the roster did).
func (sh *shuffleState) setRoster(r *rosterMsg) {
	type redeliver struct {
		addr   string
		frames []*peerFrame
	}
	var resend []redeliver
	sh.mu.Lock()
	if sh.roster != nil && r.Epoch <= sh.roster.Epoch {
		sh.mu.Unlock()
		return
	}
	old := sh.assigns
	sh.roster = r
	sh.assigns = make(map[int]BucketAssign, len(r.Buckets))
	for _, as := range r.Buckets {
		sh.assigns[as.Bucket] = as
		prev, had := old[as.Bucket]
		moved := had && prev.Addr != as.Addr
		if as.Owner == sh.w.cfg.Name && sh.failed[as.Bucket] {
			// The coordinator re-owned a failed bucket to us (possibly
			// without an address change, on a one-worker cluster): allow
			// the reduce to run again from the retained inputs.
			delete(sh.failed, as.Bucket)
			delete(sh.queued, as.Bucket)
			delete(sh.resulted, as.Bucket)
		}
		if (moved || !had) && as.Addr != "" {
			if frames := sh.retained[as.Bucket]; len(frames) > 0 {
				resend = append(resend, redeliver{addr: as.Addr, frames: frames})
			}
		}
	}
	pending := 0
	for _, as := range sh.assigns {
		if as.Owner == sh.w.cfg.Name && !sh.resulted[as.Bucket] {
			pending++
		}
	}
	sh.w.metrics.pendingBuckets.Set(float64(pending))
	sh.mu.Unlock()
	sh.w.logf("roster epoch %d: %d buckets over %d sections", r.Epoch, len(r.Buckets), r.Sections)

	for _, rd := range resend {
		sh.deliver(rd.addr, rd.frames...)
	}
	sh.mu.Lock()
	for b := range sh.assigns {
		sh.maybeReduceLocked(b)
	}
	sh.mu.Unlock()
	sh.hbStart.Do(func() {
		sh.wg.Add(1)
		go sh.heartbeatLoop()
	})
}

// heartbeatLoop reports liveness for every owned bucket whose result has
// not been sent yet — both while waiting for shuffle inputs and while the
// reduce pipeline runs — so the coordinator's bucket deadlines only fire
// on workers that have actually gone quiet.
func (sh *shuffleState) heartbeatLoop() {
	defer sh.wg.Done()
	tick := time.NewTicker(sh.w.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-sh.stop:
			return
		case <-tick.C:
			sh.mu.Lock()
			var ids []uint64
			for _, as := range sh.assigns {
				if as.Owner == sh.w.cfg.Name && !sh.resulted[as.Bucket] {
					ids = append(ids, as.TaskID)
				}
			}
			sh.mu.Unlock()
			for _, id := range ids {
				sh.w.metrics.heartbeats.Inc()
				if err := sh.w.send(&envelope{Type: msgHeartbeat, Heartbeat: &heartbeatMsg{TaskID: id}}); err != nil {
					return
				}
			}
		}
	}
}

// reduceLoop folds buckets as they complete, one at a time (the pipeline
// itself parallelizes internally).
func (sh *shuffleState) reduceLoop() {
	defer sh.wg.Done()
	for {
		select {
		case <-sh.stop:
			return
		case bucket := <-sh.reduceCh:
			sh.w.reduceOwnedBucket(bucket)
		}
	}
}

// assemble concatenates a completed bucket's sections in ascending section
// order — frames in sequence order within a section — and merges the
// per-section statics in the same order, reproducing exactly the record
// order and last-wins statics a sequential archive read would hand a
// single-process build.
func (sh *shuffleState) assemble(bucket int) ([]model.PositionRecord, map[uint32]model.VesselInfo, BucketAssign, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	as, ok := sh.assigns[bucket]
	if !ok {
		return nil, nil, BucketAssign{}, false
	}
	secs := sh.contribs[bucket]
	idxs := make([]int, 0, len(secs))
	for i := range secs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	total := 0
	for _, i := range idxs {
		for _, p := range secs[i].payloads {
			total += len(p.Records)
		}
	}
	records := make([]model.PositionRecord, 0, total)
	statics := make(map[uint32]model.VesselInfo)
	for _, i := range idxs {
		c := secs[i]
		for seq := 0; seq < c.total; seq++ {
			p := c.payloads[seq]
			records = append(records, p.Records...)
			for mmsi, vi := range p.Statics {
				statics[mmsi] = vi
			}
		}
	}
	return records, statics, as, true
}

// markResult flips the bucket's heartbeat off. A successful reduce frees
// the reassembly state (the result is on its way to the coordinator); a
// failed one keeps it, so a roster that re-owns the bucket to this worker
// can retry from the inputs already here.
func (sh *shuffleState) markResult(bucket int, failed bool) {
	sh.mu.Lock()
	sh.resulted[bucket] = true
	if failed {
		sh.failed[bucket] = true
	} else {
		delete(sh.contribs, bucket)
	}
	pending := 0
	for _, as := range sh.assigns {
		if as.Owner == sh.w.cfg.Name && !sh.resulted[as.Bucket] {
			pending++
		}
	}
	sh.w.metrics.pendingBuckets.Set(float64(pending))
	sh.mu.Unlock()
}
