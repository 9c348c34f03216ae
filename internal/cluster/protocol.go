// Package cluster is the distributed build subsystem: a coordinator splits
// an inventory build into map tasks, schedules them to workers over TCP,
// and reduces the returned partial inventories into one result that is
// semantically identical to a single-process build — the repo's stdlib-only
// stand-in for the cluster MapReduce the paper runs its 2.7 B-report
// compression on.
//
// The wire protocol is length-prefixed gob frames over one TCP connection
// per worker. The worker opens the connection and introduces itself with a
// hello frame; from then on the coordinator pushes task and roster
// frames down, and the worker pushes heartbeat and result frames up.
// Robustness model: every task carries an idempotent ID, workers heartbeat
// while executing, and the coordinator re-queues tasks from dead or
// straggling workers with bounded, backed-off retries, dropping duplicate
// completions when a straggler finishes after its replacement.
//
// A job has one shape, the paper's: scan byte-range sections of a
// timestamped-NMEA archive (splittable readers, internal/feed), shuffle
// position records into vessel-hash buckets so per-vessel cleaning and
// trip extraction see exactly the records a single process would, and
// reduce each bucket to a partial inventory. The shuffle is worker to
// worker: the coordinator assigns bucket ownership up
// front (a roster of worker shuffle addresses) and scan workers stream
// compressed, CRC-checked bucket frames straight to the owning peer, which
// starts reducing a bucket the moment all of its section inputs have
// arrived. The coordinator connection carries control traffic and the
// reduced partial inventories (inventory.Marshal images), never records.
package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/pipeline"
)

// maxFrameBytes caps one frame, control or shuffle (1 GiB): large enough
// for a partial inventory of a month-scale build, small enough to reject a
// corrupt length prefix before allocating.
const maxFrameBytes = 1 << 30

// writeTimeout bounds one frame write, to a worker or to a shuffle peer; a
// blocked write drops the connection (the coordinator marks the worker
// dead, a shuffle sender reconnects and replays).
const writeTimeout = 10 * time.Second

// msgType discriminates protocol frames.
type msgType uint8

const (
	msgHello     msgType = iota + 1 // worker → coordinator: introduction
	msgTask                         // coordinator → worker: task assignment
	msgHeartbeat                    // worker → coordinator: liveness + progress
	msgResult                       // worker → coordinator: task completion
	msgShutdown                     // coordinator → worker: job over, disconnect
	msgRoster                       // coordinator → worker: bucket ownership + peer addresses
)

// envelope is the one frame shape on the control connection; exactly the
// field matching Type is populated.
type envelope struct {
	Type      msgType
	Hello     *helloMsg
	Task      *Task
	Heartbeat *heartbeatMsg
	Result    *TaskResult
	Roster    *rosterMsg
}

// helloMsg introduces a worker. ShuffleAddr is the address peers dial to
// stream shuffle buckets to this worker; empty means the worker cannot own
// buckets (it can still run scan tasks).
type helloMsg struct {
	Name        string
	ShuffleAddr string
}

// BucketAssign maps one shuffle bucket to its owning worker. TaskID is the
// idempotency key the owner's reduce result reports under — stable across
// reassignments, so a straggling old owner's completion is dropped as a
// duplicate, never double-merged.
type BucketAssign struct {
	Bucket int
	Owner  string
	Addr   string
	TaskID uint64
}

// rosterMsg broadcasts the shuffle geometry of a job: which worker owns
// which bucket, how many scan sections will contribute frames to each
// bucket, and the grid resolution reduces run at. Epoch increments on
// every reassignment; workers react to an ownership change by
// re-streaming their retained map outputs for the moved bucket to its new
// owner.
type rosterMsg struct {
	Epoch       int
	Sections    int
	Resolution  int
	TraceParent string
	Buckets     []BucketAssign
}

// heartbeatMsg reports liveness while a task executes.
type heartbeatMsg struct {
	TaskID uint64
}

// Task is the one dispatched unit of work, a scan: decode one archive
// section and stream its positions, bucketed by vessel hash into Buckets
// buckets, to the buckets' owners (statics ride each bucket's last
// frame). Reduces are never dispatched: a bucket's owner starts one itself
// the moment the bucket's shuffle inputs are complete, and reports the
// result under the bucket's roster task ID. ID is stable across retries —
// the idempotency key the coordinator dedupes completions on; Attempt
// counts executions for logs.
type Task struct {
	ID      uint64
	Attempt int

	// TraceParent carries the coordinator's job-trace context in W3C
	// traceparent form, so the worker's execution span joins the same
	// distributed trace the client started. Empty on untraced jobs.
	TraceParent string

	Section feed.Section
	Buckets int
}

// TaskResult reports one execution, a scan's or a bucket reduce's, under
// its task ID. Err is the execution failure, if any.
type TaskResult struct {
	ID  uint64
	Err string

	// Reduce: the partial build.
	Inventory []byte // inventory.Marshal image
	Stats     pipeline.Stats

	// Scan: read statistics of the section. The records themselves went
	// to the bucket owners and never transit the coordinator.
	Feed feed.ReadStats
}

// writeFrame encodes v as one length-prefixed gob frame and reports the
// bytes written. Control connections carry envelopes, shuffle streams
// carry peerFrames; each frame is an independent gob stream.
func writeFrame[T any](w io.Writer, v *T) (int, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, fmt.Errorf("cluster: encode frame: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return 0, fmt.Errorf("cluster: write frame: %w", err)
	}
	return len(b), nil
}

// readFrame decodes one frame and reports the bytes read, rejecting
// lengths beyond maxBytes before allocating.
func readFrame[T any](r io.Reader, maxBytes int) (*T, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(maxBytes) {
		return nil, 0, fmt.Errorf("cluster: frame of %d bytes exceeds cap %d", n, maxBytes)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, fmt.Errorf("cluster: read frame body: %w", err)
	}
	v := new(T)
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return nil, 0, fmt.Errorf("cluster: decode frame: %w", err)
	}
	return v, int(n) + 4, nil
}
