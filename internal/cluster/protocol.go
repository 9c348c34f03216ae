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
// Two job shapes exist. Synthetic jobs partition the simulator's fleet by
// vessel index — every task regenerates its own vessel range from the
// shared seed, so no input bytes move. Archive jobs scan byte-range
// sections of the archive (splittable readers, internal/feed) and shuffle
// position records into vessel-hash buckets, so per-vessel cleaning and
// trip extraction see exactly the records a single process would. The
// shuffle is worker to worker: the coordinator assigns bucket ownership up
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
	"github.com/patternsoflife/pol/internal/sim"
)

// DefaultMaxFrameBytes caps one protocol frame (1 GiB): large enough for a
// shuffle bucket of a month-scale build, small enough to reject a corrupt
// length prefix before allocating.
const DefaultMaxFrameBytes = 1 << 30

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

// envelope is the one frame shape on the wire; exactly the field matching
// Type is populated.
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
// buckets (it can still run scan and synthetic tasks).
type helloMsg struct {
	Name        string
	Procs       int
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

// rosterMsg broadcasts the shuffle geometry of a peer-shuffle archive job:
// which worker owns which bucket, how many scan sections will contribute
// frames to each bucket, and the grid resolution reduces run at. Epoch
// increments on every reassignment; workers react to an ownership change
// by re-streaming their retained map outputs for the moved bucket to its
// new owner.
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

// TaskKind selects what a worker does with a task.
type TaskKind uint8

const (
	// TaskSimBuild: regenerate vessels [VesselLo, VesselHi) of the
	// synthetic fleet from Sim and run the full pipeline over them.
	TaskSimBuild TaskKind = iota + 1
	// TaskScan: decode one archive section and stream its positions,
	// bucketed by vessel hash into Buckets buckets, to the buckets' owners
	// (statics ride each bucket's last frame).
	TaskScan
	// TaskReduceBuild: run the full pipeline over one vessel-complete
	// bucket. Never dispatched: a bucket's owner starts it itself the
	// moment the bucket's shuffle inputs are complete, and reports the
	// result under the bucket's roster task ID.
	TaskReduceBuild
)

// String labels the kind for logs and metrics.
func (k TaskKind) String() string {
	switch k {
	case TaskSimBuild:
		return "sim-build"
	case TaskScan:
		return "scan"
	case TaskReduceBuild:
		return "reduce-build"
	default:
		return "unknown"
	}
}

// SimSpec is the wire form of the simulator configuration: the seed and
// shape parameters that let every worker regenerate an identical fleet.
// (The weather field is not shippable; distributed synthetic builds run
// calm-water, like the defaults.)
type SimSpec struct {
	Vessels          int
	Days             int
	Seed             int64
	StartUnix        int64
	ReportInterval   float64
	MooredInterval   float64
	DropoutRate      float64
	NoiseRate        float64
	BlockSuezFromDay int
	BlockSuezToDay   int
}

// SpecFromConfig captures a simulator configuration for the wire.
func SpecFromConfig(c sim.Config) SimSpec {
	return SimSpec{
		Vessels:          c.Vessels,
		Days:             c.Days,
		Seed:             c.Seed,
		StartUnix:        c.Start.Unix(),
		ReportInterval:   c.ReportInterval,
		MooredInterval:   c.MooredInterval,
		DropoutRate:      c.DropoutRate,
		NoiseRate:        c.NoiseRate,
		BlockSuezFromDay: c.BlockSuezFromDay,
		BlockSuezToDay:   c.BlockSuezToDay,
	}
}

// Config reconstructs the simulator configuration on the worker.
func (s SimSpec) Config() sim.Config {
	c := sim.Config{
		Vessels:          s.Vessels,
		Days:             s.Days,
		Seed:             s.Seed,
		ReportInterval:   s.ReportInterval,
		MooredInterval:   s.MooredInterval,
		DropoutRate:      s.DropoutRate,
		NoiseRate:        s.NoiseRate,
		BlockSuezFromDay: s.BlockSuezFromDay,
		BlockSuezToDay:   s.BlockSuezToDay,
	}
	if s.StartUnix != 0 {
		c.Start = time.Unix(s.StartUnix, 0).UTC()
	}
	return c
}

// Task is one schedulable unit of work. ID is stable across retries —
// the idempotency key the coordinator dedupes completions on; Attempt
// counts executions for logs.
type Task struct {
	ID         uint64
	Attempt    int
	Kind       TaskKind
	Resolution int

	// TraceParent carries the coordinator's job-trace context in W3C
	// traceparent form, so the worker's execution span joins the same
	// distributed trace the client started. Empty on untraced jobs; gob
	// omits it for old peers, which simply run untraced.
	TraceParent string

	// TaskSimBuild:
	Sim                SimSpec
	VesselLo, VesselHi int

	// TaskScan:
	Section feed.Section
	Buckets int
}

// TaskResult reports one task execution. Err is the execution failure, if
// any; the payload fields mirror the task kinds.
type TaskResult struct {
	ID      uint64
	Attempt int
	Worker  string
	Err     string

	// Build kinds:
	Inventory []byte // inventory.Marshal of the partial build
	Stats     pipeline.Stats

	// TaskScan: scans ship their buckets directly to the owning peers and
	// report only the per-bucket record counts here (completion
	// accounting and metrics; the records themselves never transit the
	// coordinator).
	Feed          feed.ReadStats
	SectionIndex  int
	BucketRecords []int
}

// writeFrame encodes env as one length-prefixed gob frame.
func writeFrame(w io.Writer, env *envelope) error {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return fmt.Errorf("cluster: encode frame: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("cluster: write frame: %w", err)
	}
	return nil
}

// readFrame decodes one frame, rejecting lengths beyond maxBytes.
func readFrame(r io.Reader, maxBytes int) (*envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if maxBytes <= 0 {
		maxBytes = DefaultMaxFrameBytes
	}
	if int64(n) > int64(maxBytes) {
		return nil, fmt.Errorf("cluster: frame of %d bytes exceeds cap %d", n, maxBytes)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&env); err != nil {
		return nil, fmt.Errorf("cluster: decode frame: %w", err)
	}
	return &env, nil
}
