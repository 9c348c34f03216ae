package cluster

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/model"
)

// Failpoints evaluated on the worker-to-worker shuffle path. Dial makes a
// peer connection attempt fail before connecting; Write injects a write
// error after the connection is up, dropping it mid-stream. Both exercise
// the sender's reconnect-and-resend loop: receivers deduplicate the
// replayed frames, so an armed failpoint must not change the build.
const (
	FPPeerDial  = "cluster.peer.dial"
	FPPeerWrite = "cluster.peer.write"
)

// peerBatchRecords is the map-side frame size: having read its section, a
// scan cuts each bucket's records into frames of this many. The value is
// part of the shuffle's determinism contract — a re-executed scan produces
// byte-identical frames with identical sequence numbers, which is what
// makes mixing frames from two attempts of the same task safe.
const peerBatchRecords = 4096

// crcTable is the Castagnoli polynomial, matching the WAL's record CRCs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// peerPayload is the content of one shuffle frame before compression.
// Statics ride the shuffle rather than a coordinator broadcast: a vessel
// hashes to exactly one bucket, so merging per-bucket statics in ascending
// section order reconstructs exactly the entries a global last-wins merge
// would hand that bucket's reduce.
type peerPayload struct {
	Records []model.PositionRecord
	Statics map[uint32]model.VesselInfo
}

// peerFrame is one unit of the worker-to-worker shuffle: a batch of one
// scan task's records for one bucket, gob-encoded and flate-compressed.
// (TaskID, Bucket, Seq) is the idempotency key receivers deduplicate on;
// Last carries Frames, the total frame count for the (task, bucket) pair,
// so the receiver knows when a section's contribution is complete. CRC is
// CRC32C over the header fields and the compressed payload, so neither a
// flipped payload byte nor a corrupted header field (a frame claiming the
// wrong bucket or sequence) can poison a reduce.
type peerFrame struct {
	TaskID  uint64
	Section int
	Bucket  int
	Seq     int
	Last    bool
	Frames  int // on Last: total frames for (TaskID, Bucket)
	Records int // records in this frame's payload
	RawLen  int // uncompressed payload bytes (compression-ratio metric)
	Payload []byte
	CRC     uint32
}

// digest computes the frame's integrity checksum: the numeric identity
// fields in a fixed binary layout, then the compressed payload.
func (f *peerFrame) digest() uint32 {
	var hdr [44]byte
	binary.LittleEndian.PutUint64(hdr[0:], f.TaskID)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(f.Section)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(int64(f.Bucket)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(int64(f.Seq)))
	var last uint64
	if f.Last {
		last = 1
	}
	binary.LittleEndian.PutUint32(hdr[32:], uint32(last))
	binary.LittleEndian.PutUint32(hdr[36:], uint32(f.Frames))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(f.Records))
	crc := crc32.Update(0, crcTable, hdr[:])
	return crc32.Update(crc, crcTable, f.Payload)
}

// seal compresses the payload and stamps the CRC.
func sealFrame(f *peerFrame, records []model.PositionRecord, statics map[uint32]model.VesselInfo) error {
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(&peerPayload{Records: records, Statics: statics}); err != nil {
		return fmt.Errorf("cluster: encode peer payload: %w", err)
	}
	f.Records = len(records)
	f.RawLen = raw.Len()
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := fw.Write(raw.Bytes()); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	f.Payload = comp.Bytes()
	f.CRC = f.digest()
	return nil
}

// open verifies the CRC and decompresses the payload. A nil error means the
// frame is exactly what the sender sealed.
func (f *peerFrame) open(maxBytes int) (*peerPayload, error) {
	if f.CRC != f.digest() {
		return nil, fmt.Errorf("cluster: peer frame task %d bucket %d seq %d: CRC mismatch", f.TaskID, f.Bucket, f.Seq)
	}
	fr := flate.NewReader(bytes.NewReader(f.Payload))
	defer fr.Close()
	lr := &io.LimitedReader{R: fr, N: int64(maxBytes) + 1}
	raw, err := io.ReadAll(lr)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer frame inflate: %w", err)
	}
	if lr.N == 0 {
		return nil, fmt.Errorf("cluster: peer frame inflates past cap %d", maxBytes)
	}
	var p peerPayload
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&p); err != nil {
		return nil, fmt.Errorf("cluster: decode peer payload: %w", err)
	}
	if len(p.Records) != f.Records {
		return nil, fmt.Errorf("cluster: peer frame task %d bucket %d seq %d: %d records, header says %d",
			f.TaskID, f.Bucket, f.Seq, len(p.Records), f.Records)
	}
	return &p, nil
}

// peerSender owns the stream of shuffle frames to one destination address:
// a queue drained by a single goroutine that dials lazily, retries with
// capped exponential backoff, and on any connection error reconnects and
// replays every frame it has ever accepted for this destination (receivers
// deduplicate, so replay is always safe and always sufficient).
type peerSender struct {
	addr    string
	metrics *workerMetrics
	faults  *fault.Registry

	mu     sync.Mutex
	queue  []*peerFrame // accepted, not yet sent on the current connection
	sent   []*peerFrame // sent on the current connection (replayed on reconnect)
	wake   chan struct{}
	closed bool
}

func newPeerSender(addr string, faults *fault.Registry, m *workerMetrics) *peerSender {
	return &peerSender{addr: addr, metrics: m, faults: faults, wake: make(chan struct{}, 1)}
}

// enqueue accepts frames for delivery; the run loop picks them up.
func (s *peerSender) enqueue(frames ...*peerFrame) {
	s.mu.Lock()
	s.queue = append(s.queue, frames...)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// close stops the run loop after the current write.
func (s *peerSender) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run drains the queue until closed; done is closed when the stop channel
// fires or close is called. Stop aborts even mid-backoff.
func (s *peerSender) run(stop <-chan struct{}) {
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		s.mu.Lock()
		closed := s.closed
		next := len(s.queue) > 0
		s.mu.Unlock()
		if closed {
			return
		}
		if !next {
			select {
			case <-stop:
				return
			case <-s.wake:
			}
			continue
		}
		if conn == nil {
			c, err := s.dial()
			if err != nil {
				s.metrics.peerDialErrs.Inc()
				select {
				case <-stop:
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				continue
			}
			conn = c
			backoff = 50 * time.Millisecond
			// A fresh connection starts from a blank receiver view of this
			// stream: replay everything already sent, then continue.
			s.mu.Lock()
			s.queue = append(append([]*peerFrame{}, s.sent...), s.queue...)
			s.sent = s.sent[:0]
			s.mu.Unlock()
		}
		s.mu.Lock()
		f := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		if err := s.write(conn, f); err != nil {
			conn.Close()
			conn = nil
			s.metrics.peerWriteErrs.Inc()
			// Put the frame back; the reconnect replays sent ones first.
			s.mu.Lock()
			s.queue = append([]*peerFrame{f}, s.queue...)
			s.mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		s.mu.Lock()
		s.sent = append(s.sent, f)
		s.mu.Unlock()
	}
}

func (s *peerSender) dial() (net.Conn, error) {
	if err := s.faults.Hit(FPPeerDial); err != nil {
		return nil, err
	}
	return net.DialTimeout("tcp", s.addr, 2*time.Second)
}

func (s *peerSender) write(conn net.Conn, f *peerFrame) error {
	if err := s.faults.Hit(FPPeerWrite); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := writeFrame(conn, f)
	conn.SetWriteDeadline(time.Time{})
	if err == nil {
		s.metrics.shufflePeerSent.Add(int64(n))
		s.metrics.peerFramesSent.Inc()
	}
	return err
}

// bucketFrames builds the deterministic frame sequence for one (scan task,
// bucket) pair: records batched peerBatchRecords at a time, the bucket's
// statics riding the Last frame. The same task always produces the same
// frames, which is what makes straggler re-execution and reconnect replay
// idempotent at the receiver.
func bucketFrames(t Task, bucket int, records []model.PositionRecord, statics map[uint32]model.VesselInfo) ([]*peerFrame, error) {
	var frames []*peerFrame
	n := len(records)
	total := (n + peerBatchRecords - 1) / peerBatchRecords
	if total == 0 {
		total = 1 // an empty section still sends its Last marker
	}
	for seq := 0; seq < total; seq++ {
		lo := seq * peerBatchRecords
		hi := lo + peerBatchRecords
		if hi > n {
			hi = n
		}
		f := &peerFrame{TaskID: t.ID, Section: t.Section.Index, Bucket: bucket, Seq: seq}
		var st map[uint32]model.VesselInfo
		if seq == total-1 {
			f.Last = true
			f.Frames = total
			st = statics
		}
		if err := sealFrame(f, records[lo:hi], st); err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// bucketStatics filters a section's statics down to the vessels hashing
// into one bucket. A vessel hashes to exactly one bucket, so the union
// over buckets partitions the section's statics; frame idempotency is
// semantic (same task → same entries), not byte-level — receivers keep the
// first frame per (task, bucket, seq) key, and any attempt's frame
// carries the same content.
func bucketStatics(statics map[uint32]model.VesselInfo, bucket, buckets int) map[uint32]model.VesselInfo {
	var out map[uint32]model.VesselInfo
	for mmsi, vi := range statics {
		if bucketOf(mmsi, buckets) != bucket {
			continue
		}
		if out == nil {
			out = make(map[uint32]model.VesselInfo)
		}
		out[mmsi] = vi
	}
	return out
}
