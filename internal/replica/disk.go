package replica

import (
	"cmp"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
	"github.com/patternsoflife/pol/internal/segment"
)

// DiskOptions configures a DiskReplica.
type DiskOptions struct {
	// Primary is the primary's base HTTP URL, or a comma-separated list
	// of candidates. With more than one, each sync cycle picks the
	// endpoint advertising the highest replication term; endpoints below
	// the persisted high-water mark are stale primaries and are rejected.
	Primary string
	// Resolution must match the primary's; a mismatch is terminal.
	Resolution int
	// Dir holds the local segment files (required) and pol.term, the
	// persisted term high-water mark. At most the current and previous
	// generation live here.
	Dir string
	// PollEvery is the manifest poll cadence (default 2s).
	PollEvery time.Duration
	// Metrics, when non-nil, registers the pol_segment_* series and the
	// disk-replica sync counters.
	Metrics *obs.Registry
	// Faults is the failpoint registry for fetch-path drills (default:
	// the process-wide registry armed from POL_FAILPOINTS).
	Faults *fault.Registry
	// Tracer, when non-nil, roots a trace per sync cycle and injects W3C
	// traceparent on every fetch.
	Tracer *trace.Tracer
	// Logf, when non-nil, receives sync warnings.
	Logf func(format string, args ...any)
}

func (o DiskOptions) withDefaults() DiskOptions {
	o.Resolution = cmp.Or(max(o.Resolution, 0), 6)
	o.PollEvery = cmp.Or(max(o.PollEvery, 0), 2*time.Second)
	return o
}

// DiskReplica mirrors a primary's columnar segment checkpoints and serves
// queries straight from the mapped file — cold start is O(index), not
// O(inventory), and steady-state RSS is bounded by the shard LRU instead
// of the whole heap inventory.
//
// Sync is a per-shard delta: each cycle fetches the remote segment's
// 40-byte tail and footer index over HTTP Range requests, reuses every
// block whose (shard, CRC32C, length) already matches the local
// generation, Range-fetches only the changed blocks (contiguous runs
// coalesce into one request), and atomically installs the reassembled
// file after verifying its whole-file CRC32C against the manifest.
//
// Generation swap keeps the previous reader open until the following
// swap, so queries that loaded the old reader just before a swap keep a
// valid mapping for at least one full sync cycle.
type DiskReplica struct {
	*follower
	opt  DiskOptions
	segm *segment.Metrics

	start       time.Time
	reader      atomic.Pointer[segment.Reader]
	segCRC      atomic.Uint32 // whole-file CRC32C of the installed segment
	installedAt atomic.Int64  // unix nanoseconds of the last install

	mu      sync.Mutex
	retired *segment.Reader

	syncs        atomic.Int64
	syncFailures atomic.Int64
	blockFetches atomic.Int64
	blockReuses  atomic.Int64
	bytesFetched atomic.Int64
	bytesReused  atomic.Int64
}

// NewDisk builds a disk replica rooted at opt.Dir.
func NewDisk(opt DiskOptions) (*DiskReplica, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, fmt.Errorf("replica: segment dir required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	f, err := newFollower(followerConfig{
		primary:    opt.Primary,
		resolution: opt.Resolution,
		termPath:   filepath.Join(opt.Dir, "pol.term"),
		tracer:     opt.Tracer,
		faults:     opt.Faults,
		logf:       opt.Logf,
	})
	if err != nil {
		return nil, err
	}
	d := &DiskReplica{follower: f, opt: opt, segm: segment.NewMetrics(opt.Metrics), start: time.Now()}
	if reg := opt.Metrics; reg != nil {
		f.registerMetrics(reg, "pol_segment_replica")
		reg.CounterFunc("pol_segment_replica_syncs_total", nil, func() float64 { return float64(d.syncs.Load()) })
		reg.CounterFunc("pol_segment_replica_sync_failures_total", nil, func() float64 { return float64(d.syncFailures.Load()) })
		reg.CounterFunc("pol_segment_replica_block_fetches_total", nil, func() float64 { return float64(d.blockFetches.Load()) })
		reg.CounterFunc("pol_segment_replica_block_reuses_total", nil, func() float64 { return float64(d.blockReuses.Load()) })
		reg.CounterFunc("pol_segment_replica_bytes_fetched_total", nil, func() float64 { return float64(d.bytesFetched.Load()) })
		reg.CounterFunc("pol_segment_replica_bytes_reused_total", nil, func() float64 { return float64(d.bytesReused.Load()) })
		reg.GaugeFunc("pol_segment_replica_generation", nil, func() float64 { return float64(d.generation.Load()) })
	}
	return d, nil
}

// Run polls the primary until ctx ends or a terminal configuration error
// (resolution mismatch) is hit. Every cycle selects the endpoint again;
// a failed one is logged and retried at the PollEvery cadence, a
// throttled one after the primary's Retry-After.
func (d *DiskReplica) Run(ctx context.Context) error {
	for ctx.Err() == nil {
		wait := d.opt.PollEvery
		if err := d.Sync(ctx); err != nil && ctx.Err() == nil {
			switch v, after := classify(err); v {
			case terminal:
				return err
			case throttled:
				wait = after
			}
			d.logf("disk replica sync: %v", err)
		}
		d.pause(ctx, wait)
	}
	return ctx.Err()
}

// Sync runs one delta-sync cycle: a no-op when the local generation
// already matches the primary's newest segment, otherwise it assembles
// and installs the new generation. Exported so one-shot bootstraps and
// tests can drive the cycle directly.
func (d *DiskReplica) Sync(ctx context.Context) (err error) {
	span := d.opt.Tracer.StartRoot("replica.sync")
	ctx = trace.ContextWith(ctx, span)
	defer func() {
		span.SetError(err)
		span.Finish()
		if err == nil {
			d.succeeded()
		} else if v, _ := d.failed(err); v != throttled {
			d.syncFailures.Add(1)
		}
	}()
	man, err := d.selectEndpoint(ctx)
	if err != nil {
		return err
	}
	g := &man.Generations[0]
	// Generation numbers are per primary: after a failover the same number
	// can name different bytes, so the checksum decides.
	if d.generation.Load() == g.Gen && d.segCRC.Load() == g.SegCRC && d.reader.Load() != nil {
		return nil
	}
	path := filepath.Join(d.opt.Dir, g.Seg)
	if sum, size, err := inventory.ChecksumFile(path); err == nil && sum == g.SegCRC && size == g.SegSize {
		// Local copy already verified byte-identical (restart, or the swap
		// itself failed last cycle): install without touching the network.
		return d.install(path, g)
	}
	if err := d.assemble(ctx, g, path); err != nil {
		return err
	}
	return d.install(path, g)
}

// assemble builds g's segment at path from Range requests plus every
// reusable block of the currently installed generation. The write aborts
// (and installs nothing) unless the assembled file's whole-file CRC32C
// and size match the manifest exactly.
func (d *DiskReplica) assemble(ctx context.Context, g *ingest.ReplGenInfo, path string) error {
	base := checkpointURL(d.endpoint(), g.Gen, g.Seg)
	if g.SegSize < segment.TailLen {
		return fmt.Errorf("replica: manifest segment size %d below tail size", g.SegSize)
	}
	tailB, err := d.getRange(ctx, base, g.SegSize-segment.TailLen, g.SegSize-1)
	if err != nil {
		return err
	}
	tail, err := segment.ParseTail(tailB, g.SegSize)
	if err != nil {
		return err
	}
	idxB, err := d.getRange(ctx, base, tail.IndexOff, tail.IndexOff+int64(tail.IndexLen)-1)
	if err != nil {
		return err
	}
	blocks, err := segment.ParseIndex(idxB, tail)
	if err != nil {
		return err
	}
	headB, err := d.getRange(ctx, base, 0, int64(tail.HeaderLen)-1)
	if err != nil {
		return err
	}
	if segment.CRC(headB) != tail.HeaderCRC {
		d.crcRejects.Add(1)
		return fmt.Errorf("replica: fetched segment header: %w", segment.ErrChecksum)
	}

	// Delta core: any block the installed generation already holds with
	// the same compressed bytes (shard + CRC32C + lengths) is copied
	// locally instead of fetched.
	old := d.reader.Load()
	oldBlocks := map[int]segment.BlockInfo{}
	if old != nil {
		for _, b := range old.Blocks() {
			oldBlocks[b.Shard] = b
		}
	}
	got := make(map[int][]byte, len(blocks))
	var need []segment.BlockInfo
	for _, b := range blocks {
		if ob, ok := oldBlocks[b.Shard]; ok && ob.CRC == b.CRC && ob.CompLen == b.CompLen && ob.RawLen == b.RawLen {
			if data, err := old.BlockBytes(b.Shard); err == nil {
				got[b.Shard] = data
				d.blockReuses.Add(1)
				d.bytesReused.Add(int64(b.CompLen))
				continue
			}
		}
		need = append(need, b)
	}
	// Fetch the rest, coalescing byte-adjacent blocks into one Range
	// request each — a cold bootstrap is a handful of big reads, an
	// incremental sync only the changed shards.
	for i := 0; i < len(need); {
		j := i
		end := need[i].Off + int64(need[i].CompLen)
		for j+1 < len(need) && need[j+1].Off == end {
			j++
			end = need[j].Off + int64(need[j].CompLen)
		}
		run, err := d.getRange(ctx, base, need[i].Off, end-1)
		if err != nil {
			return err
		}
		for k := i; k <= j; k++ {
			b := need[k]
			lo := b.Off - need[i].Off
			data := run[lo : lo+int64(b.CompLen)]
			if segment.CRC(data) != b.CRC {
				d.crcRejects.Add(1)
				return fmt.Errorf("replica: fetched block for shard %d: %w", b.Shard, segment.ErrChecksum)
			}
			got[b.Shard] = data
			d.blockFetches.Add(1)
			d.bytesFetched.Add(int64(b.CompLen))
		}
		i = j + 1
	}

	// Reassemble in layout order. The running CRC32C must reproduce the
	// manifest's whole-file checksum or AtomicWrite aborts before rename —
	// a bad assembly can never be installed.
	var sum uint32
	var n int64
	return inventory.AtomicWrite(path, func(w io.Writer) error {
		emit := func(b []byte) error {
			if _, err := w.Write(b); err != nil {
				return err
			}
			sum = crc32.Update(sum, castagnoli, b)
			n += int64(len(b))
			return nil
		}
		if err := emit(headB); err != nil {
			return err
		}
		for _, b := range blocks {
			if err := emit(got[b.Shard]); err != nil {
				return err
			}
		}
		if err := emit(idxB); err != nil {
			return err
		}
		if err := emit(tailB); err != nil {
			return err
		}
		if n != g.SegSize || sum != g.SegCRC {
			d.crcRejects.Add(1)
			return fmt.Errorf("replica: assembled segment crc %08x size %d, manifest says %08x size %d: %w",
				sum, n, g.SegCRC, g.SegSize, segment.ErrChecksum)
		}
		return nil
	})
}

// install opens the assembled file and swaps it in. The displaced reader
// is retired, not closed: it stays valid until the next swap retires its
// successor, giving in-flight queries a full sync cycle of grace.
func (d *DiskReplica) install(path string, g *ingest.ReplGenInfo) error {
	r, err := segment.Open(path, segment.Options{Metrics: d.segm})
	if err != nil {
		return err
	}
	d.installedAt.Store(time.Now().UnixNano())
	old := d.reader.Swap(r)
	d.generation.Store(g.Gen)
	d.segCRC.Store(g.SegCRC)
	d.syncs.Add(1)
	d.mu.Lock()
	prev := d.retired
	d.retired = old
	d.mu.Unlock()
	if prev != nil {
		p := prev.Path()
		prev.Close()
		if p != path && (old == nil || p != old.Path()) {
			_ = os.Remove(p)
		}
	}
	return nil
}

// getRange fetches [from, to] (inclusive) of the remote segment. A
// server that answers 200 with the whole file still works: the requested
// window is sliced out.
func (d *DiskReplica) getRange(ctx context.Context, u string, from, to int64) ([]byte, error) {
	if from < 0 || to < from {
		return nil, fmt.Errorf("replica: bad byte range %d-%d", from, to)
	}
	body, status, _, err := d.get(ctx, u, checkpointTimeout, fmt.Sprintf("bytes=%d-%d", from, to))
	if err != nil {
		return nil, err
	}
	if status == http.StatusPartialContent {
		if want := to - from + 1; int64(len(body)) != want {
			return nil, fmt.Errorf("replica: range %d-%d answered %d bytes", from, to, len(body))
		}
		return body, nil
	}
	if int64(len(body)) < to+1 {
		return nil, fmt.Errorf("replica: full-body fallback shorter (%d bytes) than range end %d", len(body), to)
	}
	return body[from : to+1], nil
}

// Inventory implements api.Source: queries resolve against the mapped
// segment; before the first sync an empty inventory answers.
func (d *DiskReplica) Inventory() inventory.View {
	if r := d.reader.Load(); r != nil {
		return r
	}
	return inventory.New(inventory.BuildInfo{Resolution: d.opt.Resolution})
}

// ReadyDetail implements the obs.ReadyzDetailHandler contract: ready once
// a generation is installed; degraded detail carries the last sync error.
func (d *DiskReplica) ReadyDetail() (bool, string) {
	if d.reader.Load() == nil {
		return false, "disk replica: no segment generation installed yet"
	}
	if p := d.lastErr.Load(); p != nil {
		return true, "degraded: last sync failed: " + *p
	}
	return true, ""
}

// StatusSnapshot collects the disk replica's status document: a head
// without an engine, whose snapshot age is the time since the served
// generation was installed, and the follower section with the sync
// counters.
func (d *DiskReplica) StatusSnapshot() ingest.Status {
	f := d.section()
	f.Syncs = d.syncs.Load()
	f.SyncFailures = d.syncFailures.Load()
	f.BlockFetches = d.blockFetches.Load()
	f.BlockReuses = d.blockReuses.Load()
	f.BytesFetched = d.bytesFetched.Load()
	f.BytesReused = d.bytesReused.Load()
	s := ingest.Status{
		State:           "follower",
		Generation:      d.generation.Load(),
		UptimeSeconds:   int64(time.Since(d.start).Seconds()),
		FollowerSection: f,
	}
	if r := d.reader.Load(); r != nil {
		s.Groups = int64(r.Len())
		s.SnapshotAgeSeconds = int64(time.Since(time.Unix(0, d.installedAt.Load())).Seconds())
	}
	return s
}

// Close closes the installed and retired readers. Cancel Run first.
func (d *DiskReplica) Close() error {
	d.mu.Lock()
	prev := d.retired
	d.retired = nil
	d.mu.Unlock()
	if prev != nil {
		prev.Close()
	}
	if r := d.reader.Swap(nil); r != nil {
		return r.Close()
	}
	return nil
}
