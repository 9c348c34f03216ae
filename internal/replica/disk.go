package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/obs"
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
	// Dir holds the local segment files (required). At most the current
	// and previous generation live here.
	Dir string
	// PollEvery is the manifest poll cadence (default 2s).
	PollEvery time.Duration
	// MaxPinned caps each reader's decompressed-shard LRU
	// (default segment.DefaultMaxPinned).
	MaxPinned int
	// Client is the HTTP client (default &http.Client{}).
	Client *http.Client
	// Metrics, when non-nil, registers the pol_segment_* series and the
	// disk-replica sync counters.
	Metrics *obs.Registry
	// Logf, when non-nil, receives sync warnings.
	Logf func(format string, args ...any)
}

func (o DiskOptions) withDefaults() DiskOptions {
	if o.Resolution <= 0 {
		o.Resolution = 6
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
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
	opt       DiskOptions
	segm      *segment.Metrics
	endpoints []string
	endpoint  atomic.Int64 // index of the endpoint last synced from

	cur        atomic.Pointer[segment.Reader]
	generation atomic.Uint64

	mu      sync.Mutex
	retired *segment.Reader

	// Term high-water mark, persisted in Dir so a restarted disk replica
	// keeps rejecting a demoted primary. Guarded by hwMu for
	// raise-and-persist; read lock-free.
	hwMu   sync.Mutex
	hwTerm atomic.Uint64
	hwNode atomic.Uint64

	syncs          atomic.Int64
	syncFailures   atomic.Int64
	blockFetches   atomic.Int64
	blockReuses    atomic.Int64
	bytesFetched   atomic.Int64
	bytesReused    atomic.Int64
	crcRejects     atomic.Int64
	fencingRejects atomic.Int64

	lastErr atomic.Pointer[string]
}

// termPath is where the disk replica persists its term high-water mark.
func (d *DiskReplica) termPath() string { return filepath.Join(d.opt.Dir, "pol.term") }

// raiseHW lifts the persisted term high-water mark to (term, node) if it
// beats the current one.
func (d *DiskReplica) raiseHW(term, node uint64) error {
	if term == 0 {
		return nil
	}
	d.hwMu.Lock()
	defer d.hwMu.Unlock()
	if !ingest.TermBeats(term, node, d.hwTerm.Load(), d.hwNode.Load()) {
		return nil
	}
	if err := writeTermFile(d.termPath(), term, node); err != nil {
		return fmt.Errorf("replica: persist term high-water: %w", err)
	}
	d.hwTerm.Store(term)
	d.hwNode.Store(node)
	return nil
}

// NewDisk builds a disk replica rooted at opt.Dir.
func NewDisk(opt DiskOptions) (*DiskReplica, error) {
	opt = opt.withDefaults()
	if opt.Primary == "" {
		return nil, fmt.Errorf("replica: primary URL required")
	}
	if opt.Dir == "" {
		return nil, fmt.Errorf("replica: segment dir required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	var endpoints []string
	for _, ep := range strings.Split(opt.Primary, ",") {
		ep = strings.TrimRight(strings.TrimSpace(ep), "/")
		if ep != "" {
			endpoints = append(endpoints, ep)
		}
	}
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("replica: primary URL required")
	}
	d := &DiskReplica{opt: opt, segm: segment.NewMetrics(opt.Metrics), endpoints: endpoints}
	term, node, err := readTermFile(d.termPath())
	if err != nil {
		return nil, err
	}
	d.hwTerm.Store(term)
	d.hwNode.Store(node)
	if reg := opt.Metrics; reg != nil {
		reg.CounterFunc("pol_segment_replica_syncs_total", nil, func() float64 { return float64(d.syncs.Load()) })
		reg.CounterFunc("pol_segment_replica_sync_failures_total", nil, func() float64 { return float64(d.syncFailures.Load()) })
		reg.CounterFunc("pol_segment_replica_block_fetches_total", nil, func() float64 { return float64(d.blockFetches.Load()) })
		reg.CounterFunc("pol_segment_replica_block_reuses_total", nil, func() float64 { return float64(d.blockReuses.Load()) })
		reg.CounterFunc("pol_segment_replica_bytes_fetched_total", nil, func() float64 { return float64(d.bytesFetched.Load()) })
		reg.CounterFunc("pol_segment_replica_bytes_reused_total", nil, func() float64 { return float64(d.bytesReused.Load()) })
		reg.CounterFunc("pol_segment_replica_crc_rejects_total", nil, func() float64 { return float64(d.crcRejects.Load()) })
		reg.CounterFunc("pol_segment_replica_fencing_rejects_total", nil, func() float64 { return float64(d.fencingRejects.Load()) })
		reg.GaugeFunc("pol_segment_replica_term", nil, func() float64 { return float64(d.hwTerm.Load()) })
		reg.GaugeFunc("pol_segment_replica_generation", nil, func() float64 { return float64(d.generation.Load()) })
	}
	return d, nil
}

func (d *DiskReplica) logf(format string, args ...any) {
	if d.opt.Logf != nil {
		d.opt.Logf(format, args...)
	}
}

// Run polls the primary until ctx ends or a terminal configuration error
// (resolution mismatch) is hit. Transient sync errors are counted, logged
// and retried on the next poll.
func (d *DiskReplica) Run(ctx context.Context) error {
	for ctx.Err() == nil {
		if err := d.Sync(ctx); err != nil {
			if errors.Is(err, errTerminal) || ctx.Err() != nil {
				return err
			}
			d.logf("disk replica sync: %v", err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(d.opt.PollEvery):
		}
	}
	return ctx.Err()
}

// Sync runs one delta-sync cycle: a no-op when the local generation
// already matches the primary's newest segment, otherwise it assembles
// and installs the new generation. Exported so one-shot bootstraps and
// tests can drive the cycle directly.
func (d *DiskReplica) Sync(ctx context.Context) (err error) {
	defer func() {
		if err != nil {
			d.syncFailures.Add(1)
			s := err.Error()
			d.lastErr.Store(&s)
		} else {
			d.lastErr.Store(nil)
		}
	}()
	man, base, err := d.pickBest(ctx)
	if err != nil {
		return err
	}
	if man.Resolution != d.opt.Resolution {
		return fmt.Errorf("%w: primary resolution %d != replica resolution %d",
			errTerminal, man.Resolution, d.opt.Resolution)
	}
	var g *ingest.ReplGenInfo
	for i := range man.Generations {
		if man.Generations[i].Seg != "" {
			g = &man.Generations[i]
			break
		}
	}
	if g == nil {
		return fmt.Errorf("replica: primary has no segment generation yet")
	}
	if d.generation.Load() == g.Gen && d.cur.Load() != nil {
		return nil
	}
	path := filepath.Join(d.opt.Dir, g.Seg)
	if sum, size, err := inventory.ChecksumFile(path); err == nil && sum == g.SegCRC && size == g.SegSize {
		// Local copy already verified byte-identical (restart, or the swap
		// itself failed last cycle): install without touching the network.
		return d.install(path, g.Gen)
	}
	if err := d.assemble(ctx, base, g, path); err != nil {
		return err
	}
	return d.install(path, g.Gen)
}

// pickBest fetches every endpoint's manifest and returns the one with
// the highest (term, node) pair, raising the high-water mark to match.
// Manifests below the mark come from a stale primary: they are rejected,
// never synced from, even if every fresher endpoint is down.
func (d *DiskReplica) pickBest(ctx context.Context) (ingest.ReplManifest, string, error) {
	var (
		bestMan            ingest.ReplManifest
		best               = -1
		bestTerm, bestNode uint64
		firstErr           error
	)
	for i, ep := range d.endpoints {
		man, rt, rn, err := d.fetchManifest(ctx, ep)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ingest.TermBeats(d.hwTerm.Load(), d.hwNode.Load(), rt, rn) {
			d.fencingRejects.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("replica: %s serves term %d below high-water %d", ep, rt, d.hwTerm.Load())
			}
			continue
		}
		if best < 0 || ingest.TermBeats(rt, rn, bestTerm, bestNode) {
			best, bestTerm, bestNode, bestMan = i, rt, rn, man
		}
	}
	if best < 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("replica: no reachable endpoint")
		}
		return ingest.ReplManifest{}, "", firstErr
	}
	if err := d.raiseHW(bestTerm, bestNode); err != nil {
		return ingest.ReplManifest{}, "", err
	}
	d.endpoint.Store(int64(best))
	return bestMan, d.endpoints[best], nil
}

// assemble builds g's segment at path from Range requests plus every
// reusable block of the currently installed generation. The write aborts
// (and installs nothing) unless the assembled file's whole-file CRC32C
// and size match the manifest exactly.
func (d *DiskReplica) assemble(ctx context.Context, endpoint string, g *ingest.ReplGenInfo, path string) error {
	base := fmt.Sprintf("%s/v1/repl/checkpoint/%d/%s", endpoint, g.Gen, url.PathEscape(g.Seg))
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
	old := d.cur.Load()
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
func (d *DiskReplica) install(path string, gen uint64) error {
	r, err := segment.Open(path, segment.Options{MaxPinned: d.opt.MaxPinned, Metrics: d.segm})
	if err != nil {
		return err
	}
	old := d.cur.Swap(r)
	d.generation.Store(gen)
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

func (d *DiskReplica) fetchManifest(ctx context.Context, endpoint string) (man ingest.ReplManifest, term, node uint64, err error) {
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, endpoint+"/v1/repl/manifest", nil)
	if err != nil {
		return man, 0, 0, err
	}
	// Carrying the high-water mark fences a demoted primary on contact.
	ingest.SetTermHeader(req.Header, d.hwTerm.Load(), d.hwNode.Load())
	resp, err := d.opt.Client.Do(req)
	if err != nil {
		return man, 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return man, 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return man, 0, 0, fmt.Errorf("replica: manifest: %s", resp.Status)
	}
	if err := json.Unmarshal(body, &man); err != nil {
		return man, 0, 0, fmt.Errorf("replica: manifest decode: %w", err)
	}
	term, node = ingest.TermFromHeader(resp.Header)
	return man, term, node, nil
}

// getRange fetches [from, to] (inclusive) of the remote segment. A
// server that answers 200 with the whole file still works: the requested
// window is sliced out.
func (d *DiskReplica) getRange(ctx context.Context, u string, from, to int64) ([]byte, error) {
	if from < 0 || to < from {
		return nil, fmt.Errorf("replica: bad byte range %d-%d", from, to)
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", from, to))
	ingest.SetTermHeader(req.Header, d.hwTerm.Load(), d.hwNode.Load())
	resp, err := d.opt.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	want := to - from + 1
	switch resp.StatusCode {
	case http.StatusPartialContent:
		if int64(len(body)) != want {
			return nil, fmt.Errorf("replica: range %d-%d answered %d bytes", from, to, len(body))
		}
		return body, nil
	case http.StatusOK:
		if int64(len(body)) < to+1 {
			return nil, fmt.Errorf("replica: full-body fallback shorter (%d bytes) than range end %d", len(body), to)
		}
		return body[from : to+1], nil
	default:
		return nil, fmt.Errorf("replica: range %d-%d: %s", from, to, resp.Status)
	}
}

// Reader returns the currently installed segment reader (nil before the
// first successful sync).
func (d *DiskReplica) Reader() *segment.Reader { return d.cur.Load() }

// Generation returns the installed checkpoint generation (0 before the
// first sync).
func (d *DiskReplica) Generation() uint64 { return d.generation.Load() }

// Inventory implements api.Source: queries resolve against the mapped
// segment; before the first sync an empty inventory answers.
func (d *DiskReplica) Inventory() inventory.View {
	if r := d.cur.Load(); r != nil {
		return r
	}
	return inventory.New(inventory.BuildInfo{Resolution: d.opt.Resolution})
}

// ReadyDetail implements the obs.ReadyzDetailHandler contract: ready once
// a generation is installed; degraded detail carries the last sync error.
func (d *DiskReplica) ReadyDetail() (bool, string) {
	if d.cur.Load() == nil {
		return false, "disk replica: no segment generation installed yet"
	}
	if p := d.lastErr.Load(); p != nil {
		return true, "degraded: last sync failed: " + *p
	}
	return true, ""
}

// DiskStatus is the JSON document served by StatusHandler.
type DiskStatus struct {
	Primary        string `json:"primary"`
	Endpoints      int    `json:"endpoints"`
	Term           uint64 `json:"term"`
	Generation     uint64 `json:"generation"`
	Groups         int64  `json:"groups"`
	Syncs          int64  `json:"syncs"`
	SyncFailures   int64  `json:"sync_failures"`
	BlockFetches   int64  `json:"block_fetches"`
	BlockReuses    int64  `json:"block_reuses"`
	BytesFetched   int64  `json:"bytes_fetched"`
	BytesReused    int64  `json:"bytes_reused"`
	CRCRejects     int64  `json:"crc_rejects"`
	FencingRejects int64  `json:"fencing_rejects"`
	LastError      string `json:"last_error,omitempty"`
}

// StatusSnapshot collects the current sync counters.
func (d *DiskReplica) StatusSnapshot() DiskStatus {
	s := DiskStatus{
		Primary:        d.endpoints[d.endpoint.Load()],
		Endpoints:      len(d.endpoints),
		Term:           d.hwTerm.Load(),
		Generation:     d.generation.Load(),
		Syncs:          d.syncs.Load(),
		SyncFailures:   d.syncFailures.Load(),
		BlockFetches:   d.blockFetches.Load(),
		BlockReuses:    d.blockReuses.Load(),
		BytesFetched:   d.bytesFetched.Load(),
		BytesReused:    d.bytesReused.Load(),
		CRCRejects:     d.crcRejects.Load(),
		FencingRejects: d.fencingRejects.Load(),
	}
	if r := d.cur.Load(); r != nil {
		s.Groups = int64(r.Len())
	}
	if p := d.lastErr.Load(); p != nil {
		s.LastError = *p
	}
	return s
}

// StatusHandler serves the sync counters as JSON (/v1/replica/status on a
// disk-replica daemon).
func (d *DiskReplica) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(d.StatusSnapshot())
	})
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
	if r := d.cur.Swap(nil); r != nil {
		return r.Close()
	}
	return nil
}
