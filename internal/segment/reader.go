package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/patternsoflife/pol/internal/deflate"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/stats"
)

// maxPinned caps the decompressed shard blocks pinned in memory at once.
// 64 of 256 shards keeps a hot replica's RSS at a fraction of the heap
// inventory while serving a skewed query mix almost entirely from pinned
// blocks.
const maxPinned = 64

// Options tune a segment reader.
type Options struct {
	// Metrics receives cache and corruption counters; nil disables.
	Metrics *Metrics
}

// Reader serves inventory queries directly from a POLSEG1 segment file.
// Open reads only the fixed tail and the footer index — O(index), not
// O(inventory) — and every query lazily loads and CRC-verifies just the
// shard blocks it touches, inflating each only as far as the summaries
// read from it, and keeps the hottest maxPinned pinned in an LRU.
//
// Reader implements inventory.View, so the api layer serves from it
// interchangeably with the heap inventory. The View methods cannot
// return errors; on a corrupt block they report the group as absent,
// count the failure in Metrics, and retain the first error for Err().
// Lookup is Get with the error returned: the tests that must tell "absent"
// from "damaged" call it; no program code does.
//
// A block, or its prefix, inflates into the heap inventory's own sealed
// shard type (inventory.SealedShard), so both read paths find a key and
// decode its summary the same way, each query into a summary of its own.
// A Reader is safe for concurrent use.
type Reader struct {
	path string
	f    *os.File
	size int64
	mm   []byte // the whole segment: an mmap of f, or the caller's bytes when f is nil

	info  inventory.BuildInfo
	tail  Tail
	index []BlockInfo
	// byShard maps shard id → position in index, -1 when the shard is
	// empty.
	byShard [inventory.ShardCount]int16

	cache   *shardCache
	metrics *Metrics

	dirOnce sync.Once
	dir     *keyDir
	dirErr  error

	firstErr atomic.Pointer[error]
	closed   atomic.Bool
}

// Open opens a segment for querying, reading only the tail and index.
func Open(path string, opts Options) (*Reader, error) { return openFile(path, opts, mmapFile) }

// openFile is Open with the mapping as a seam: where mmap fails the reader
// falls back to pread, and tests reach that path with a mapper that fails.
func openFile(path string, opts Options, mmap func(*os.File, int64) ([]byte, error)) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("segment: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: stat %s: %w", path, err)
	}
	r := &Reader{path: path, f: f, size: st.Size(), metrics: opts.Metrics}
	if mm, err := mmap(f, r.size); err == nil {
		r.mm = mm
	}
	if err := r.init(); err != nil {
		r.unmap()
		f.Close()
		return nil, err
	}
	if r.metrics != nil {
		r.metrics.Opens.Add(1)
		r.metrics.noteOpen(r)
	}
	return r, nil
}

// openBytes serves a segment image already held in memory (a verified
// replication download): the slice stands in for the mapping, so every
// query path is the one a file-backed reader runs. name labels errors.
func openBytes(data []byte, name string) (*Reader, error) {
	r := &Reader{path: name, size: int64(len(data)), mm: data}
	if err := r.init(); err != nil {
		return nil, err
	}
	return r, nil
}

// legacyMagic opens the retired POLINV1 inventory file format.
const legacyMagic = "POLINV1\n"

// init parses tail, index and header out of the backing bytes.
func (r *Reader) init() error {
	// The one place a pre-POLSEG1 inventory file is recognised: every tool
	// opens its input through here, so none of them sniffs a magic.
	if hb, err := r.bytesAt(0, len(legacyMagic)); err == nil && string(hb) == legacyMagic {
		return fmt.Errorf("segment: %s: POLINV1 inventory files are no longer read; rebuild with polbuild: %w", r.path, ErrBadMagic)
	}
	if r.size < int64(headerFixedLen+TailLen) {
		return fmt.Errorf("segment: %s is %d bytes: %w", r.path, r.size, ErrTruncated)
	}
	tb, err := r.bytesAt(r.size-TailLen, TailLen)
	if err != nil {
		return fmt.Errorf("segment: tail: %w", err)
	}
	if r.tail, err = ParseTail(tb, r.size); err != nil {
		return err
	}
	ib, err := r.bytesAt(r.tail.IndexOff, r.tail.IndexLen)
	if err != nil {
		return fmt.Errorf("segment: index: %w", err)
	}
	if r.index, err = ParseIndex(ib, r.tail); err != nil {
		return err
	}
	for i := range r.byShard {
		r.byShard[i] = -1
	}
	for i, bi := range r.index {
		r.byShard[bi.Shard] = int16(i)
	}

	hb, err := r.bytesAt(0, r.tail.HeaderLen)
	if err != nil {
		return fmt.Errorf("segment: header: %w", err)
	}
	if CRC(hb) != r.tail.HeaderCRC {
		return fmt.Errorf("segment: header: %w", ErrChecksum)
	}
	if !bytes.Equal(hb[:8], segMagic) {
		return fmt.Errorf("segment: header magic %q: %w", hb[:8], ErrBadMagic)
	}
	switch v := binary.LittleEndian.Uint32(hb[8:12]); {
	case v == 1:
		return fmt.Errorf("segment: %s: %w", r.path, ErrOldVersion)
	case v != segVersion:
		return fmt.Errorf("segment: unsupported version %d: %w", v, ErrCorrupt)
	}
	r.info.Resolution = int(binary.LittleEndian.Uint32(hb[12:16]))
	r.info.RawRecords = int64(binary.LittleEndian.Uint64(hb[16:24]))
	r.info.UsedRecords = int64(binary.LittleEndian.Uint64(hb[24:32]))
	r.info.BuiltUnix = int64(binary.LittleEndian.Uint64(hb[32:40]))
	descLen := int(binary.LittleEndian.Uint32(hb[40:44]))
	if headerFixedLen+descLen != r.tail.HeaderLen {
		return fmt.Errorf("segment: description length %d in %d-byte header: %w", descLen, r.tail.HeaderLen, ErrCorrupt)
	}
	r.info.Description = string(hb[headerFixedLen:])

	r.cache = newShardCache(maxPinned)
	return nil
}

// Path returns the file the reader serves from.
func (r *Reader) Path() string { return r.path }

// Mapped reports whether the file is memory-mapped.
func (r *Reader) Mapped() bool { return r.f != nil && r.mm != nil }

// Blocks returns the footer index (shared; do not mutate).
func (r *Reader) Blocks() []BlockInfo { return r.index }

// Err returns the first corruption or I/O error swallowed by the
// error-less inventory.View methods, or nil.
func (r *Reader) Err() error {
	if p := r.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Close unmaps and closes the file. Queries racing a Close may return
// errors; the serving tier swaps readers with a drain delay instead of
// closing under load.
func (r *Reader) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	if r.metrics != nil {
		r.metrics.noteClose(r)
		n, b := r.cache.stats()
		r.metrics.Pinned.Add(-int64(n))
		r.metrics.PinnedBytes.Add(-b)
	}
	r.unmap()
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// unmap releases a file mapping; caller-owned bytes are just dropped.
func (r *Reader) unmap() {
	if r.f != nil && r.mm != nil {
		munmap(r.mm)
	}
	r.mm = nil
}

// bytesAt returns n bytes at off — a zero-copy subslice under mmap, a
// fresh pread buffer otherwise. Out-of-range reads are ErrTruncated.
func (r *Reader) bytesAt(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > r.size {
		return nil, fmt.Errorf("segment: read [%d,+%d) beyond %d bytes: %w", off, n, r.size, ErrTruncated)
	}
	if r.mm != nil {
		return r.mm[off : off+int64(n) : off+int64(n)], nil
	}
	buf := make([]byte, n)
	if _, err := r.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("segment: read at %d: %w", off, err)
	}
	return buf, nil
}

// BlockBytes returns the CRC-verified compressed bytes of one shard's
// block, or (nil, nil) when the shard is empty — the unit of the
// replica's shard-level delta sync.
func (r *Reader) BlockBytes(shard int) ([]byte, error) {
	if shard < 0 || shard >= inventory.ShardCount {
		return nil, fmt.Errorf("segment: shard %d out of range", shard)
	}
	bi := r.byShard[shard]
	if bi < 0 {
		return nil, nil
	}
	return r.compressedBlock(&r.index[bi])
}

func (r *Reader) compressedBlock(bi *BlockInfo) ([]byte, error) {
	b, err := r.bytesAt(bi.Off, int(bi.CompLen))
	if err != nil {
		return nil, err
	}
	if CRC(b) != bi.CRC {
		return nil, fmt.Errorf("segment: shard %d block: %w", bi.Shard, ErrChecksum)
	}
	return b, nil
}

// parse parses block bi's columns at the head of raw, at least
// columnsLen(NGroups) bytes of it. Their last offset must end the block at
// RawLen: a block the whole-stream inflate would refuse for its length is
// refused for it here, before the columns are checked.
func (r *Reader) parse(bi *BlockInfo, raw []byte) (*inventory.SealedShard, error) {
	cols := columnsLen(bi.NGroups)
	if end := cols + uint64(binary.LittleEndian.Uint32(raw[cols-4:])); end != uint64(bi.RawLen) {
		return nil, fmt.Errorf("segment: shard %d inflate: the columns end the block at %d bytes, RawLen is %d: %w", bi.Shard, end, bi.RawLen, ErrCorrupt)
	}
	p, err := inventory.ParseSealedShard(bi.Shard, raw, int(bi.RawLen))
	if err != nil {
		return nil, fmt.Errorf("segment: %v: %w", err, ErrCorrupt)
	}
	if uint32(p.Len()) != bi.NGroups {
		return nil, fmt.Errorf("segment: shard %d holds %d groups, index says %d: %w", bi.Shard, p.Len(), bi.NGroups, ErrCorrupt)
	}
	return p, nil
}

// inflate inflates block bi into buf, RawLen long, without touching the
// cache: first its columns, which it parses, then as far as upTo asks of
// them (RawLen or more: the whole block, its stream's end checked as
// deflate.InflatePrefix checks it
// without a need). The shard it returns aliases buf.
func (r *Reader) inflate(bi *BlockInfo, buf []byte, upTo func(*inventory.SealedShard) int) (*inventory.SealedShard, error) {
	comp, err := r.compressedBlock(bi)
	if err != nil {
		return nil, err
	}
	var p *inventory.SealedShard
	var perr error
	cols := int(columnsLen(bi.NGroups))
	n, err := deflate.InflatePrefix(buf, comp, func(pre []byte) int {
		switch {
		case len(pre) < cols:
			return cols
		case p == nil && perr == nil:
			if p, perr = r.parse(bi, pre); perr == nil {
				return upTo(p)
			}
		}
		return 0 // the summary's end, or a refusal
	})
	switch {
	case err != nil:
		return nil, fmt.Errorf("segment: shard %d inflate: %v: %w", bi.Shard, err, ErrCorrupt)
	case perr != nil:
		return nil, perr
	case p == nil: // the columns are the whole block
		return r.parse(bi, buf[:n])
	}
	return p.Over(buf[:n]) // the columns p was parsed from: no error
}

// blockScratch holds the buffers a block is inflated into before the prefix
// a read keeps is copied out at its exact size.
var blockScratch = sync.Pool{New: func() any { return new([]byte) }}

// loadFor inflates block bi as far as a read of key needs — the columns,
// and through key's summary when the block holds key — and returns the
// shard over a copy of that prefix.
func (r *Reader) loadFor(bi *BlockInfo, key inventory.GroupKey) (*inventory.SealedShard, error) {
	buf := blockScratch.Get().(*[]byte)
	defer blockScratch.Put(buf)
	if cap(*buf) < int(bi.RawLen) {
		*buf = make([]byte, bi.RawLen)
	}
	p, err := r.inflate(bi, (*buf)[:bi.RawLen], func(p *inventory.SealedShard) int {
		if i, ok := p.Find(key); ok {
			return p.End(i)
		}
		return 0
	})
	if err != nil {
		return nil, err
	}
	return p.Over(bytes.Clone((*buf)[:p.Size()]))
}

// fail records a swallowed error for Err() and the corruption counter.
func (r *Reader) fail(err error) {
	if err == nil {
		return
	}
	if r.metrics != nil {
		r.metrics.CorruptBlocks.Add(1)
	}
	r.firstErr.CompareAndSwap(nil, &err)
}

// Lookup returns the summary for one group identifier, reading at most
// one block: binary search over the shard's sorted key column, then one
// decode.
func (r *Reader) Lookup(key inventory.GroupKey) (*inventory.CellSummary, bool, error) {
	p, i, ok, err := r.find(key)
	if !ok {
		return nil, false, err
	}
	s, err := p.Summary(i)
	if err != nil {
		return nil, false, fmt.Errorf("segment: %v: %w", err, ErrCorrupt)
	}
	return s, true, nil
}

// find returns the block holding key and its position there, through the
// LRU: the pinned prefix of the block when it holds key's summary, one
// inflated further when it does not.
func (r *Reader) find(key inventory.GroupKey) (*inventory.SealedShard, int, bool, error) {
	shard := inventory.ShardOf(key)
	bi := r.byShard[shard]
	if bi < 0 {
		return nil, 0, false, nil
	}
	return r.cache.get(shard, key, r.metrics, func() (*inventory.SealedShard, error) {
		return r.loadFor(&r.index[bi], key)
	})
}

// eachGroup streams every (key, summary) pair in global key order
// (ascending shard, then ascending key), stopping early if f returns
// false. Blocks are inflated whole outside the cache — a full scan does
// not evict the query-path LRU.
func (r *Reader) eachGroup(f func(inventory.GroupKey, *inventory.CellSummary) bool) error {
	for i := range r.index {
		p, err := r.inflate(&r.index[i], make([]byte, r.index[i].RawLen), func(*inventory.SealedShard) int { return math.MaxInt })
		if err != nil {
			return err
		}
		for g := range p.Len() {
			s, err := p.Summary(g)
			if err != nil {
				return fmt.Errorf("segment: %v: %w", err, ErrCorrupt)
			}
			if !f(p.Key(g), s) {
				return nil
			}
		}
	}
	return nil
}

// odKey mirrors the heap inventory's OD sub-index key.
type odKey struct {
	origin, dest model.PortID
	vtype        model.VesselType
}

// keyDir is the reader-wide key directory: every key's cell membership
// per grouping set plus the OD → cells sub-index, built once by inflating
// the columns of every block into one reused buffer, keeping only the
// keys, and held for the reader's lifetime. It is the segment-side
// equivalent of the heap inventory's lazily built per-shard OD index.
type keyDir struct {
	cells [3][]hexgrid.Cell
	od    map[odKey][]hexgrid.Cell
}

func (r *Reader) directory() (*keyDir, error) {
	r.dirOnce.Do(func() {
		d := &keyDir{od: make(map[odKey][]hexgrid.Cell)}
		var most uint32
		for i := range r.index {
			most = max(most, r.index[i].RawLen)
		}
		buf := make([]byte, most) // one buffer for every block: only the keys are kept
		for i := range r.index {
			bi := &r.index[i]
			p, err := r.inflate(bi, buf[:bi.RawLen], func(*inventory.SealedShard) int { return 0 })
			if err != nil {
				r.dirErr = err
				return
			}
			for g := range p.Len() {
				k := p.Key(g) // a known set: the block parsed
				si := int(k.Set - inventory.GSCell)
				d.cells[si] = append(d.cells[si], k.Cell)
				if k.Set == inventory.GSCellODType {
					ok := odKey{origin: k.Origin, dest: k.Dest, vtype: k.VType}
					d.od[ok] = append(d.od[ok], k.Cell)
				}
			}
		}
		for i := range d.cells { // a cell holds one group per type or OD key
			slices.Sort(d.cells[i])
			d.cells[i] = slices.Compact(d.cells[i])
		}
		for _, cs := range d.od {
			slices.Sort(cs)
		}
		r.dir = d
	})
	return r.dir, r.dirErr
}

// --- inventory.View ---

var _ inventory.View = (*Reader)(nil)

// Info returns the build provenance recorded in the segment header.
func (r *Reader) Info() inventory.BuildInfo { return r.info }

// Len returns the total group count, straight from the footer.
func (r *Reader) Len() int { return int(r.tail.TotalGroups) }

// Get returns the summary for an exact group identifier.
func (r *Reader) Get(key inventory.GroupKey) (*inventory.CellSummary, bool) {
	s, ok, err := r.Lookup(key)
	if err != nil {
		r.fail(err)
		return nil, false
	}
	return s, ok
}

// Cell returns the all-traffic summary of a cell.
func (r *Reader) Cell(cell hexgrid.Cell) (*inventory.CellSummary, bool) {
	return r.Get(inventory.GroupKey{Set: inventory.GSCell, Cell: cell})
}

// CountGroups answers from the footer index's per-set counts — no block
// is read.
func (r *Reader) CountGroups(set inventory.GroupSet) int {
	if set < inventory.GSCell || set > inventory.GSCellODType {
		return 0
	}
	n := 0
	for i := range r.index {
		n += int(r.index[i].NSet[set-inventory.GSCell])
	}
	return n
}

// Cells returns all cells of one grouping set, sorted.
func (r *Reader) Cells(set inventory.GroupSet) []hexgrid.Cell {
	if set < inventory.GSCell || set > inventory.GSCellODType {
		return nil
	}
	d, err := r.directory()
	if err != nil {
		r.fail(err)
		return nil
	}
	return d.cells[set-inventory.GSCell]
}

// Each calls f for every (key, summary) pair.
func (r *Reader) Each(f func(inventory.GroupKey, *inventory.CellSummary) bool) {
	if err := r.eachGroup(f); err != nil {
		r.fail(err)
	}
}

// ODCells returns every cell with traffic for an OD+type key, sorted.
func (r *Reader) ODCells(origin, dest model.PortID, vt model.VesselType) []hexgrid.Cell {
	d, err := r.directory()
	if err != nil {
		r.fail(err)
		return nil
	}
	return d.od[odKey{origin: origin, dest: dest, vtype: vt}]
}

// ODSummary returns the summary for a cell under the OD grouping set.
func (r *Reader) ODSummary(cell hexgrid.Cell, origin, dest model.PortID, vt model.VesselType) (*inventory.CellSummary, bool) {
	return r.Get(inventory.GroupKey{Set: inventory.GSCellODType, Cell: cell, VType: vt, Origin: origin, Dest: dest})
}

// ODTransitions returns the transitions of a cell under the OD grouping
// set, most frequent first, decoding that sketch alone.
func (r *Reader) ODTransitions(cell hexgrid.Cell, origin, dest model.PortID, vt model.VesselType) ([]stats.TopEntry, bool) {
	p, i, ok, err := r.find(inventory.GroupKey{Set: inventory.GSCellODType, Cell: cell, VType: vt, Origin: origin, Dest: dest})
	if ok {
		var t []stats.TopEntry
		if t, err = p.Transitions(i); err == nil {
			return t, true
		}
		err = fmt.Errorf("segment: %v: %w", err, ErrCorrupt)
	}
	r.fail(err)
	return nil, false
}

// TypeSummary returns the summary for a (cell, vessel-type) group.
func (r *Reader) TypeSummary(cell hexgrid.Cell, vt model.VesselType) (*inventory.CellSummary, bool) {
	return r.Get(inventory.GroupKey{Set: inventory.GSCellType, Cell: cell, VType: vt})
}

// Compression returns the Table-4 compression metric for a grouping set.
func (r *Reader) Compression(set inventory.GroupSet) float64 {
	if r.info.RawRecords == 0 {
		return 0
	}
	return 1 - float64(r.CountGroups(set))/float64(r.info.RawRecords)
}

// Utilization returns the Table-4 H3-utilization metric.
func (r *Reader) Utilization() float64 {
	total := hexgrid.NumCells(r.info.Resolution)
	if total == 0 {
		return 0
	}
	return float64(r.CountGroups(inventory.GSCell)) / float64(total) // one GSCell group per cell
}

// Load reads a whole segment file into a heap inventory that holds each
// block as it inflates, as a sealed shard — engine cold start, polserve
// -inv, and the tools and tests that need the concrete type. Every summary
// is decoded once, to refuse a damaged one here, and none is kept. The
// result is shared from the start: it serves reads, and a fold into it
// (MergeFrom) overlays its blocks; Put, Observe and MergeImage panic.
func Load(path string) (*inventory.Inventory, error) {
	r, err := Open(path, Options{})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.adopt()
}

// LoadBytes is Load over a segment image held in memory; name labels
// errors. The result does not alias data.
func LoadBytes(data []byte, name string) (*inventory.Inventory, error) {
	r, err := openBytes(data, name)
	if err != nil {
		return nil, err
	}
	return r.adopt()
}

// adopt inflates every block into a buffer of its own and hands them to
// the heap.
func (r *Reader) adopt() (*inventory.Inventory, error) {
	blocks := make([]*inventory.SealedShard, len(r.index))
	for i := range r.index {
		p, err := r.inflate(&r.index[i], make([]byte, r.index[i].RawLen), func(*inventory.SealedShard) int { return math.MaxInt })
		if err != nil {
			return nil, err
		}
		blocks[i] = p
	}
	inv, err := inventory.Adopt(r.Info(), blocks)
	if err != nil {
		return nil, fmt.Errorf("segment: %v: %w", err, ErrCorrupt)
	}
	if inv.Len() != r.Len() {
		return nil, fmt.Errorf("segment: blocks hold %d groups, footer says %d: %w", inv.Len(), r.Len(), ErrCorrupt)
	}
	return inv, nil
}
