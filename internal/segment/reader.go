package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/patternsoflife/pol/internal/deflate"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
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
// O(inventory) — and every query lazily loads, CRC-verifies and
// inflates just the shard blocks it touches, keeping the hottest
// maxPinned of them pinned in an LRU.
//
// Reader implements inventory.View, so the api layer serves from it
// interchangeably with the heap inventory. The View methods cannot
// return errors; on a corrupt block they report the group as absent,
// count the failure in Metrics, and retain the first error for Err().
// Lookup is Get with the error returned: the tests that must tell "absent"
// from "damaged" call it; no program code does.
//
// A Reader is safe for concurrent use. Summaries returned from queries
// are shared and must not be mutated, matching the frozen-snapshot
// contract of the heap path.
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

// pinnedShard is one decompressed, parsed column block. Immutable after
// load except for the lazily memoized summary decodes, which are
// mutex-guarded.
type pinnedShard struct {
	n       int
	keys    []byte   // n × EncodedKeyLen, ascending
	records []byte   // n × u64
	offs    []uint32 // n+1 offsets into blob
	blob    []byte

	mu   sync.Mutex
	sums []*inventory.CellSummary // memoized decodes, nil until first Get
}

func (p *pinnedShard) memBytes() int64 {
	return int64(len(p.keys) + len(p.records) + len(p.blob) + 4*len(p.offs))
}

func (p *pinnedShard) key(i int) []byte {
	return p.keys[i*inventory.EncodedKeyLen : (i+1)*inventory.EncodedKeyLen]
}

// summary decodes (and memoizes) the i-th summary.
func (p *pinnedShard) summary(i int) (*inventory.CellSummary, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sums == nil {
		p.sums = make([]*inventory.CellSummary, p.n)
	}
	if s := p.sums[i]; s != nil {
		return s, nil
	}
	body := p.blob[p.offs[i]:p.offs[i+1]]
	s, rest, err := inventory.DecodeCellSummary(body)
	if err != nil {
		return nil, fmt.Errorf("segment: summary %d: %v: %w", i, err, ErrCorrupt)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("segment: summary %d: %d trailing bytes: %w", i, len(rest), ErrCorrupt)
	}
	p.sums[i] = s
	return s, nil
}

// loadRaw inflates and parses one block without touching the cache. The
// block lands in buf when it is big enough, and the shard then aliases it.
func (r *Reader) loadRaw(bi *BlockInfo, buf []byte) (*pinnedShard, error) {
	comp, err := r.compressedBlock(bi)
	if err != nil {
		return nil, err
	}
	if cap(buf) < int(bi.RawLen) {
		buf = make([]byte, bi.RawLen)
	}
	raw := buf[:bi.RawLen]
	if err := deflate.Inflate(raw, comp); err != nil { // RawLen must be the stream's exact length
		return nil, fmt.Errorf("segment: shard %d inflate: %v: %w", bi.Shard, err, ErrCorrupt)
	}
	return parseBlock(bi, raw)
}

func parseBlock(bi *BlockInfo, raw []byte) (*pinnedShard, error) {
	bad := func(what string) error {
		return fmt.Errorf("segment: shard %d %s: %w", bi.Shard, what, ErrCorrupt)
	}
	if len(raw) < 4 {
		return nil, bad("block header")
	}
	n := int(binary.LittleEndian.Uint32(raw))
	if uint32(n) != bi.NGroups {
		return nil, bad("group count")
	}
	need := 4 + n*inventory.EncodedKeyLen + n*8 + (n+1)*4
	if n < 0 || len(raw) < need {
		return nil, bad("column geometry")
	}
	p := &pinnedShard{n: n}
	raw = raw[4:]
	p.keys, raw = raw[:n*inventory.EncodedKeyLen], raw[n*inventory.EncodedKeyLen:]
	p.records, raw = raw[:n*8], raw[n*8:]
	p.offs = make([]uint32, n+1)
	for i := range p.offs {
		p.offs[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	p.blob = raw[(n+1)*4:]
	for i := 0; i < n; i++ {
		if p.offs[i] > p.offs[i+1] {
			return nil, bad("offset column order")
		}
		if i > 0 && bytes.Compare(p.key(i-1), p.key(i)) >= 0 {
			return nil, bad("key column order")
		}
	}
	if int(p.offs[n]) != len(p.blob) {
		return nil, bad("blob length")
	}
	return p, nil
}

// pin returns the decompressed block for a shard through the LRU.
func (r *Reader) pin(shard int) (*pinnedShard, error) {
	bi := r.byShard[shard]
	if bi < 0 {
		return nil, nil
	}
	return r.cache.get(shard, r.metrics, func() (*pinnedShard, error) {
		return r.loadRaw(&r.index[bi], nil)
	})
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
// one block: binary search over the shard's sorted key column.
func (r *Reader) Lookup(key inventory.GroupKey) (*inventory.CellSummary, bool, error) {
	p, err := r.pin(inventory.ShardOf(key))
	if err != nil || p == nil {
		return nil, false, err
	}
	want := inventory.AppendKey(nil, key)
	i := sort.Search(p.n, func(i int) bool {
		return bytes.Compare(p.key(i), want) >= 0
	})
	if i >= p.n || !bytes.Equal(p.key(i), want) {
		return nil, false, nil
	}
	s, err := p.summary(i)
	if err != nil {
		return nil, false, err
	}
	return s, true, nil
}

// eachGroup streams every (key, summary) pair in global key order
// (ascending shard, then ascending key), stopping early if f returns
// false. Blocks are loaded transiently — a full scan does not evict the
// query-path LRU.
func (r *Reader) eachGroup(f func(inventory.GroupKey, *inventory.CellSummary) bool) error {
	for i := range r.index {
		bi := &r.index[i]
		p, err := r.cache.peek(bi.Shard)
		if err != nil || p == nil {
			// Not pinned (or pinned-load failed): load outside the cache.
			if p, err = r.loadRaw(bi, nil); err != nil {
				return err
			}
		}
		for g := 0; g < p.n; g++ {
			k, err := inventory.DecodeKey(p.key(g))
			if err != nil {
				return fmt.Errorf("segment: shard %d key %d: %v: %w", bi.Shard, g, err, ErrCorrupt)
			}
			s, err := p.summary(g)
			if err != nil {
				return err
			}
			if !f(k, s) {
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
// every block whole into one reused buffer, keeping only the keys, and
// held for the reader's lifetime. It is the segment-side equivalent of the heap
// inventory's lazily built per-shard OD index.
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
			p, err := r.loadRaw(bi, buf)
			if err != nil {
				r.dirErr = err
				return
			}
			for g := 0; g < p.n; g++ {
				k, err := inventory.DecodeKey(p.key(g))
				if err != nil {
					r.dirErr = fmt.Errorf("segment: shard %d key %d: %v: %w", bi.Shard, g, err, ErrCorrupt)
					return
				}
				if k.Set < inventory.GSCell || k.Set > inventory.GSCellODType {
					r.dirErr = fmt.Errorf("segment: shard %d unknown grouping set %d: %w", bi.Shard, k.Set, ErrCorrupt)
					return
				}
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

// Load materializes a whole segment file into a mutable heap inventory —
// engine cold start, polserve -inv, and the tools and tests that need the
// concrete type.
func Load(path string) (*inventory.Inventory, error) {
	r, err := Open(path, Options{})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.materialize()
}

// LoadBytes is Load over a segment image held in memory; name labels
// errors. The result does not alias data.
func LoadBytes(data []byte, name string) (*inventory.Inventory, error) {
	r, err := openBytes(data, name)
	if err != nil {
		return nil, err
	}
	return r.materialize()
}

func (r *Reader) materialize() (*inventory.Inventory, error) {
	inv := inventory.New(r.Info())
	err := r.eachGroup(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		inv.Put(k, s)
		return true
	})
	if err != nil {
		return nil, err
	}
	if inv.Len() != r.Len() {
		return nil, fmt.Errorf("segment: materialized %d groups, footer says %d: %w", inv.Len(), r.Len(), ErrCorrupt)
	}
	if err := inv.Validate(); err != nil {
		return nil, fmt.Errorf("segment: %v: %w", err, ErrCorrupt)
	}
	return inv, nil
}
