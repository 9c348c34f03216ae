package inventory

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
)

// BuildInfo records the provenance of an inventory.
type BuildInfo struct {
	Resolution  int    // hexgrid resolution of all cells
	RawRecords  int64  // records entering the pipeline
	UsedRecords int64  // trip-annotated records aggregated
	BuiltUnix   int64  // build timestamp
	Description string // free-form dataset description
}

// Inventory is the in-memory global inventory: group identifier →
// statistical summary, hash-sharded into ShardCount partitions.
//
// Concurrency contract: writes (Put, Observe, MergeFrom, SetInfo) are
// single-writer and must not run concurrently with readers on the same
// instance. The live-serving pattern is copy-on-write publishing: one owner
// goroutine mutates a private master inventory and publishes Snapshot()
// results through an atomic.Pointer[Inventory]. A snapshot re-copies only
// the summaries changed since the previous snapshot and shares every clean
// shard, and every clean summary of a dirty one, with it, so publish cost
// is proportional to the micro-batch delta, not the inventory size.
// Snapshots are frozen: their write methods panic, and any number of
// goroutines may read one concurrently — the lazily built per-shard OD
// index is the only internal mutation on the read path and is
// mutex-guarded.
type Inventory struct {
	info   BuildInfo
	shards [ShardCount]*shard // nil until a shard receives its first group
	count  int                // total groups across all shards

	// Writer-side copy-on-write state (unused on frozen snapshots):
	// dirty marks shards mutated since the last Snapshot; pub holds the
	// immutable copies the last Snapshot published, reused verbatim for
	// clean shards by the next one. epoch counts the Snapshots taken and
	// stamps every summary a write changes, so a dirty shard re-copies
	// only those.
	dirty  [ShardCount]bool
	pub    []*shard
	epoch  uint64
	frozen bool
}

type odKey struct {
	origin, dest model.PortID
	vtype        model.VesselType
}

// New returns an empty inventory with the given build info.
func New(info BuildInfo) *Inventory {
	return &Inventory{info: info}
}

// Info returns the build provenance.
func (inv *Inventory) Info() BuildInfo { return inv.info }

// SetInfo replaces the build provenance (used by builders).
func (inv *Inventory) SetInfo(info BuildInfo) {
	inv.mustWrite("SetInfo")
	inv.info = info
}

// Len returns the number of groups across all grouping sets.
func (inv *Inventory) Len() int { return inv.count }

// mustWrite enforces the snapshot immutability contract.
func (inv *Inventory) mustWrite(op string) {
	if inv.frozen {
		panic("inventory: " + op + " on a published snapshot (snapshots are immutable; mutate the master and re-publish)")
	}
}

// writeShard returns shard i, creating it (sized for n groups) if needed
// and marking it dirty for the next Snapshot.
func (inv *Inventory) writeShard(i, n int) *shard {
	sh := inv.shards[i]
	if sh == nil {
		sh = &shard{groups: make(map[GroupKey]*CellSummary, n)}
		inv.shards[i] = sh
	}
	inv.dirty[i] = true
	return sh
}

// Put inserts or merges a summary under the key. Writer-side only — see
// the type's concurrency contract.
func (inv *Inventory) Put(key GroupKey, s *CellSummary) {
	inv.mustWrite("Put")
	if inv.writeShard(shardFor(key), 0).put(key, s, inv.epoch) {
		inv.count++
	}
}

// Observe folds one observation into the summary of the key, creating the
// group on first sight — the accumulation primitive of the live ingestion
// path (one call per grouping set per accepted trip record). Writer-side
// only.
func (inv *Inventory) Observe(key GroupKey, o Observation) {
	inv.mustWrite("Observe")
	sh := inv.writeShard(shardFor(key), 0)
	s, ok := sh.groups[key]
	if !ok {
		s = NewCellSummary()
		sh.add(key, s)
		inv.count++
	}
	s.stamp = inv.epoch
	s.Add(o)
}

// parallelMergeThreshold is the source-inventory size from which MergeFrom
// fans the per-shard merges out across goroutines. Micro-batch period
// inventories stay below it and merge serially; monthly-build-sized merges
// amortize the goroutine overhead many times over.
const parallelMergeThreshold = 4096

// MergeFrom folds another inventory of the same resolution into this one —
// the incremental-update path: periodic (micro-batch or monthly) builds
// merge into a running inventory without re-scanning raw data, because
// every Table-3 statistic is a mergeable sketch. Both inventories shard by
// the same hash, so shard i of other merges only into shard i of the
// receiver; large merges run shard-by-shard in parallel. It returns an
// error on resolution mismatch.
//
// MergeFrom is writer-side: it must not run concurrently with any other
// method on the receiver, and other must not be mutated during the merge
// (reading other, including a frozen snapshot, is fine). Summaries from
// other are deep-copied, so other may be discarded or mutated afterwards.
func (inv *Inventory) MergeFrom(other *Inventory) error {
	inv.mustWrite("MergeFrom")
	if other.info.Resolution != inv.info.Resolution {
		return fmt.Errorf("inventory: merge resolution %d into %d",
			other.info.Resolution, inv.info.Resolution)
	}
	inv.eachShard(other.count, func(i int) (added int) {
		os := other.shards[i]
		if os == nil || len(os.groups) == 0 {
			return 0
		}
		sh := inv.writeShard(i, len(os.groups))
		for k, s := range os.groups {
			cur, ok := sh.groups[k]
			if !ok {
				cur = NewCellSummary()
				sh.add(k, cur)
				added++
			}
			cur.Merge(s)
			cur.stamp = inv.epoch
		}
		return added
	})
	inv.info.RawRecords += other.info.RawRecords
	inv.info.UsedRecords += other.info.UsedRecords
	return nil
}

// eachShard runs fold once per shard index — fanned out over GOMAXPROCS
// goroutines, each taking every workers-th shard, when the source holds
// at least parallelMergeThreshold groups — and adds the groups the folds
// report new to the count. A fold touches its own shard only.
func (inv *Inventory) eachShard(groups int, fold func(i int) (added int)) {
	var added [ShardCount]int
	workers := min(runtime.GOMAXPROCS(0), ShardCount)
	if workers < 2 || groups < parallelMergeThreshold {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < ShardCount; i += workers {
				added[i] = fold(i)
			}
		}()
	}
	wg.Wait()
	for _, n := range added {
		inv.count += n
	}
}

// Snapshot publishes the current state as a frozen inventory in O(delta):
// in shards dirtied since the previous Snapshot the changed summaries are
// deep-copied; clean shards, and the unchanged summaries of dirty ones, are
// shared, pointer-for-pointer, with the previously published snapshot.
// The result is immutable (its write methods panic) and safe for any
// number of concurrent readers; the master may keep mutating immediately —
// it never shares memory with its snapshots.
func (inv *Inventory) Snapshot() *Inventory {
	if inv.frozen {
		return inv
	}
	if inv.pub == nil {
		inv.pub = make([]*shard, ShardCount)
	}
	snap := &Inventory{info: inv.info, count: inv.count, frozen: true}
	for i := range inv.shards {
		sh := inv.shards[i]
		if sh == nil {
			continue
		}
		if inv.dirty[i] || inv.pub[i] == nil {
			inv.pub[i] = sh.publish(inv.pub[i], inv.epoch)
			inv.dirty[i] = false
		}
		snap.shards[i] = inv.pub[i]
	}
	inv.epoch++
	return snap
}

// Get returns the summary for an exact group identifier.
func (inv *Inventory) Get(key GroupKey) (*CellSummary, bool) {
	sh := inv.shards[shardFor(key)]
	if sh == nil {
		return nil, false
	}
	s, ok := sh.groups[key]
	return s, ok
}

// Cell returns the all-traffic summary of a cell (grouping set GSCell).
func (inv *Inventory) Cell(cell hexgrid.Cell) (*CellSummary, bool) {
	return inv.Get(GroupKey{Set: GSCell, Cell: cell})
}

// At returns the all-traffic summary of the cell containing the given
// location at the inventory's resolution — the paper's "query for a
// specific location".
func (inv *Inventory) At(p geo.LatLng) (*CellSummary, bool) {
	return inv.Cell(hexgrid.LatLngToCell(p, inv.info.Resolution))
}

// CountGroups returns the number of groups in one grouping set, kept per shard.
func (inv *Inventory) CountGroups(set GroupSet) int {
	if set < GSCell || set > GSCellODType {
		return 0
	}
	n := 0
	for _, sh := range inv.shards {
		if sh != nil {
			n += sh.sets[set-GSCell]
		}
	}
	return n
}

// Cells returns all cells of one grouping set, sorted for determinism and
// without repeats (a cell holds one group per vessel type or OD key).
func (inv *Inventory) Cells(set GroupSet) []hexgrid.Cell {
	var out []hexgrid.Cell
	for _, sh := range inv.shards {
		if sh == nil {
			continue
		}
		for k := range sh.groups {
			if k.Set == set {
				out = append(out, k.Cell)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Each calls f for every (key, summary) pair, in unspecified order.
func (inv *Inventory) Each(f func(GroupKey, *CellSummary) bool) {
	for _, sh := range inv.shards {
		if sh == nil {
			continue
		}
		for k, s := range sh.groups {
			if !f(k, s) {
				return
			}
		}
	}
}

// MostFrequentDestination returns the top destination of a cell's
// all-traffic summary (Figure 6's query).
func (inv *Inventory) MostFrequentDestination(cell hexgrid.Cell) (model.PortID, uint64, bool) {
	s, ok := inv.Cell(cell)
	if !ok {
		return model.NoPort, 0, false
	}
	port, count := s.TopDestination()
	return port, count, port != model.NoPort
}

// ODCells returns every cell that has traffic for the (origin, destination,
// vessel-type) key — the paper's route-forecasting retrieval ("the full set
// of possible transition locations for the selected key"). Each shard's OD
// sub-index builds lazily on first use and, because clean shards are shared
// between snapshots, is reused across publishes instead of being rebuilt
// from the whole inventory. The result is sorted for determinism.
func (inv *Inventory) ODCells(origin, dest model.PortID, vt model.VesselType) []hexgrid.Cell {
	k := odKey{origin: origin, dest: dest, vtype: vt}
	var out []hexgrid.Cell
	for _, sh := range inv.shards {
		if sh == nil {
			continue
		}
		if cells := sh.odCells(k); len(cells) > 0 {
			out = append(out, cells...)
		}
	}
	slices.Sort(out)
	return out
}

// ODSummary returns the summary for a cell under the OD grouping set.
func (inv *Inventory) ODSummary(cell hexgrid.Cell, origin, dest model.PortID, vt model.VesselType) (*CellSummary, bool) {
	return inv.Get(GroupKey{Set: GSCellODType, Cell: cell, VType: vt, Origin: origin, Dest: dest})
}

// TypeSummary returns the summary for a cell under the (cell, vessel-type)
// grouping set.
func (inv *Inventory) TypeSummary(cell hexgrid.Cell, vt model.VesselType) (*CellSummary, bool) {
	return inv.Get(GroupKey{Set: GSCellType, Cell: cell, VType: vt})
}

// Compression returns the paper's Table-4 compression metric for a grouping
// set: the fraction of raw records saved by querying groups instead of
// scanning records, 1 − groups/records.
func (inv *Inventory) Compression(set GroupSet) float64 {
	if inv.info.RawRecords == 0 {
		return 0
	}
	return 1 - float64(inv.CountGroups(set))/float64(inv.info.RawRecords)
}

// Utilization returns the paper's Table-4 H3-utilization metric: the
// fraction of all grid cells at the inventory resolution that carry
// traffic. It counts GSCell groups, not cells: a GSCell key is {Set, Cell},
// all else zero (NewGroupKey, Cell), so that set holds one group per cell.
func (inv *Inventory) Utilization() float64 {
	total := hexgrid.NumCells(inv.info.Resolution)
	if total == 0 {
		return 0
	}
	return float64(inv.CountGroups(GSCell)) / float64(total)
}

// CoverageUtilization returns utilization within a coverage envelope: the
// fraction of cells inside the bounding box that carry traffic. On a
// reduced-scale synthetic dataset the paper's global utilization is not
// reproducible in absolute value; the envelope version preserves the
// res-6 > res-7 shape.
func (inv *Inventory) CoverageUtilization(box geo.BBox) float64 {
	cells := inv.Cells(GSCell)
	if len(cells) == 0 {
		return 0
	}
	inside := 0
	for _, c := range cells {
		if box.Contains(c.LatLng()) {
			inside++
		}
	}
	total := len(hexgrid.CoverBBox(box, inv.info.Resolution))
	if total == 0 {
		return 0
	}
	return float64(inside) / float64(total)
}

// Validate performs internal consistency checks (used by tests and the
// file loader): every key's set is known, cells match the resolution,
// summaries are non-nil, keys live in the shard their hash selects, and
// the cached group counts match the shard contents.
func (inv *Inventory) Validate() error {
	total := 0
	for i, sh := range inv.shards {
		if sh == nil {
			continue
		}
		total += len(sh.groups)
		var sets [GSCellODType]int
		for k, s := range sh.groups {
			if s == nil {
				return fmt.Errorf("inventory: nil summary for %v", k)
			}
			if shardFor(k) != i {
				return fmt.Errorf("inventory: key %v in shard %d, want %d", k, i, shardFor(k))
			}
			switch k.Set {
			case GSCell, GSCellType, GSCellODType:
				sets[k.Set-GSCell]++
			default:
				return fmt.Errorf("inventory: unknown grouping set %d", k.Set)
			}
			if !k.Cell.Valid() {
				return fmt.Errorf("inventory: invalid cell in key %v", k)
			}
			if k.Cell.Resolution() != inv.info.Resolution {
				return fmt.Errorf("inventory: key %v at resolution %d, want %d",
					k, k.Cell.Resolution(), inv.info.Resolution)
			}
		}
		if sets != sh.sets {
			return fmt.Errorf("inventory: shard %d counts %v groups per set, holds %v", i, sh.sets, sets)
		}
	}
	if total != inv.count {
		return fmt.Errorf("inventory: cached count %d, shards hold %d", inv.count, total)
	}
	return nil
}
