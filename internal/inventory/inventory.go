package inventory

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sync"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/stats"
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
// Concurrency contract: writes (Put, Observe, MergeImage, MergeFrom,
// SetInfo) are single-writer and must not run concurrently with readers on
// the same instance. The live-serving pattern is persistent publishing:
// one owner goroutine folds periods into its master with MergeFrom
// and publishes Snapshot() results through an atomic.Pointer[Inventory].
// From its first Snapshot or MergeFrom on, an inventory is shared: it
// seals every shard into its column block (SealedShard) and never writes a
// shard or a summary it holds again, so a snapshot shares all of them with
// the master in O(ShardCount), and master and snapshots hold each group
// once, as its bytes; a fold overlays the summaries it changes (see
// MergeFrom). A read of a sealed group decodes it into a summary of the
// caller's own. The in-place writes Put, Observe and MergeImage panic on a
// shared inventory, and every write panics on a snapshot. Any number of
// goroutines may read a snapshot concurrently — the lazily built per-shard
// OD index is the only internal mutation on the read path and is
// mutex-guarded.
type Inventory struct {
	info   BuildInfo
	shards [ShardCount]*shard // nil until a shard receives its first group
	count  int                // total groups across all shards

	// shared: snapshots or other inventories may hold these shards and
	// summaries, so none is written again (see MergeFrom). frozen: a
	// snapshot, whose every write panics.
	shared, frozen bool
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
		panic("inventory: " + op + " on a published snapshot (snapshots are immutable; fold into the master and re-publish)")
	}
}

// mustOwn guards the in-place writes, which a shared inventory refuses.
func (inv *Inventory) mustOwn(op string) {
	inv.mustWrite(op)
	if inv.shared {
		panic("inventory: " + op + " on a shared inventory (snapshots hold its summaries; fold with MergeFrom)")
	}
}

// writeShard returns shard i, creating it (sized for n groups) if needed.
func (inv *Inventory) writeShard(i, n int) *shard {
	if inv.shards[i] == nil {
		inv.shards[i] = &shard{groups: make(map[GroupKey]*CellSummary, n)}
	}
	return inv.shards[i]
}

// Put inserts or merges a summary under the key. Writer-side only, and
// only before the inventory is shared — see the type's concurrency
// contract.
func (inv *Inventory) Put(key GroupKey, s *CellSummary) {
	inv.mustOwn("Put")
	if inv.writeShard(shardFor(key), 0).put(key, s) {
		inv.count++
	}
}

// Observe folds one observation into the summary of the key, creating the
// group on first sight — the accumulation primitive of the live ingestion
// path (one call per grouping set per accepted trip record, into a period
// inventory). Writer-side only, and only before the inventory is shared.
func (inv *Inventory) Observe(key GroupKey, o Observation) {
	inv.mustOwn("Observe")
	sh := inv.writeShard(shardFor(key), 0)
	s, ok := sh.groups[key]
	if !ok {
		s = NewCellSummary()
		sh.add(key, s)
		inv.count++
	}
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
// MergeFrom never writes a shard or a summary the receiver already holds.
// A shard it changes becomes a new shard on the old one's sealed block,
// whose overlay holds a merged copy of each summary it changes — decoded
// from the block, or cloned from the old overlay — and each group it adds;
// once the overlay outgrows 1/resealAt of the shard's groups, the new
// shard is sealed whole (see seal).
// Groups the receiver lacks are cloned from an open other; a
// shared or frozen other never changes again, so its summaries are shared,
// and a shard the receiver lacks is adopted whole. What the receiver's
// snapshots hold therefore never moves, and New(info).MergeFrom(shared)
// costs O(ShardCount). MergeFrom marks the receiver shared (see share).
//
// MergeFrom is writer-side: it must not run concurrently with any other
// method on the receiver, and an open other must not be mutated during the
// merge; it may be discarded or mutated afterwards.
func (inv *Inventory) MergeFrom(other *Inventory) error {
	inv.mustWrite("MergeFrom")
	if other.info.Resolution != inv.info.Resolution {
		return fmt.Errorf("inventory: merge resolution %d into %d",
			other.info.Resolution, inv.info.Resolution)
	}
	inv.share()
	keep := other.shared
	inv.eachShard(other.count, func(i int) (added int) {
		os, old := other.shards[i], inv.shards[i]
		if os == nil || os.n == 0 {
			return 0
		}
		if old == nil && keep {
			inv.shards[i] = os
			return os.n
		}
		sh := &shard{groups: make(map[GroupKey]*CellSummary, len(os.groups))}
		if old != nil {
			sh.base, sh.n, sh.sets = old.base, old.n, old.sets
			maps.Copy(sh.groups, old.groups)
		}
		os.each(func(k GroupKey, s *CellSummary) bool {
			if cur, ok := sh.groups[k]; ok {
				cur = cur.clone()
				cur.Merge(s)
				sh.groups[k] = cur
				return true
			}
			if sh.base != nil {
				if g, ok := sh.base.Find(k); ok {
					cur := sh.base.mustSummary(g)
					cur.Merge(s)
					sh.groups[k] = cur
					return true
				}
			}
			if !keep && old != nil { // a new shard is sealed below: nothing keeps s
				s = s.clone()
			}
			sh.add(k, s)
			added++
			return true
		})
		if len(sh.groups)*resealAt > sh.n {
			sh.seal(i)
		}
		inv.shards[i] = sh
		return added
	})
	inv.info.RawRecords += other.info.RawRecords
	inv.info.UsedRecords += other.info.UsedRecords
	return nil
}

// share marks the inventory shared. The first time, it seals every shard,
// once: until then writes were in place, and a shared summary must never
// be written again. Sealing encodes a summary, which folds in the points
// pending in its digests, and a read decodes a summary of its own.
func (inv *Inventory) share() {
	if inv.shared {
		return
	}
	inv.shared = true
	inv.eachShard(inv.count, func(i int) int {
		if sh := inv.shards[i]; sh != nil {
			sh.seal(i)
		}
		return 0
	})
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

// Snapshot publishes the current state as a frozen inventory that shares
// every shard and every summary with the receiver, in O(ShardCount) (plus
// the one seal of every shard that marks the receiver shared). The
// result is immutable (its write methods panic) and safe for any number of
// concurrent readers; the receiver may go on folding with MergeFrom at
// once, which never writes what the snapshot holds.
func (inv *Inventory) Snapshot() *Inventory {
	if inv.frozen {
		return inv
	}
	inv.share()
	return &Inventory{info: inv.info, shards: inv.shards, count: inv.count, shared: true, frozen: true}
}

// Get returns the summary for an exact group identifier. On a shared
// inventory the summary is decoded from its shard's block unless a fold
// overlaid it; either way it must not be mutated.
func (inv *Inventory) Get(key GroupKey) (*CellSummary, bool) {
	sh := inv.shards[shardFor(key)]
	if sh == nil {
		return nil, false
	}
	return sh.get(key)
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
		sh.eachKey(func(k GroupKey) {
			if k.Set == set {
				out = append(out, k.Cell)
			}
		})
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Each calls f for every (key, summary) pair, in unspecified order.
func (inv *Inventory) Each(f func(GroupKey, *CellSummary) bool) {
	for _, sh := range inv.shards {
		if sh != nil && !sh.each(f) {
			return
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
// sub-index builds lazily on first use and, because a shard no fold touched
// is shared between snapshots, is reused across publishes instead of being
// rebuilt from the whole inventory. The result is sorted for determinism.
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

// ODTransitions returns the transitions of a cell under the OD grouping
// set, most frequent first: its ODSummary's TopTransitions(TopNCapacity),
// decoding, on a sealed shard, that sketch alone.
func (inv *Inventory) ODTransitions(cell hexgrid.Cell, origin, dest model.PortID, vt model.VesselType) ([]stats.TopEntry, bool) {
	k := GroupKey{Set: GSCellODType, Cell: cell, VType: vt, Origin: origin, Dest: dest}
	sh := inv.shards[shardFor(k)]
	if sh == nil {
		return nil, false
	}
	return sh.transitions(k)
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
// fraction of the cells whose centre lies inside the bounding box that carry
// traffic. On a reduced-scale synthetic dataset the paper's global
// utilization is not reproducible in absolute value; the envelope version
// preserves the res-6 > res-7 shape. Numerator and denominator count the
// same thing, centres in the box, so the ratio lies in [0, 1].
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
	total := cellsCentredIn(box, inv.info.Resolution)
	if total == 0 {
		return 0
	}
	return float64(inside) / float64(total)
}

// cellsCentredIn counts the cells of a resolution whose centre lies in the
// box without listing them: a near-global res-7 box holds tens of millions.
// Centres form the lattice hexgrid tiles the equal-area plane with, flat-top
// hexagons of circumradius s: column q sits at x = 1.5·s·q and its centres
// at y = √3·s·(r + q/2) for every integer r, so each column contributes the
// integers r in an interval. Columns run over the strip [-W/2, W/2); the box
// must not span the antimeridian.
func cellsCentredIn(box geo.BBox, res int) int64 {
	s := hexgrid.EdgeLengthKm(res) * 1e3
	if s == 0 {
		return 0
	}
	lo := geo.ProjectEqualArea(geo.LatLng{Lat: box.MinLat, Lng: box.MinLng})
	hi := geo.ProjectEqualArea(geo.LatLng{Lat: box.MaxLat, Lng: box.MaxLng})
	dx, dy := 1.5*s, math.Sqrt(3)*s
	qHi := math.Min(math.Floor(hi.X/dx), math.Ceil(geo.ProjectionWidth()/2/dx)-1)
	var n int64
	for q := math.Ceil(lo.X / dx); q <= qHi; q++ {
		if rows := math.Floor(hi.Y/dy-q/2) - math.Ceil(lo.Y/dy-q/2) + 1; rows > 0 {
			n += int64(rows)
		}
	}
	return n
}

// Validate performs internal consistency checks (used by tests and by
// Adopt): every key's set is known, cells match the resolution, summaries
// are present and a sealed block's decode, keys live in the shard their
// hash selects, and the cached group counts match the shard contents.
func (inv *Inventory) Validate() error {
	total := 0
	for i, sh := range inv.shards {
		if sh == nil {
			continue
		}
		if err := sh.validate(i, inv.info.Resolution); err != nil {
			return err
		}
		total += sh.n
	}
	if total != inv.count {
		return fmt.Errorf("inventory: cached count %d, shards hold %d", inv.count, total)
	}
	return nil
}
