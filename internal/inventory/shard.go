package inventory

import (
	"sync"

	"github.com/patternsoflife/pol/internal/hexgrid"
)

// The inventory's group map is split into ShardCount hash shards so that
// folding a micro-batch costs O(its delta), not O(inventory): MergeFrom
// copies the map of each shard the batch touches, clones only the
// summaries it changes, and shares every other shard, pointer for pointer,
// with the snapshots already published. ShardCount is a power of two so
// shard selection is a mask over GroupKey.Hash64.
//
// 256 shards keeps the per-inventory overhead small (a few KB of headers)
// while making the copied fraction of a mostly-untouched inventory
// ≈ touchedShards/256 — a 2-second micro-batch touching a handful of cells
// copies the maps of well under 1/10th of a large inventory instead of all
// of them.
const ShardCount = 256

// shardFor maps a group key to its shard index.
func shardFor(k GroupKey) int {
	return int(k.Hash64() & (ShardCount - 1))
}

// ShardOf maps a group key to its shard index — the same partitioning the
// in-memory inventory and the on-disk segment blocks share, so one shard's
// groups travel together from the heap to a segment block.
func ShardOf(k GroupKey) int { return shardFor(k) }

// shard is one hash partition of the group map. Once its inventory is
// shared, a shard is immutable except for the lazily built OD sub-index,
// which is mutex-guarded (and, being per shard, is built at most once per
// shard no matter how many snapshots share it): MergeFrom replaces it
// rather than writing it.
type shard struct {
	groups map[GroupKey]*CellSummary
	sets   [GSCellODType]int // groups per grouping set, GSCell first

	// odMu guards the lazy OD sub-index on shared shards. The single
	// writer invalidates od on a shard no reader holds yet without the
	// lock (see the Inventory concurrency contract).
	odMu sync.Mutex
	od   map[odKey][]hexgrid.Cell
}

// add inserts a group the shard lacks, counts it under its set and drops an
// OD sub-index it makes stale — writer-side, so without odMu.
func (sh *shard) add(k GroupKey, s *CellSummary) {
	sh.groups[k] = s
	if k.Set >= GSCell && k.Set <= GSCellODType {
		sh.sets[k.Set-GSCell]++
	}
	if k.Set == GSCellODType {
		sh.od = nil
	}
}

// put adopts s under k, or merges it into the summary k already has, and
// reports whether the group is new — Put's semantics for one shard.
func (sh *shard) put(k GroupKey, s *CellSummary) bool {
	if cur, ok := sh.groups[k]; ok {
		cur.Merge(s)
		return false
	}
	sh.add(k, s)
	return true
}

// odCells returns the cells recorded under the OD grouping set for one
// (origin, dest, vessel-type) key, building the shard's sub-index on first
// use. The returned slice is shared — callers must not mutate it.
func (sh *shard) odCells(k odKey) []hexgrid.Cell {
	sh.odMu.Lock()
	if sh.od == nil {
		sh.od = make(map[odKey][]hexgrid.Cell)
		for gk := range sh.groups {
			if gk.Set == GSCellODType {
				ok := odKey{origin: gk.Origin, dest: gk.Dest, vtype: gk.VType}
				sh.od[ok] = append(sh.od[ok], gk.Cell)
			}
		}
	}
	cells := sh.od[k]
	sh.odMu.Unlock()
	return cells
}
