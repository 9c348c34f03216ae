package inventory

import (
	"sync"

	"github.com/patternsoflife/pol/internal/hexgrid"
)

// The inventory's group map is split into ShardCount hash shards so that
// publishing a live snapshot costs O(micro-batch delta), not O(inventory):
// the single writer tracks which shards a micro-batch touched and Snapshot
// rebuilds only those — duplicating the summaries the batch changed, not
// their untouched neighbours — sharing every clean shard with the previously
// published snapshot. ShardCount is a power of two so shard selection is a
// mask over GroupKey.Hash64.
//
// 256 shards keeps the per-inventory overhead small (a few KB of headers)
// while making the copied fraction of a mostly-clean inventory
// ≈ dirtyShards/256 — a 2-second micro-batch touching a handful of cells
// republishes well under 1/10th of a large inventory instead of all of it.
const ShardCount = 256

// shardFor maps a group key to its shard index.
func shardFor(k GroupKey) int {
	return int(k.Hash64() & (ShardCount - 1))
}

// ShardOf maps a group key to its shard index — the same partitioning the
// in-memory inventory, the dataflow shuffle and the on-disk segment blocks
// all share, so one shard's groups travel together across every layer.
func ShardOf(k GroupKey) int { return shardFor(k) }

// shard is one hash partition of the group map. Shards, and summaries that
// did not change from one to the next, are shared between published
// snapshots: once published they are immutable except for the
// lazily built OD sub-index, which is mutex-guarded (and, being per shard,
// is built at most once per shard copy no matter how many snapshots share
// it). The writer's private shards are never shared — see
// Inventory.Snapshot.
type shard struct {
	groups map[GroupKey]*CellSummary
	sets   [GSCellODType]int // groups per grouping set, GSCell first

	// odMu guards the lazy OD sub-index on shared (published) shards.
	// The single writer invalidates od on its private shards without the
	// lock: writes never run concurrently with reads on the same instance
	// (see the Inventory concurrency contract).
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
func (sh *shard) put(k GroupKey, s *CellSummary, epoch uint64) bool {
	if cur, ok := sh.groups[k]; ok {
		cur.Merge(s)
		cur.stamp = epoch
		return false
	}
	s.stamp = epoch
	sh.add(k, s)
	return true
}

// publish returns the immutable copy of the writer's shard sh that the next
// snapshot serves: fresh map, every summary stamped epoch or later (changed
// since the previous snapshot) duplicated, every other one shared with
// prev, the copy that snapshot served (nil if there was none). The OD
// sub-index is not copied; it rebuilds lazily on first query of the copy.
func (sh *shard) publish(prev *shard, epoch uint64) *shard {
	var old map[GroupKey]*CellSummary
	if prev != nil {
		old = prev.groups
	}
	c := &shard{groups: make(map[GroupKey]*CellSummary, len(sh.groups)), sets: sh.sets}
	for k, s := range sh.groups {
		d := old[k]
		if d == nil || s.stamp >= epoch {
			d = NewCellSummary()
			d.Merge(s)
		}
		c.groups[k] = d
	}
	return c
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
