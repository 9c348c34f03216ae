package inventory

import (
	"bytes"
	"cmp"
	"fmt"
	"sync"

	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/stats"
)

// The inventory's group map is split into ShardCount hash shards so that
// folding a micro-batch costs O(its delta), not O(inventory): MergeFrom
// replaces only the shards the batch touches, and inside each keeps the
// sealed block it had and overlays the summaries it changes; every other
// shard is shared, pointer for pointer, with the snapshots already
// published. ShardCount is a power of two so shard selection is a mask
// over GroupKey.Hash64.
//
// 256 shards keeps the per-inventory overhead small (a few KB of headers)
// while making the copied fraction of a mostly-untouched inventory
// ≈ touchedShards/256 — a 2-second micro-batch touching a handful of cells
// copies the overlays of well under 1/10th of a large inventory instead of
// all of them.
const ShardCount = 256

// resealAt sets when an overlaid shard is sealed again: once its overlay
// holds more than 1/resealAt of its groups. An overlay summary weighs
// about 1 KB on top of its bytes in the block, so at res 6 a folded shard
// holds at most about 350 + 1074/2 ≈ 890 B a group, under the 1 074 of an
// open one.
const resealAt = 2

// shardFor maps a group key to its shard index.
func shardFor(k GroupKey) int {
	return int(k.Hash64() & (ShardCount - 1))
}

// ShardOf maps a group key to its shard index — the same partitioning the
// in-memory inventory and the on-disk segment blocks share, so one shard's
// groups travel together from the heap to a segment block.
func ShardOf(k GroupKey) int { return shardFor(k) }

// shard is one hash partition of the group map. It is open or sealed. An
// open shard (base nil) holds its groups in the map and is written in
// place, until its inventory is shared. A sealed shard holds them as a
// block and is never written again: a fold builds a new shard on the same
// block whose map, the overlay, holds the summaries it changed or added,
// and seals that once the overlay outgrows 1/resealAt. Reads take the overlay
// first, then the block. The lazily built OD sub-index is mutex-guarded
// (and, being per shard, is built at most once per shard no matter how many
// snapshots share it).
type shard struct {
	base   *SealedShard
	groups map[GroupKey]*CellSummary // an open shard's groups, a sealed one's overlay
	n      int                       // groups held, block and overlay
	sets   [GSCellODType]int         // groups per grouping set, GSCell first

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
	sh.n++
	if k.Set >= GSCell && k.Set <= GSCellODType {
		sh.sets[k.Set-GSCell]++
	}
	if k.Set == GSCellODType {
		sh.od = nil
	}
}

// put adopts s under k, or merges it into the summary k already has, and
// reports whether the group is new — Put's semantics for an open shard.
func (sh *shard) put(k GroupKey, s *CellSummary) bool {
	if cur, ok := sh.groups[k]; ok {
		cur.Merge(s)
		return false
	}
	sh.add(k, s)
	return true
}

// find returns where k is: its summary in the overlay, else its position
// in the block (s nil), else ok false.
func (sh *shard) find(k GroupKey) (s *CellSummary, i int, ok bool) {
	if s, ok := sh.groups[k]; ok {
		return s, 0, true
	}
	if sh.base == nil {
		return nil, 0, false
	}
	i, ok = sh.base.Find(k)
	return nil, i, ok
}

// get returns the summary of k: the overlay's, or one decoded from the
// block.
func (sh *shard) get(k GroupKey) (*CellSummary, bool) {
	s, i, ok := sh.find(k)
	if ok && s == nil {
		s = sh.base.mustSummary(i)
	}
	return s, ok
}

// transitions returns the transitions of k, most frequent first: the
// overlay summary's, or those alone decoded from the block.
func (sh *shard) transitions(k GroupKey) ([]stats.TopEntry, bool) {
	s, i, ok := sh.find(k)
	switch {
	case !ok:
		return nil, false
	case s != nil:
		return s.TopTransitions(TopNCapacity), true
	}
	t, err := sh.base.Transitions(i)
	if err != nil {
		panic(err) // see mustSummary
	}
	return t, true
}

// mustSummary decodes a summary of a block an inventory holds: every one
// was encoded here or decoded once by Adopt, so a failure is a broken
// invariant, not bad input.
func (b *SealedShard) mustSummary(i int) *CellSummary {
	s, err := b.Summary(i)
	if err != nil {
		panic(err)
	}
	return s
}

// scan calls f for every group until f returns false — the block's groups
// the overlay does not shadow, then the overlay — and reports whether it
// ran to the end, or the first block summary that will not decode.
func (sh *shard) scan(f func(GroupKey, *CellSummary) bool) (bool, error) {
	if b := sh.base; b != nil {
		for i := range b.n {
			k := b.Key(i)
			if _, over := sh.groups[k]; over {
				continue
			}
			s, err := b.Summary(i)
			if err != nil {
				return false, err
			}
			if !f(k, s) {
				return false, nil
			}
		}
	}
	for k, s := range sh.groups {
		if !f(k, s) {
			return false, nil
		}
	}
	return true, nil
}

// each is scan over a shard the inventory holds, whose summaries all
// decode (see mustSummary).
func (sh *shard) each(f func(GroupKey, *CellSummary) bool) bool {
	done, err := sh.scan(f)
	if err != nil {
		panic(err)
	}
	return done
}

// eachKey calls f once for every key, without decoding a summary.
func (sh *shard) eachKey(f func(GroupKey)) {
	if b := sh.base; b != nil {
		for i := range b.n {
			f(b.Key(i))
		}
	}
	for k := range sh.groups {
		if sh.base == nil {
			f(k)
		} else if _, inBase := sh.base.Find(k); !inBase {
			f(k)
		}
	}
}

// appendBlock appends the shard's column block to dst: the block as held
// when nothing overlays it, else the block's untouched groups copied
// verbatim and the overlay encoded, in key order.
func (sh *shard) appendBlock(dst []byte) []byte {
	b := sh.base
	if b != nil && len(sh.groups) == 0 {
		return append(dst, b.raw...)
	}
	es := make([]blockEntry, 0, sh.n)
	if b != nil {
		for i := range b.n {
			if _, over := sh.groups[b.Key(i)]; over {
				continue
			}
			e := blockEntry{records: b.records(i), body: b.body(i)}
			copy(e.key[:], b.key(i))
			es = append(es, e)
		}
	}
	for k, s := range sh.groups {
		e := blockEntry{s: s}
		appendKey(e.key[:0], k)
		es = append(es, e)
	}
	return appendBlock(dst, es)
}

// seal makes all of shard i's groups its block, encoded once into scratch
// and copied out at its exact size, and empties the overlay. Keys, counts
// and the OD sub-index stay as they were. The shard must be one no reader
// holds yet: an open one, or one a fold has just built.
func (sh *shard) seal(i int) {
	buf := sealScratch.Get().(*[]byte)
	*buf = sh.appendBlock((*buf)[:0])
	sh.base = &SealedShard{shard: i, n: sh.n, raw: bytes.Clone(*buf), full: len(*buf)}
	sh.groups = nil
	sealScratch.Put(buf)
}

// odCells returns the cells recorded under the OD grouping set for one
// (origin, dest, vessel-type) key, building the shard's sub-index on first
// use. The returned slice is shared — callers must not mutate it.
func (sh *shard) odCells(k odKey) []hexgrid.Cell {
	sh.odMu.Lock()
	if sh.od == nil {
		sh.od = make(map[odKey][]hexgrid.Cell)
		sh.eachKey(func(gk GroupKey) {
			if gk.Set == GSCellODType {
				ok := odKey{origin: gk.Origin, dest: gk.Dest, vtype: gk.VType}
				sh.od[ok] = append(sh.od[ok], gk.Cell)
			}
		})
	}
	cells := sh.od[k]
	sh.odMu.Unlock()
	return cells
}

// validate checks shard i against the inventory's resolution: every key's
// set is known, its cell valid at res and its hash selecting i, every
// summary present and, in the block, decoding; and the cached counts match.
func (sh *shard) validate(i, res int) error {
	var sets [GSCellODType]int
	n := 0
	var bad error
	_, err := sh.scan(func(k GroupKey, s *CellSummary) bool {
		n++
		switch {
		case s == nil:
			bad = fmt.Errorf("inventory: nil summary for %v", k)
		case shardFor(k) != i:
			bad = fmt.Errorf("inventory: key %v in shard %d, want %d", k, i, shardFor(k))
		case k.Set < GSCell || k.Set > GSCellODType:
			bad = fmt.Errorf("inventory: unknown grouping set %d", k.Set)
		case !k.Cell.Valid():
			bad = fmt.Errorf("inventory: invalid cell in key %v", k)
		case k.Cell.Resolution() != res:
			bad = fmt.Errorf("inventory: key %v at resolution %d, want %d", k, k.Cell.Resolution(), res)
		default:
			sets[k.Set-GSCell]++
		}
		return bad == nil
	})
	if err = cmp.Or(err, bad); err != nil {
		return err
	}
	if n != sh.n || sets != sh.sets {
		return fmt.Errorf("inventory: shard %d counts %d groups, %v per set; holds %d, %v", i, sh.n, sh.sets, n, sets)
	}
	return nil
}
