package inventory

import (
	"math/rand"
	"testing"
)

// refMaster is the writer's master as it stood before it shared its
// summaries with its snapshots, kept as the reference the sharing master is
// held to. Observe, Put and MergeFrom write its summaries in place, so it
// never shares memory with a snapshot, and Snapshot copies what changed
// since the previous one: dirty marks the shards written since then, pub
// holds the copies it published, epoch counts the Snapshots taken and
// stamps every summary a write changes (the field CellSummary.stamp was),
// so a dirty shard re-copies only those.
type refMaster struct {
	info   BuildInfo
	shards [ShardCount]map[GroupKey]*CellSummary
	count  int
	dirty  [ShardCount]bool
	pub    []*shard
	epoch  uint64
	stamp  map[*CellSummary]uint64
}

func newRefMaster(info BuildInfo) *refMaster {
	return &refMaster{info: info, stamp: make(map[*CellSummary]uint64)}
}

// writeShard returns shard i, creating it if needed, and marks it dirty
// for the next Snapshot.
func (m *refMaster) writeShard(i int) map[GroupKey]*CellSummary {
	if m.shards[i] == nil {
		m.shards[i] = make(map[GroupKey]*CellSummary)
	}
	m.dirty[i] = true
	return m.shards[i]
}

func (m *refMaster) Put(key GroupKey, s *CellSummary) {
	g := m.writeShard(shardFor(key))
	if cur, ok := g[key]; ok {
		cur.Merge(s)
		m.stamp[cur] = m.epoch
		return
	}
	g[key] = s
	m.stamp[s] = m.epoch
	m.count++
}

func (m *refMaster) Observe(key GroupKey, o Observation) {
	g := m.writeShard(shardFor(key))
	s, ok := g[key]
	if !ok {
		s = NewCellSummary()
		g[key] = s
		m.count++
	}
	m.stamp[s] = m.epoch
	s.Add(o)
}

// MergeFrom merges in place: other's summaries are deep-copied into groups
// the master lacks and merged into the ones it has.
func (m *refMaster) MergeFrom(other *Inventory) {
	other.Each(func(k GroupKey, s *CellSummary) bool {
		g := m.writeShard(shardFor(k))
		cur, ok := g[k]
		if ok {
			cur.Merge(s)
		} else {
			cur = s.clone()
			g[k] = cur
			m.count++
		}
		m.stamp[cur] = m.epoch
		return true
	})
	m.info.RawRecords += other.info.RawRecords
	m.info.UsedRecords += other.info.UsedRecords
}

// Snapshot publishes in O(delta): dirty shards are re-copied, duplicating
// the summaries stamped since the previous Snapshot and sharing the rest
// with the copy that Snapshot published; clean shards are shared whole.
func (m *refMaster) Snapshot() *Inventory {
	if m.pub == nil {
		m.pub = make([]*shard, ShardCount)
	}
	snap := &Inventory{info: m.info, count: m.count, shared: true, frozen: true}
	for i, g := range m.shards {
		if g == nil {
			continue
		}
		if m.dirty[i] || m.pub[i] == nil {
			m.pub[i] = m.publish(g, m.pub[i])
			m.dirty[i] = false
		}
		snap.shards[i] = m.pub[i]
	}
	m.epoch++
	return snap
}

// publish returns the immutable copy of the master's shard g: every
// summary stamped this epoch duplicated, every other one shared with prev.
func (m *refMaster) publish(g map[GroupKey]*CellSummary, prev *shard) *shard {
	var old map[GroupKey]*CellSummary
	if prev != nil {
		old = prev.groups
	}
	c := &shard{groups: make(map[GroupKey]*CellSummary, len(g))}
	for k, s := range g {
		d := old[k]
		if d == nil || m.stamp[s] >= m.epoch {
			d = s.clone()
		}
		c.add(k, d)
	}
	return c
}

// SegmentRoundTrip writes an inventory as a POLSEG1 segment and loads it
// back (segment.Write, then segment.LoadBytes, which adopts the blocks as
// sealed shards). The segment package imports this one, so the external
// test package sets it (footprint_test.go).
var SegmentRoundTrip func(*Inventory) (*Inventory, error)

// TestSharedMasterMatchesReference folds the same seeded periods into a
// sharing master and into refMaster and holds every snapshot of the one
// bit-exact (Equal) to the other's taken at the same moment. The masters
// start from the same groups, written in place by Observe and Put; the periods cover all three
// grouping sets, groups new to the master and groups it has, open periods
// and frozen ones (whose summaries the sharing master adopts), one period
// large enough for the shard-parallel fold, and folds with no publish
// between them. The sharing master's shards are sealed from its first fold
// on: folds overlay them, and the run must see overlays kept and overlays
// that passed 1/resealAt of their shard re-sealed. A third of the way in
// the master is replaced by its restore from a segment (SegmentRoundTrip),
// as a cold start or a heap replica's bootstrap makes it, and folding goes
// on into that. At the end every earlier snapshot is checked again: none
// may have moved under a later fold.
func TestSharedMasterMatchesReference(t *testing.T) {
	const res, periods = 6, 48
	rng := rand.New(rand.NewSource(39))
	pool := randomKeys(rng, 3*parallelMergeThreshold/2+2000, res)
	seen := pool[:300]
	obs := func(k GroupKey) Observation {
		o := testObservation(uint32(200000000+rng.Intn(400)), rng.Int63n(1e7), k.Cell.LatLng())
		o.Rec.SOG, o.Rec.COG = rng.Float64()*20, rng.Float64()*360
		return o
	}

	info := BuildInfo{Resolution: res}
	master, ref := New(info), newRefMaster(info)
	for i, k := range seen {
		if i%2 == 0 {
			o := obs(k)
			master.Observe(k, o)
			ref.Observe(k, o)
			continue
		}
		a, b := NewCellSummary(), NewCellSummary()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			o := obs(k)
			a.Add(o)
			b.Add(o)
		}
		master.Put(k, a)
		ref.Put(k, b)
	}

	var snaps, refs []*Inventory
	var overlaid, resealed int // folds into a sealed shard that kept its block, and that re-sealed it
	for p := range periods {
		period := New(BuildInfo{Resolution: res, RawRecords: int64(p), UsedRecords: 1})
		n := 20 + rng.Intn(200)
		if p == periods/2 {
			n = 3 * parallelMergeThreshold / 2
		}
		for range n {
			fresh := rng.Intn(3) == 0
			if n > parallelMergeThreshold {
				fresh = rng.Intn(4) > 0
			}
			k := seen[rng.Intn(len(seen))]
			if fresh && len(seen) < len(pool) {
				k, seen = pool[len(seen)], pool[:len(seen)+1]
			}
			period.Observe(k, obs(k))
		}
		if p%5 == 4 {
			period = period.Snapshot()
		}
		before := master.shards
		if err := master.MergeFrom(period); err != nil {
			t.Fatal(err)
		}
		ref.MergeFrom(period)
		for i, sh := range master.shards {
			if was := before[i]; was != nil && sh != was && was.base != nil {
				if sh.base == was.base {
					overlaid++
				} else {
					resealed++
				}
			}
		}
		if p == periods/3 {
			restored, err := SegmentRoundTrip(master)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(restored, master) || restored.Info() != master.Info() {
				t.Fatalf("period %d: the master restored from its segment differs from it", p)
			}
			master = restored
		}
		if p%4 == 3 {
			continue // fold again before publishing
		}
		s, r := master.Snapshot(), ref.Snapshot()
		if !Equal(s, r) || s.Info() != r.Info() {
			t.Fatalf("period %d: snapshot differs from the reference's", p)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		snaps, refs = append(snaps, s), append(refs, r)
	}
	for i := range snaps {
		if !Equal(snaps[i], refs[i]) {
			t.Fatalf("snapshot %d moved under a later fold", i)
		}
	}
	t.Logf("folds into sealed shards: %d kept their block, %d re-sealed", overlaid, resealed)
	if overlaid == 0 || resealed == 0 {
		t.Fatalf("folds overlaid %d sealed shards and re-sealed %d: both must happen", overlaid, resealed)
	}
}
