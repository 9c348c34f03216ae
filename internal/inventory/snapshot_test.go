package inventory

import (
	"math/rand"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
)

// randomKeys builds n distinct group keys spread over all grouping sets and
// a wide area, so they land in many different shards.
func randomKeys(rng *rand.Rand, n, res int) []GroupKey {
	seen := make(map[GroupKey]struct{}, n)
	keys := make([]GroupKey, 0, n)
	for len(keys) < n {
		pos := geo.LatLng{Lat: -60 + rng.Float64()*120, Lng: -180 + rng.Float64()*360}
		cell := hexgrid.LatLngToCell(pos, res)
		set := AllGroupSets[rng.Intn(len(AllGroupSets))]
		vt := model.VesselType(1 + rng.Intn(5))
		k := NewGroupKey(set, cell, vt,
			model.PortID(1+rng.Intn(40)), model.PortID(1+rng.Intn(40)))
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// TestEachMatchesPlainMap is the sharding property test: an inventory built
// through the sharded write path must expose, via Each, exactly the key set
// a plain map mirror of the same inserts holds — no key lost to a wrong
// shard, none visited twice.
func TestEachMatchesPlainMap(t *testing.T) {
	const res = 6
	rng := rand.New(rand.NewSource(7))
	inv := New(BuildInfo{Resolution: res})
	mirror := make(map[GroupKey]uint64)

	keys := randomKeys(rng, 3000, res)
	for i, k := range keys {
		pos := k.Cell.LatLng()
		// Some keys get repeated observations.
		reps := 1 + i%3
		for r := 0; r < reps; r++ {
			inv.Observe(k, testObservation(uint32(200000000+i), int64(i*10+r), pos))
			mirror[k]++
		}
	}

	if inv.Len() != len(mirror) {
		t.Fatalf("Len = %d, mirror has %d keys", inv.Len(), len(mirror))
	}
	visited := make(map[GroupKey]struct{}, len(mirror))
	inv.Each(func(k GroupKey, s *CellSummary) bool {
		if _, dup := visited[k]; dup {
			t.Errorf("Each visited %v twice", k)
		}
		visited[k] = struct{}{}
		want, ok := mirror[k]
		if !ok {
			t.Errorf("Each visited unknown key %v", k)
			return true
		}
		if s.Records != want {
			t.Errorf("key %v: records = %d, want %d", k, s.Records, want)
		}
		return true
	})
	if len(visited) != len(mirror) {
		t.Fatalf("Each visited %d keys, want %d", len(visited), len(mirror))
	}
	for k := range mirror {
		if _, ok := inv.Get(k); !ok {
			t.Fatalf("Get(%v) missed a mirrored key", k)
		}
	}
	if err := inv.Validate(); err != nil {
		t.Fatal(err)
	}
	// Early-exit contract: Each stops when f returns false.
	calls := 0
	inv.Each(func(GroupKey, *CellSummary) bool { calls++; return calls < 5 })
	if calls != 5 {
		t.Fatalf("Each made %d calls after early exit, want 5", calls)
	}
}

// TestSnapshotCOW verifies the copy-on-write contract end to end: snapshots
// are immutable while the master keeps mutating, clean shards are shared
// pointer-for-pointer between consecutive snapshots, and dirty shards are
// re-copied.
func TestSnapshotCOW(t *testing.T) {
	const res = 6
	rng := rand.New(rand.NewSource(11))
	master := New(BuildInfo{Resolution: res})
	keys := randomKeys(rng, 2000, res)
	for i, k := range keys {
		master.Observe(k, testObservation(uint32(200000000+i), int64(i), k.Cell.LatLng()))
	}

	s1 := master.Snapshot()
	if s1.Len() != master.Len() {
		t.Fatalf("snapshot len %d, master %d", s1.Len(), master.Len())
	}
	if err := s1.Validate(); err != nil {
		t.Fatal(err)
	}

	// Touch exactly one key: only its shard may be re-copied by the next
	// snapshot; every other shard must be shared with s1.
	touched := keys[0]
	master.Observe(touched, testObservation(209999999, 99999, touched.Cell.LatLng()))

	s2 := master.Snapshot()
	touchedShard := shardFor(touched)
	shared, copied := 0, 0
	for i := range s1.shards {
		if s1.shards[i] == nil && s2.shards[i] == nil {
			continue
		}
		if s1.shards[i] == s2.shards[i] {
			shared++
			continue
		}
		copied++
		if i != touchedShard {
			t.Errorf("shard %d re-copied but only shard %d was dirtied", i, touchedShard)
		}
	}
	if copied != 1 {
		t.Fatalf("snapshot re-copied %d shards (shared %d), want exactly 1", copied, shared)
	}

	// Inside the re-copied shard only the touched summary is duplicated:
	// every other group is shared, pointer for pointer, with s1.
	for k, s := range s2.shards[touchedShard].groups {
		if shared := s == s1.shards[touchedShard].groups[k]; shared == (k == touched) {
			t.Errorf("group %v: shared with the previous snapshot = %v", k, shared)
		}
	}

	// s1 must not have seen the extra observation; s2 must.
	old, _ := s1.Get(touched)
	cur, _ := s2.Get(touched)
	if old.Records != cur.Records-1 {
		t.Fatalf("records: s1=%d s2=%d, want s2 = s1+1", old.Records, cur.Records)
	}

	// The master never shares memory with snapshots: mutating it after the
	// publish must not move any snapshot summary.
	before := cur.Records
	for i := 0; i < 10; i++ {
		master.Observe(touched, testObservation(209999999, int64(100000+i), touched.Cell.LatLng()))
	}
	if cur2, _ := s2.Get(touched); cur2.Records != before {
		t.Fatalf("snapshot summary moved under master writes: %d -> %d", before, cur2.Records)
	}

	// Snapshot of a snapshot is itself (already frozen).
	if s3 := s2.Snapshot(); s3 != s2 {
		t.Fatal("Snapshot of a frozen snapshot should return the receiver")
	}
}

// TestSnapshotFrozen verifies the immutability contract: every write method
// on a published snapshot panics.
func TestSnapshotFrozen(t *testing.T) {
	const res = 6
	master := New(BuildInfo{Resolution: res})
	pos := geo.LatLng{Lat: 30, Lng: 10}
	cell := hexgrid.LatLngToCell(pos, res)
	key := NewGroupKey(GSCell, cell, model.VesselCargo, 1, 2)
	master.Observe(key, testObservation(200000001, 1, pos))
	snap := master.Snapshot()

	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a snapshot did not panic", name)
			}
		}()
		f()
	}
	expectPanic("Observe", func() { snap.Observe(key, testObservation(200000001, 2, pos)) })
	expectPanic("Put", func() { snap.Put(key, NewCellSummary()) })
	expectPanic("SetInfo", func() { snap.SetInfo(BuildInfo{Resolution: res}) })
	expectPanic("MergeFrom", func() { _ = snap.MergeFrom(master) })

	// Reading a frozen snapshot stays legal, including merging FROM it.
	dst := New(BuildInfo{Resolution: res})
	if err := dst.MergeFrom(snap); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != snap.Len() {
		t.Fatalf("merge from snapshot: len %d, want %d", dst.Len(), snap.Len())
	}
}

// TestSnapshotODIndexSharing verifies the per-shard lazy OD index is reused
// across snapshots when the shard is clean, and rebuilt when OD keys land in
// the shard.
func TestSnapshotODIndexSharing(t *testing.T) {
	const res = 6
	master := New(BuildInfo{Resolution: res})
	pos := geo.LatLng{Lat: 40, Lng: -20}
	cell := hexgrid.LatLngToCell(pos, res)
	key := NewGroupKey(GSCellODType, cell, model.VesselCargo, 3, 4)
	master.Observe(key, testObservation(200000001, 1, pos))

	s1 := master.Snapshot()
	got := s1.ODCells(3, 4, model.VesselCargo)
	if len(got) != 1 || got[0] != cell {
		t.Fatalf("ODCells = %v, want [%v]", got, cell)
	}

	// Unrelated (non-OD) write: the OD result set must not change.
	other := geo.Destination(pos, 90, 500000)
	master.Observe(NewGroupKey(GSCell, hexgrid.LatLngToCell(other, res), model.VesselCargo, 0, 0),
		testObservation(200000002, 2, other))
	s2 := master.Snapshot()
	if got := s2.ODCells(3, 4, model.VesselCargo); len(got) != 1 || got[0] != cell {
		t.Fatalf("after non-OD write: ODCells = %v, want [%v]", got, cell)
	}

	// New OD key in a fresh cell: the next snapshot must surface it, and
	// prior snapshots must not.
	far := geo.Destination(pos, 180, 900000)
	farCell := hexgrid.LatLngToCell(far, res)
	master.Observe(NewGroupKey(GSCellODType, farCell, model.VesselCargo, 3, 4),
		testObservation(200000003, 3, far))
	s3 := master.Snapshot()
	if got := s3.ODCells(3, 4, model.VesselCargo); len(got) != 2 {
		t.Fatalf("after OD write: ODCells = %v, want 2 cells", got)
	}
	if got := s1.ODCells(3, 4, model.VesselCargo); len(got) != 1 {
		t.Fatalf("old snapshot grew: ODCells = %v, want 1 cell", got)
	}
}

// TestSnapshotMatchesFullCopy drives a master through rounds of Observe,
// Put and MergeFrom with a Snapshot after each, and holds every snapshot —
// the new one and all earlier ones, which share summaries with it — against
// a from-scratch copy of the master taken at the same moment.
func TestSnapshotMatchesFullCopy(t *testing.T) {
	const res = 6
	rng := rand.New(rand.NewSource(5))
	keys := randomKeys(rng, 600, res)
	master := New(BuildInfo{Resolution: res})
	var snaps, copies []*Inventory
	for round := 0; round < 12; round++ {
		period := New(BuildInfo{Resolution: res})
		for i := 0; i < 80; i++ {
			k := keys[rng.Intn(len(keys))]
			o := testObservation(uint32(200000000+rng.Intn(500)), int64(round*1000+i), k.Cell.LatLng())
			switch rng.Intn(3) {
			case 0:
				master.Observe(k, o)
			case 1:
				s := NewCellSummary()
				s.Add(o)
				master.Put(k, s)
			default:
				period.Observe(k, o)
			}
		}
		if err := master.MergeFrom(period); err != nil {
			t.Fatal(err)
		}
		snaps, copies = append(snaps, master.Snapshot()), append(copies, deepCopy(t, master))
		for i := range snaps {
			if !Equal(snaps[i], copies[i]) {
				t.Fatalf("after round %d: snapshot of round %d differs from the full copy taken with it", round, i)
			}
		}
	}
}
