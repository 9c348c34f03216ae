package inventory

import (
	"bytes"
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

// fold merges a period holding one observation per key into master — the
// live engine's tick without the journal.
func fold(t testing.TB, master *Inventory, t0 int64, keys ...GroupKey) {
	t.Helper()
	period := New(BuildInfo{Resolution: master.Info().Resolution})
	for i, k := range keys {
		period.Observe(k, testObservation(209999999, t0+int64(i), k.Cell.LatLng()))
	}
	if err := master.MergeFrom(period); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCOW verifies the sharing contract end to end: a snapshot
// holds the master's own shards, a fold touching one key replaces only that
// key's shard and, inside it, only that key's summary, and no snapshot
// moves under later folds.
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
	if s1.shards != master.shards {
		t.Fatal("snapshot does not share the master's shards")
	}

	// Fold exactly one key: only its shard may be replaced; every other
	// shard must be shared with s1.
	touched := keys[0]
	fold(t, master, 99999, touched)

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
			t.Errorf("shard %d replaced but only shard %d was folded into", i, touchedShard)
		}
	}
	if copied != 1 {
		t.Fatalf("fold replaced %d shards (shared %d), want exactly 1", copied, shared)
	}

	// Inside the replaced shard only the touched summary is new: the shard
	// keeps s1's sealed block and overlays that one summary, or — once the
	// overlay outgrows resealAt — is sealed again with nothing over it;
	// either way every other group reads as it did in s1.
	sh1, sh2 := s1.shards[touchedShard], s2.shards[touchedShard]
	if _, ok := sh2.groups[touched]; (sh2.base == sh1.base && (!ok || len(sh2.groups) > 1)) || (sh2.base != sh1.base && len(sh2.groups) > 0) {
		t.Errorf("the fold left %d groups over the block, want only the touched one, or none after a re-seal", len(sh2.groups))
	}
	if sh2.base != sh1.base && (len(sh1.groups)+1)*resealAt <= sh1.n {
		t.Errorf("the fold re-sealed a shard whose overlay (%d of %d groups) did not outgrow 1/%d", len(sh1.groups)+1, sh1.n, resealAt)
	}
	sh2.each(func(k GroupKey, s *CellSummary) bool {
		was, _ := sh1.get(k)
		if same := bytes.Equal(s.AppendBinary(nil), was.AppendBinary(nil)); same == (k == touched) {
			t.Errorf("group %v: reads as in the previous snapshot = %v", k, same)
		}
		return true
	})

	// s1 must not have seen the extra observation; s2 must.
	old, _ := s1.Get(touched)
	cur, _ := s2.Get(touched)
	if old.Records != cur.Records-1 {
		t.Fatalf("records: s1=%d s2=%d, want s2 = s1+1", old.Records, cur.Records)
	}

	// Later folds into the master move no earlier snapshot.
	before := cur.Records
	for i := range 10 {
		fold(t, master, int64(100000+i), touched)
	}
	if cur2, _ := s2.Get(touched); cur2.Records != before {
		t.Fatalf("snapshot summary moved under master folds: %d -> %d", before, cur2.Records)
	}
	if old2, _ := s1.Get(touched); !bytes.Equal(old2.AppendBinary(nil), old.AppendBinary(nil)) || old2.Records != before-1 {
		t.Fatalf("first snapshot moved under master folds: %d records", old2.Records)
	}

	// Snapshot of a snapshot is itself (already frozen).
	if s3 := s2.Snapshot(); s3 != s2 {
		t.Fatal("Snapshot of a frozen snapshot should return the receiver")
	}
}

// TestSnapshotFrozen verifies the immutability contract: every write method
// on a published snapshot panics, and so do the in-place writes on the
// master it was published from.
func TestSnapshotFrozen(t *testing.T) {
	const res = 6
	master := New(BuildInfo{Resolution: res})
	pos := geo.LatLng{Lat: 30, Lng: 10}
	cell := hexgrid.LatLngToCell(pos, res)
	key := NewGroupKey(GSCell, cell, model.VesselCargo, 1, 2)
	master.Observe(key, testObservation(200000001, 1, pos))
	snap := master.Snapshot()
	image, err := Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("Observe on a snapshot", func() { snap.Observe(key, testObservation(200000001, 2, pos)) })
	expectPanic("Put on a snapshot", func() { snap.Put(key, NewCellSummary()) })
	expectPanic("MergeImage on a snapshot", func() { _ = snap.MergeImage(image) })
	expectPanic("SetInfo on a snapshot", func() { snap.SetInfo(BuildInfo{Resolution: res}) })
	expectPanic("MergeFrom on a snapshot", func() { _ = snap.MergeFrom(master) })
	expectPanic("Observe on a shared master", func() { master.Observe(key, testObservation(200000001, 2, pos)) })
	expectPanic("Put on a shared master", func() { master.Put(key, NewCellSummary()) })
	expectPanic("MergeImage on a shared master", func() { _ = master.MergeImage(image) })

	// Reading a frozen snapshot stays legal, including merging FROM it,
	// and so does folding into the master and re-stamping its info.
	dst := New(BuildInfo{Resolution: res})
	if err := dst.MergeFrom(snap); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != snap.Len() {
		t.Fatalf("merge from snapshot: len %d, want %d", dst.Len(), snap.Len())
	}
	fold(t, master, 3, key)
	master.SetInfo(BuildInfo{Resolution: res, Description: "re-stamped"})
	if s, _ := snap.Get(key); s.Records != 1 {
		t.Fatalf("snapshot moved under a master fold: %d records", s.Records)
	}
}

// TestMergeIntoEmptySharesShards pins the re-base copy at O(ShardCount): a
// fresh inventory merged from a shared master adopts every shard pointer
// for pointer, and a fold into the copy moves neither the master nor its
// snapshot.
func TestMergeIntoEmptySharesShards(t *testing.T) {
	const res = 6
	rng := rand.New(rand.NewSource(17))
	master := New(BuildInfo{Resolution: res})
	keys := randomKeys(rng, 3000, res)
	for i, k := range keys {
		master.Observe(k, testObservation(uint32(200000000+i), int64(i), k.Cell.LatLng()))
	}
	snap := master.Snapshot()
	want := fullCopy(t, snap)

	c := New(master.Info())
	if err := c.MergeFrom(master); err != nil {
		t.Fatal(err)
	}
	if c.shards != master.shards || c.Len() != master.Len() {
		t.Fatalf("copy of the master holds other shards (%d groups, master %d)", c.Len(), master.Len())
	}
	fold(t, c, 1, keys[:50]...)
	if !Equal(master, want) || !Equal(snap, want) {
		t.Fatal("a fold into the copy moved the master or its snapshot")
	}
	if c.shards == master.shards {
		t.Fatal("a fold into the copy left every shard shared")
	}
}

// TestSnapshotODIndexSharing verifies the per-shard lazy OD index survives
// on shards a fold does not touch, and that a fold adding OD keys to a
// shard surfaces them in the next snapshot only.
func TestSnapshotODIndexSharing(t *testing.T) {
	const res = 6
	master := New(BuildInfo{Resolution: res})
	pos := geo.LatLng{Lat: 40, Lng: -20}
	cell := hexgrid.LatLngToCell(pos, res)
	key := NewGroupKey(GSCellODType, cell, model.VesselCargo, 3, 4)
	fold(t, master, 1, key)

	s1 := master.Snapshot()
	got := s1.ODCells(3, 4, model.VesselCargo)
	if len(got) != 1 || got[0] != cell {
		t.Fatalf("ODCells = %v, want [%v]", got, cell)
	}
	odShard := s1.shards[shardFor(key)]

	// Unrelated (non-OD) fold into another shard: the OD result set must
	// not change, and the OD shard keeps the index s1's query built.
	var other GroupKey
	for d := 100000.0; ; d += 100000 {
		other = NewGroupKey(GSCell, hexgrid.LatLngToCell(geo.Destination(pos, 90, d), res), model.VesselCargo, 0, 0)
		if shardFor(other) != shardFor(key) {
			break
		}
	}
	fold(t, master, 2, other)
	s2 := master.Snapshot()
	if got := s2.ODCells(3, 4, model.VesselCargo); len(got) != 1 || got[0] != cell {
		t.Fatalf("after non-OD fold: ODCells = %v, want [%v]", got, cell)
	}
	if sh := s2.shards[shardFor(key)]; sh != odShard || sh.od == nil {
		t.Fatal("the OD index of an untouched shard did not survive the fold")
	}

	// New OD key in a fresh cell: the next snapshot must surface it, and
	// prior snapshots must not.
	far := geo.Destination(pos, 180, 900000)
	farCell := hexgrid.LatLngToCell(far, res)
	fold(t, master, 3, NewGroupKey(GSCellODType, farCell, model.VesselCargo, 3, 4))
	s3 := master.Snapshot()
	if got := s3.ODCells(3, 4, model.VesselCargo); len(got) != 2 {
		t.Fatalf("after OD fold: ODCells = %v, want 2 cells", got)
	}
	if got := s1.ODCells(3, 4, model.VesselCargo); len(got) != 1 {
		t.Fatalf("old snapshot grew: ODCells = %v, want 1 cell", got)
	}
}

// fullCopy builds a copy of inv that shares no memory with it, through its
// wire image.
func fullCopy(t testing.TB, inv *Inventory) *Inventory {
	t.Helper()
	image, err := Marshal(inv)
	if err != nil {
		t.Fatal(err)
	}
	c := New(inv.Info())
	if err := c.MergeImage(image); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSnapshotMatchesFullCopy drives a master through rounds of MergeFrom
// — open periods and frozen ones — with a Snapshot after each, and holds
// every snapshot — the new one and all earlier ones, which share summaries
// with it — against a copy of the master that shares no memory with it,
// taken at the same moment.
func TestSnapshotMatchesFullCopy(t *testing.T) {
	const res = 6
	rng := rand.New(rand.NewSource(5))
	keys := randomKeys(rng, 600, res)
	master := New(BuildInfo{Resolution: res})
	var snaps, copies []*Inventory
	for round := range 12 {
		period := New(BuildInfo{Resolution: res})
		for i := range 80 {
			k := keys[rng.Intn(len(keys))]
			period.Observe(k, testObservation(uint32(200000000+rng.Intn(500)), int64(round*1000+i), k.Cell.LatLng()))
		}
		if round%3 == 2 {
			period = period.Snapshot()
		}
		if err := master.MergeFrom(period); err != nil {
			t.Fatal(err)
		}
		snaps, copies = append(snaps, master.Snapshot()), append(copies, fullCopy(t, master))
		for i := range snaps {
			if !Equal(snaps[i], copies[i]) {
				t.Fatalf("after round %d: snapshot of round %d differs from the full copy taken with it", round, i)
			}
		}
	}
}
