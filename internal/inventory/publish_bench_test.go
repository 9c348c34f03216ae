package inventory

import (
	"math/rand"
	"testing"
)

// benchInventory builds a synthetic inventory of n groups spread across the
// shards, plus the key list for delta writes.
func benchInventory(n int) (*Inventory, []GroupKey) {
	rng := rand.New(rand.NewSource(3))
	inv := New(BuildInfo{Resolution: 6})
	keys := randomKeys(rng, n, 6)
	for i, k := range keys {
		inv.Observe(k, testObservation(uint32(200000000+i), int64(i), k.Cell.LatLng()))
	}
	return inv, keys
}

// BenchmarkPublishDelta measures the live engine's tick in isolation: a
// micro-batch period of 16 keys folds into a 20k-group master, which is
// then published. The fold overlays the sealed shards it touches with the
// summaries it changes; the publish is O(ShardCount). This
// is also the CI smoke benchmark (-bench=Publish -benchtime=1x).
func BenchmarkPublishDelta(b *testing.B) {
	const groups, delta = 20000, 16
	master, keys := benchInventory(groups)
	master.Snapshot() // prime: steady-state ticks, not the first seal of every shard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		period := New(BuildInfo{Resolution: 6})
		for j := 0; j < delta; j++ {
			k := keys[(i*delta+j)%len(keys)]
			period.Observe(k, testObservation(uint32(210000000+j), int64(i*delta+j), k.Cell.LatLng()))
		}
		if err := master.MergeFrom(period); err != nil {
			b.Fatal(err)
		}
		snap := master.Snapshot()
		if snap.Len() != master.Len() {
			b.Fatalf("published %d groups, master has %d", snap.Len(), master.Len())
		}
	}
}
