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

// BenchmarkPublishDelta measures the serving-publish step in isolation: a
// micro-batch delta of 16 keys lands on a 20k-group master, then the state
// is published as a copy-on-write snapshot, which pays only for the few
// dirtied shards. This is also the CI smoke benchmark (-bench=Publish
// -benchtime=1x).
func BenchmarkPublishDelta(b *testing.B) {
	const groups, delta = 20000, 16
	master, keys := benchInventory(groups)
	master.Snapshot() // prime: steady-state publishes, not the first full copy
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < delta; j++ {
			k := keys[(i*delta+j)%len(keys)]
			master.Observe(k, testObservation(uint32(210000000+j), int64(i*delta+j), k.Cell.LatLng()))
		}
		snap := master.Snapshot()
		if snap.Len() != master.Len() {
			b.Fatalf("published %d groups, master has %d", snap.Len(), master.Len())
		}
	}
}
