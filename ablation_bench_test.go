// Ablation benchmarks for the design choices DESIGN.md §6 calls out: grid
// resolution, map-side combining, heavy-hitter capacity, HyperLogLog
// precision, the sparse sketch representation and the three grouping sets.
// Each reports the quality/size metric it trades against time via
// b.ReportMetric. Run with:
//
//	go test -run '^$' -bench=Ablation -benchmem
package pol_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/patternsoflife/pol/internal/dataflow"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/stats"
	"github.com/patternsoflife/pol/internal/testutil"
)

// ablationFleet is the simulated fleet the data-driven ablations build on.
var ablationFleet = sim.Config{Vessels: 30, Days: 15, Seed: 1}

// records is a fixture's raw stream, one partition per vessel in fleet order.
func records(f *testutil.Fixture, ctx *dataflow.Context) *dataflow.Dataset[model.PositionRecord] {
	vessels := f.Sim.Fleet().Vessels
	return dataflow.Generate(ctx, len(vessels), func(i int) []model.PositionRecord { return f.Tracks[vessels[i].MMSI] })
}

// rebuild runs the pipeline over a fixture's records again.
func rebuild(b *testing.B, f *testutil.Fixture, idx *ports.Index, opt pipeline.Options) *inventory.Inventory {
	result, err := pipeline.Run(records(f, dataflow.NewContext(0)), f.Sim.Fleet().StaticIndex(), idx, opt)
	if err != nil {
		b.Fatal(err)
	}
	return result.Inventory
}

// BenchmarkAblationResolution sweeps the grid resolution (the paper uses 6
// and 7): finer grids cost more groups and build time for more spatial
// detail. Cells and compression are reported per resolution.
func BenchmarkAblationResolution(b *testing.B) {
	f := testutil.Build(b, ablationFleet, 6)
	idx := ports.NewIndex(f.Sim.Gazetteer(), ports.IndexResolution)
	for res := 4; res <= 8; res++ {
		b.Run(fmt.Sprintf("res%d", res), func(b *testing.B) {
			var inv *inventory.Inventory
			for i := 0; i < b.N; i++ {
				inv = rebuild(b, f, idx, pipeline.Options{Resolution: res})
			}
			b.ReportMetric(float64(inv.CountGroups(inventory.GSCell)), "cells")
			b.ReportMetric(inv.Compression(inventory.GSCell)*100, "compression-%")
		})
	}
}

// BenchmarkAblationMapSideCombining compares map-side combining
// (AggregateByKeyHashed, what pipeline.Run uses: partial counts before the
// shuffle) against shuffling every pair (RepartitionByKey) over the same
// (cell-key, 1) pairs — the design choice that makes the paper's reduce
// phase tractable. Shuffled record counts are reported.
func BenchmarkAblationMapSideCombining(b *testing.B) {
	f := testutil.Build(b, ablationFleet, 6)
	pairs := func(ctx *dataflow.Context) *dataflow.Dataset[dataflow.Pair[inventory.GroupKey, int]] {
		return dataflow.Map(records(f, ctx), "obs", func(r model.PositionRecord) dataflow.Pair[inventory.GroupKey, int] {
			key := inventory.NewGroupKey(inventory.GSCell, hexgrid.LatLngToCell(r.Pos, 6), 0, 0, 0)
			return dataflow.Pair[inventory.GroupKey, int]{Key: key, Value: 1}
		})
	}
	sum := func(a, b int) int { return a + b }
	b.Run("aggregateByKey", func(b *testing.B) {
		var shuffled int64
		for i := 0; i < b.N; i++ {
			ctx := dataflow.NewContext(0)
			counts := dataflow.AggregateByKeyHashed(pairs(ctx), "combine", 4, inventory.GroupKey.Hash64, func() int { return 0 }, sum, sum)
			if _, err := dataflow.Collect(counts); err != nil {
				b.Fatal(err)
			}
			shuffled = ctx.Metrics().ShuffledRecords()
		}
		b.ReportMetric(float64(shuffled), "shuffled-records")
	})
	b.Run("repartitionByKey", func(b *testing.B) {
		var shuffled int64
		for i := 0; i < b.N; i++ {
			ctx := dataflow.NewContext(0)
			rows := dataflow.RepartitionByKey(pairs(ctx), "naive", 4)
			if _, err := dataflow.Collect(rows); err != nil {
				b.Fatal(err)
			}
			shuffled = ctx.Metrics().ShuffledRecords()
		}
		b.ReportMetric(float64(shuffled), "shuffled-records")
	})
}

// BenchmarkAblationTopNCapacity sweeps the Space-Saving capacity used for
// the destination feature: small capacities are cheaper but can misrank the
// long tail. Reports the rank-1 agreement with exact counting over skewed
// synthetic streams.
func BenchmarkAblationTopNCapacity(b *testing.B) {
	for _, capacity := range []int{4, 8, 16, 64} {
		b.Run(fmt.Sprintf("cap%d", capacity), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			agree := 0
			trials := 0
			for i := 0; i < b.N; i++ {
				s := stats.NewTopN(capacity)
				exact := map[uint64]uint64{}
				// A Zipf-ish destination distribution over 60 ports.
				zipf := rand.NewZipf(rng, 1.3, 1, 59)
				for j := 0; j < 20000; j++ {
					k := zipf.Uint64()
					s.Add(k)
					exact[k]++
				}
				var bestExact uint64
				var bestKey uint64
				for k, c := range exact {
					if c > bestExact || (c == bestExact && k < bestKey) {
						bestExact, bestKey = c, k
					}
				}
				top := s.Top(1)
				trials++
				if len(top) > 0 && top[0].Key == bestKey {
					agree++
				}
			}
			b.ReportMetric(float64(agree)/float64(trials)*100, "rank1-agreement-%")
		})
	}
}

// BenchmarkAblationHLLPrecision sweeps the HyperLogLog precision used for
// distinct ships/trips: smaller sketches cost accuracy. Reports the
// relative error at 50k distinct values and the encoded size.
func BenchmarkAblationHLLPrecision(b *testing.B) {
	for _, p := range []uint8{8, 11, 14} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			var relErr float64
			var size int
			for i := 0; i < b.N; i++ {
				h := stats.NewHyperLogLog(p)
				const n = 50000
				for v := uint64(0); v < n; v++ {
					h.AddUint64(v ^ uint64(i)<<32)
				}
				est := float64(h.Estimate())
				relErr = abs(est-n) / n
				size = len(h.AppendBinary(nil))
			}
			b.ReportMetric(relErr*100, "rel-err-%")
			b.ReportMetric(float64(size), "encoded-bytes")
		})
	}
}

// BenchmarkAblationSparseHLL measures the memory win of the sparse sketch
// representation at inventory-typical cardinalities (most cells see a
// handful of ships).
func BenchmarkAblationSparseHLL(b *testing.B) {
	for _, n := range []int{3, 30, 300, 3000} {
		b.Run(fmt.Sprintf("distinct%d", n), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				h := stats.NewHyperLogLog(stats.HLLPrecision)
				for v := 0; v < n; v++ {
					h.AddUint64(uint64(v))
				}
				size = len(h.AppendBinary(nil))
			}
			b.ReportMetric(float64(size), "encoded-bytes")
		})
	}
}

// BenchmarkAblationGroupSets compares building only the (cell) grouping
// set against all three — the cost of the paper's full Table-2 inventory.
func BenchmarkAblationGroupSets(b *testing.B) {
	f := testutil.Build(b, ablationFleet, 6)
	idx := ports.NewIndex(f.Sim.Gazetteer(), ports.IndexResolution)
	b.Run("cellOnly", func(b *testing.B) {
		var groups int
		for i := 0; i < b.N; i++ {
			groups = rebuild(b, f, idx, pipeline.Options{Resolution: 6, GroupSets: []inventory.GroupSet{inventory.GSCell}}).Len()
		}
		b.ReportMetric(float64(groups), "groups")
	})
	b.Run("allThree", func(b *testing.B) {
		var groups int
		for i := 0; i < b.N; i++ {
			groups = rebuild(b, f, idx, pipeline.Options{Resolution: 6}).Len()
		}
		b.ReportMetric(float64(groups), "groups")
	})
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
