// Ablation benchmarks for the design choices DESIGN.md calls out: grid
// resolution, map-side combining, heavy-hitter capacity, HyperLogLog
// precision and the sparse sketch representation. Each reports the
// quality/size metric it trades against time via b.ReportMetric.
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
	"github.com/patternsoflife/pol/internal/stats"
)

// BenchmarkAblationResolution sweeps the grid resolution (the paper uses 6
// and 7): finer grids cost more groups and build time for more spatial
// detail. Cells and compression are reported per resolution.
func BenchmarkAblationResolution(b *testing.B) {
	l := getLab(b)
	for res := 4; res <= 8; res++ {
		b.Run(fmt.Sprintf("res%d", res), func(b *testing.B) {
			var inv *inventory.Inventory
			for i := 0; i < b.N; i++ {
				inv = l.build(res)
			}
			b.ReportMetric(float64(inv.CountGroups(inventory.GSCell)), "cells")
			b.ReportMetric(inv.Compression(inventory.GSCell)*100, "compression-%")
		})
	}
}

// BenchmarkAblationMapSideCombining compares map-side combining (ReduceByKey:
// partial aggregation before the shuffle, as the pipeline's
// AggregateByKeyHashed does) against a naive GroupByKey that shuffles every
// observation — the design choice that makes
// the paper's reduce phase tractable. Shuffled record counts are reported.
func BenchmarkAblationMapSideCombining(b *testing.B) {
	l := getLab(b)
	// Reuse the pipeline's observation stream: emit (cell-key, 1) pairs at
	// res 6 from the raw tracks.
	mkPairs := func(ctx *dataflow.Context) *dataflow.Dataset[dataflow.Pair[inventory.GroupKey, int]] {
		records := dataflow.Generate(ctx, len(l.tracks), func(i int) []model.PositionRecord { return l.tracks[i] })
		return dataflow.Map(records, "obs", func(r model.PositionRecord) dataflow.Pair[inventory.GroupKey, int] {
			key := inventory.NewGroupKey(inventory.GSCell, cellOf(r), 0, 0, 0)
			return dataflow.Pair[inventory.GroupKey, int]{Key: key, Value: 1}
		})
	}
	b.Run("aggregateByKey", func(b *testing.B) {
		var shuffled int64
		for i := 0; i < b.N; i++ {
			ctx := dataflow.NewContext(0)
			counts := dataflow.ReduceByKey(mkPairs(ctx), "combine", 4, func(a, b int) int { return a + b })
			if _, err := dataflow.Count(counts); err != nil {
				b.Fatal(err)
			}
			shuffled = ctx.Metrics().ShuffledRecords()
		}
		b.ReportMetric(float64(shuffled), "shuffled-records")
	})
	b.Run("groupByKey", func(b *testing.B) {
		var shuffled int64
		for i := 0; i < b.N; i++ {
			ctx := dataflow.NewContext(0)
			groups := dataflow.GroupByKey(mkPairs(ctx), "naive", 4)
			if _, err := dataflow.Count(groups); err != nil {
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
	l := getLab(b)
	build := func(sets []inventory.GroupSet) *inventory.Inventory {
		ctx := dataflow.NewContext(0)
		records := dataflow.Generate(ctx, len(l.tracks), func(i int) []model.PositionRecord { return l.tracks[i] })
		result, err := pipeline.Run(records, l.sim.Fleet().StaticIndex(), l.portIdx,
			pipeline.Options{Resolution: 6, GroupSets: sets})
		if err != nil {
			b.Fatal(err)
		}
		return result.Inventory
	}
	b.Run("cellOnly", func(b *testing.B) {
		var groups int
		for i := 0; i < b.N; i++ {
			groups = build([]inventory.GroupSet{inventory.GSCell}).Len()
		}
		b.ReportMetric(float64(groups), "groups")
	})
	b.Run("allThree", func(b *testing.B) {
		var groups int
		for i := 0; i < b.N; i++ {
			groups = build(inventory.AllGroupSets).Len()
		}
		b.ReportMetric(float64(groups), "groups")
	})
}

func cellOf(r model.PositionRecord) hexgrid.Cell {
	return hexgrid.LatLngToCell(r.Pos, 6)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
