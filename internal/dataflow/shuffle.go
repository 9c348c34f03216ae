package dataflow

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Repartition redistributes a dataset into n partitions, row r going to
// partition bucket(r), which must lie in [0, n) — the paper's "partition by
// vessel identifier" step. The parent is evaluated exactly once (guarded by
// sync.Once) on first access to any output partition; every input
// partition is bucketed and the buckets concatenated per output partition
// in input-partition order, so rows of one bucket keep their order within
// an input partition.
//
// Each input partition buckets in two passes — count, then fill into one
// contiguous backing array sliced per bucket — so a shuffle performs a
// fixed number of allocations per partition regardless of record count or
// skew. The per-row bucket indexes live in a scratch buffer pooled on the
// Context and reused across shuffles.
//
// The stage's busy time is the bucketing and the merge alone: evaluating
// the parent is the parent stages' time, not the shuffle's.
func Repartition[T any](d *Dataset[T], name string, n int, bucket func(T) int) *Dataset[T] {
	var once sync.Once
	var buckets [][]T // n output partitions
	var shuffleErr error
	labels := pprof.Labels("stage", name)

	runShuffle := func() {
		var busy atomic.Int64
		// Per input partition, bucket locally (no locks), then merge.
		local := make([][][]T, d.nParts)
		shuffleErr = d.ctx.runParallel(d.nParts, func(p int) (err error) {
			defer guard(name, &err)
			rows, err := d.compute(p)
			if err != nil {
				return err
			}
			t0 := time.Now()
			// The bucketing and the merge run under a pprof label so CPU
			// profiles segment by stage name.
			pprof.Do(d.ctx.std, labels, func(context.Context) {
				sc := d.ctx.getScratch(len(rows), n)
				for i, r := range rows {
					sc.idx[i] = int32(bucket(r))
					sc.counts[sc.idx[i]]++
				}
				backing := make([]T, len(rows))
				b := make([][]T, n)
				off := 0
				for j := 0; j < n; j++ {
					b[j] = backing[off : off : off+sc.counts[j]]
					off += sc.counts[j]
				}
				for i, r := range rows {
					j := sc.idx[i]
					b[j] = append(b[j], r)
				}
				d.ctx.putScratch(sc)
				local[p] = b
			})
			busy.Add(int64(time.Since(t0)))
			return nil
		})
		if shuffleErr != nil {
			return
		}
		t0 := time.Now()
		var rows int64
		pprof.Do(d.ctx.std, labels, func(context.Context) {
			if d.nParts == 1 {
				// Single input partition: its buckets are the output.
				buckets = local[0]
				for _, b := range buckets {
					rows += int64(len(b))
				}
			} else {
				buckets = make([][]T, n)
				for i := range buckets {
					total := 0
					for _, lb := range local {
						total += len(lb[i])
					}
					merged := make([]T, 0, total)
					for _, lb := range local {
						merged = append(merged, lb[i]...)
					}
					buckets[i] = merged
					rows += int64(total)
				}
			}
		})
		d.ctx.metrics.Record(name, rows, rows, time.Duration(busy.Load())+time.Since(t0))
		d.ctx.metrics.addShuffle(rows)
	}

	out := &Dataset[T]{ctx: d.ctx, nParts: n}
	out.compute = func(part int) ([]T, error) {
		once.Do(runShuffle)
		if shuffleErr != nil {
			return nil, shuffleErr
		}
		return buckets[part], nil
	}
	return out
}
