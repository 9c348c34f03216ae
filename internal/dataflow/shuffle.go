package dataflow

import (
	"cmp"
	"context"
	"iter"
	"math"
	"runtime/pprof"
	"slices"
	"sync"
	"time"
)

// ShuffleRuns groups a dataset by key into n partitions and applies f to
// each partition's key runs: the paper's "partition by vessel identifier"
// step (the stage called name) fused with the per-vessel work after it (the
// stage called stage). The rows of key k go to partition bucket(k), which
// must lie in [0, n). f receives its partition's runs one at a time, keys
// ascending, each run its key's rows in input order (input partitions by
// index, rows as they come). The parent is evaluated exactly once (guarded
// by sync.Once) on first access to any output partition.
//
// The shuffle never holds a second copy of the dataset. One counting pass
// lays the keys out by (bucket, key) and notes where each row goes, four
// bytes a row; each run is then copied out of the input into a buffer its
// partition reuses for the next run. A run is f's to reorder or overwrite,
// and valid until f asks for the next one; the input is never written.
//
// The shuffle's busy time is the counting pass and the run copies alone
// (evaluating the parent is the parent stages' time); stage's is the rest
// of f's. A panic in f is the error of stage.
func ShuffleRuns[T, U any, K cmp.Ordered](d *Dataset[T], name string, n int, key func(T) K, bucket func(K) int,
	stage string, f func(part int, runs iter.Seq[[]T]) []U) *Dataset[U] {
	var once sync.Once
	var in [][]T
	var ix runIndex
	var shuffleErr error
	runShuffle := func() {
		in = make([][]T, d.nParts)
		shuffleErr = d.ctx.runParallel(d.nParts, func(p int) (err error) {
			defer guard(name, &err)
			in[p], err = d.compute(p)
			return err
		})
		if shuffleErr != nil {
			return
		}
		t0 := time.Now()
		// Under a pprof label, so CPU profiles segment by stage name.
		pprof.Do(d.ctx.std, pprof.Labels("stage", name), func(context.Context) {
			defer guard(name, &shuffleErr)
			ix = indexRuns(in, n, key, bucket)
		})
		if shuffleErr == nil {
			d.ctx.metrics.Record(name, 0, 0, time.Since(t0))
			d.ctx.metrics.addShuffle(int64(len(ix.rows)))
		}
	}

	out := &Dataset[U]{ctx: d.ctx, nParts: n}
	out.compute = func(part int) (res []U, err error) {
		if once.Do(runShuffle); shuffleErr != nil {
			return nil, shuffleErr
		}
		defer guard(stage, &err)
		var buf []T
		var copying time.Duration
		runs := func(yield func([]T) bool) {
			for r := ix.parts[part]; r < ix.parts[part+1]; r++ {
				t0, p := time.Now(), 0
				buf = buf[:0]
				for _, i := range ix.rows[ix.runs[r]:ix.runs[r+1]] {
					for int(i) >= ix.starts[p+1] {
						p++ // a run's rows ascend through the input
					}
					buf = append(buf, in[p][int(i)-ix.starts[p]])
				}
				if copying += time.Since(t0); !yield(buf) {
					return
				}
			}
		}
		t0 := time.Now()
		res = f(part, runs)
		rows := int64(ix.runs[ix.parts[part+1]] - ix.runs[ix.parts[part]])
		d.ctx.metrics.Record(name, rows, rows, copying)
		d.ctx.metrics.Record(stage, rows, int64(len(res)), time.Since(t0)-copying)
		return res, nil
	}
	return out
}

// runIndex is where ShuffleRuns' counting pass puts each row, numbering
// the rows in input order: the input partitions concatenated.
type runIndex struct {
	starts []int   // input partition p's rows are numbered from starts[p]; the last entry is the total
	rows   []int32 // the rows' numbers in run order
	runs   []int   // run r is rows[runs[r]:runs[r+1]]
	parts  []int   // output partition p's runs are parts[p] to parts[p+1]
}

// indexRuns is ShuffleRuns' counting pass.
func indexRuns[T any, K cmp.Ordered](in [][]T, n int, key func(T) K, bucket func(K) int) runIndex {
	ix := runIndex{starts: make([]int, len(in)+1), parts: make([]int, n+1)}
	ids := make(map[K]int) // key → its index in keys and next
	var keys []K
	var next []int // rows of each key, then the slot its next row goes to
	for p, rows := range in {
		for _, r := range rows {
			id, ok := ids[key(r)]
			if !ok {
				id, ids[key(r)] = len(keys), len(keys)
				keys, next = append(keys, key(r)), append(next, 0)
			}
			next[id]++
		}
		ix.starts[p+1] = ix.starts[p] + len(rows)
	}
	if ix.starts[len(in)] > math.MaxInt32 {
		panic("a shuffle numbers its rows in 31 bits")
	}
	order := make([]int, len(keys)) // ids by (bucket, key)
	buckets := make([]int, len(keys))
	for id, k := range keys {
		order[id], buckets[id] = id, bucket(k)
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(buckets[a], buckets[b]), cmp.Compare(keys[a], keys[b]))
	})
	size := ix.parts[1:] // each bucket's runs; an out-of-range bucket panics here
	ix.runs = make([]int, len(order)+1)
	for r, id := range order {
		size[buckets[id]]++
		ix.runs[r+1] = ix.runs[r] + next[id]
		next[id] = ix.runs[r]
	}
	for p := range n {
		ix.parts[p+1] += ix.parts[p]
	}
	ix.rows = make([]int32, ix.starts[len(in)])
	for p, rows := range in {
		for j, r := range rows {
			id := ids[key(r)]
			ix.rows[next[id]] = int32(ix.starts[p] + j)
			next[id]++
		}
	}
	return ix
}
