package dataflow

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"
	"unsafe"
)

// Hasher is a typed key-hash function for shuffle partitioning. Typed
// hashers keep the keyed hot path allocation-free: hashing through a
// concrete func(K) uint64 never boxes the key, where the any-typed HashKey
// heap-allocates most non-trivial keys once per record.
type Hasher[K comparable] func(K) uint64

// hash64er matches key types carrying their own hash (inventory.GroupKey).
type hash64er interface{ Hash64() uint64 }

// HasherFor returns the best Hasher for K, selected once at call time:
// scalar and string keys hash directly with no per-record boxing; types
// implementing Hash64 use it (boxing only the interface conversion); other
// types fall back to HashKey. Hot paths with a custom key type should pass
// the method expression (for example inventory.GroupKey.Hash64) to the
// *Hashed shuffle variants instead — that is allocation-free for any type.
func HasherFor[K comparable]() Hasher[K] {
	var zero K
	switch any(zero).(type) {
	case uint64:
		return viewHasher[K](func(v uint64) uint64 { return mix64(v) })
	case uint32:
		return viewHasher[K](func(v uint32) uint64 { return mix64(uint64(v)) })
	case int:
		return viewHasher[K](func(v int) uint64 { return mix64(uint64(int64(v))) })
	case int64:
		return viewHasher[K](func(v int64) uint64 { return mix64(uint64(v)) })
	case int32:
		return viewHasher[K](func(v int32) uint64 { return mix64(uint64(int64(v))) })
	case string:
		return viewHasher[K](func(v string) uint64 { return hashString(v) })
	}
	if _, ok := any(zero).(hash64er); ok {
		return func(k K) uint64 { return any(k).(hash64er).Hash64() }
	}
	return func(k K) uint64 { return HashKey(k) }
}

// viewHasher reinterprets a key of static type K as its dynamic type T.
// Each call site sits in a HasherFor switch arm that only executes when
// K's dynamic type is exactly T, so the layouts are identical by
// construction and the cast is sound; it exists to hash scalar keys
// without boxing them through any.
func viewHasher[K comparable, T any](f func(T) uint64) Hasher[K] {
	return func(k K) uint64 { return f(*(*T)(unsafe.Pointer(&k))) }
}

// HashKey maps a key of any common identifier type to a well-distributed
// uint64, deterministically across runs. It is the untyped fallback behind
// HasherFor; passing keys through any boxes them, so per-record paths
// should use a Hasher instead. Unsupported key types hash via their
// formatted representation.
func HashKey(k any) uint64 {
	switch v := k.(type) {
	case uint64:
		return mix64(v)
	case uint32:
		return mix64(uint64(v))
	case int:
		return mix64(uint64(int64(v)))
	case int64:
		return mix64(uint64(v))
	case int32:
		return mix64(uint64(int64(v)))
	case string:
		return hashString(v)
	case hash64er:
		return v.Hash64()
	default:
		return hashString(fmt.Sprint(k))
	}
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return mix64(h)
}

// shuffle hash-partitions a keyed dataset into n buckets. The parent is
// evaluated exactly once (guarded by sync.Once) on first access to any
// output partition; every input partition is bucketed by key hash and the
// buckets concatenated per output partition. Records with equal keys always
// land in the same output partition.
//
// Each input partition buckets in two passes — count, then fill into one
// contiguous backing array sliced per bucket — so a shuffle performs a
// fixed number of allocations per partition regardless of record count or
// skew. The per-row bucket indexes live in a scratch buffer pooled on the
// Context and reused across shuffles.
func shuffle[K comparable, V any](d *Dataset[Pair[K, V]], name string, n int, hash Hasher[K]) *Dataset[Pair[K, V]] {
	if n < 1 {
		n = d.ctx.parallelism
	}
	var once sync.Once
	var buckets [][]Pair[K, V] // n output partitions
	var shuffleErr error

	runShuffle := func() {
		t0 := time.Now()
		// Per input partition, bucket locally (no locks), then merge.
		local := make([][][]Pair[K, V], d.nParts)
		shuffleErr = d.ctx.runParallel(d.nParts, func(p int) error {
			rows, err := d.compute(p)
			if err != nil {
				return err
			}
			sc := d.ctx.getScratch(len(rows), n)
			for i, r := range rows {
				sc.idx[i] = int32(hash(r.Key) % uint64(n))
				sc.counts[sc.idx[i]]++
			}
			backing := make([]Pair[K, V], len(rows))
			b := make([][]Pair[K, V], n)
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
			return nil
		})
		if shuffleErr != nil {
			return
		}
		var rows int64
		if d.nParts == 1 {
			// Single input partition: its buckets are the output.
			buckets = local[0]
			for _, b := range buckets {
				rows += int64(len(b))
			}
		} else {
			buckets = make([][]Pair[K, V], n)
			for i := range buckets {
				total := 0
				for _, lb := range local {
					total += len(lb[i])
				}
				merged := make([]Pair[K, V], 0, total)
				for _, lb := range local {
					merged = append(merged, lb[i]...)
				}
				buckets[i] = merged
				rows += int64(total)
			}
		}
		d.ctx.metrics.add(name, rows, rows, time.Since(t0))
		d.ctx.metrics.addShuffle(rows)
	}

	out := &Dataset[Pair[K, V]]{ctx: d.ctx, nParts: n}
	out.compute = func(part int) ([]Pair[K, V], error) {
		// The whole shuffle (bucket + merge, the build's hottest path) runs
		// under a pprof label so CPU profiles segment by stage name.
		once.Do(func() {
			pprof.Do(d.ctx.std, pprof.Labels("stage", name), func(context.Context) {
				runShuffle()
			})
		})
		if shuffleErr != nil {
			return nil, shuffleErr
		}
		return buckets[part], nil
	}
	return out
}

// RepartitionByKey redistributes a keyed dataset into numPartitions hash
// partitions — the paper's "partition by vessel identifier" step. All
// records with the same key land in the same partition; order within an
// input partition is preserved per bucket.
func RepartitionByKey[K comparable, V any](d *Dataset[Pair[K, V]], name string, numPartitions int) *Dataset[Pair[K, V]] {
	return shuffle(d, name, numPartitions, HasherFor[K]())
}

// AggregateByKeyHashed folds values into per-key accumulators: newAcc
// creates an empty accumulator, seqOp folds one value in, combOp merges two
// accumulators. Accumulators are built within each input partition and
// merged after the shuffle — the map/reduce split of the paper's feature
// extraction (§3.3.4). hash partitions the keys; pass the key type's own
// method expression (inventory.GroupKey.Hash64) to keep the hot path
// allocation-free, or HasherFor[K]().
func AggregateByKeyHashed[K comparable, V, A any](
	d *Dataset[Pair[K, V]], name string, numPartitions int, hash Hasher[K],
	newAcc func() A, seqOp func(A, V) A, combOp func(A, A) A,
) *Dataset[Pair[K, A]] {
	partial := MapPartitions(d, name+".partial", func(_ int, in []Pair[K, V]) []Pair[K, A] {
		acc := make(map[K]A, len(in)/2+1)
		for _, p := range in {
			a, ok := acc[p.Key]
			if !ok {
				a = newAcc()
			}
			acc[p.Key] = seqOp(a, p.Value)
		}
		out := make([]Pair[K, A], 0, len(acc))
		for k, a := range acc {
			out = append(out, Pair[K, A]{Key: k, Value: a})
		}
		return out
	})
	shuffled := shuffle(partial, name+".shuffle", numPartitions, hash)
	return MapPartitions(shuffled, name+".merge", func(_ int, in []Pair[K, A]) []Pair[K, A] {
		acc := make(map[K]A, len(in))
		for _, p := range in {
			if cur, ok := acc[p.Key]; ok {
				acc[p.Key] = combOp(cur, p.Value)
			} else {
				acc[p.Key] = p.Value
			}
		}
		out := make([]Pair[K, A], 0, len(acc))
		for k, a := range acc {
			out = append(out, Pair[K, A]{Key: k, Value: a})
		}
		return out
	})
}
