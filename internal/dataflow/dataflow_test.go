package dataflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func intsUpTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollect(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intsUpTo(100), 7)
	if d.nParts != 7 {
		t.Errorf("partitions %d, want 7", d.nParts)
	}
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order not preserved at %d: %d", i, v)
		}
	}
}

func TestParallelizeEdgeCases(t *testing.T) {
	ctx := NewContext(2)
	empty := Parallelize(ctx, []int(nil), 4)
	got, err := Collect(empty)
	if err != nil || len(got) != 0 {
		t.Errorf("empty dataset: %v, %v", got, err)
	}
	// More partitions than elements must not create empty imbalance crashes.
	tiny := Parallelize(ctx, []int{1, 2}, 10)
	got, _ = Collect(tiny)
	if len(got) != 2 {
		t.Errorf("tiny dataset lost records: %v", got)
	}
}

func TestMap(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intsUpTo(1000), 8)
	got, err := Collect(Map(d, "square", func(x int) int { return x * x }))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("got %d records, want 1000", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("element %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestGenerate(t *testing.T) {
	ctx := NewContext(4)
	d := Generate(ctx, 5, func(part int) []int {
		return []int{part * 10, part*10 + 1}
	})
	got, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 10, 11, 20, 21, 30, 31, 40, 41}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v", got)
	}
}

func TestMapPartitionsSeesWholePartition(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intsUpTo(100), 4)
	sums := MapPartitions(d, "sum", func(_ int, in []int) []int {
		total := 0
		for _, x := range in {
			total += x
		}
		return []int{total}
	})
	got, err := Collect(sums)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("want 4 partition sums, got %d", len(got))
	}
	total := 0
	for _, s := range got {
		total += s
	}
	if total != 4950 {
		t.Errorf("total %d, want 4950", total)
	}
}

func TestKeyBy(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, []string{"a", "bb", "ccc"}, 2)
	keyed := KeyBy(d, "len", func(s string) int { return len(s) })
	pairs, err := Collect(keyed)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.Key != len(p.Value) {
			t.Errorf("pair %+v", p)
		}
	}
	if len(pairs) != 3 {
		t.Errorf("pairs %v", pairs)
	}
}

func TestReduceByKeyMapSideCombining(t *testing.T) {
	// With 10 distinct keys over 8 partitions, the shuffle must carry at
	// most 8×10 pre-combined records rather than all 10000 raw ones.
	ctx := NewContext(4)
	var pairs []Pair[int, int]
	for i := 0; i < 10000; i++ {
		pairs = append(pairs, Pair[int, int]{Key: i % 10, Value: 1})
	}
	d := Parallelize(ctx, pairs, 8)
	sum := func(a, b int) int { return a + b }
	counts := AggregateByKeyHashed(d, "combtest", 4, HasherFor[int](), func() int { return 0 }, sum, sum)
	if _, err := Collect(counts); err != nil {
		t.Fatal(err)
	}
	if shuffled := ctx.Metrics().ShuffledRecords(); shuffled > 80 {
		t.Errorf("shuffled %d records; map-side combining should cap at 80", shuffled)
	}
}

func TestAggregateByKey(t *testing.T) {
	ctx := NewContext(4)
	var pairs []Pair[string, float64]
	for i := 0; i < 300; i++ {
		pairs = append(pairs, Pair[string, float64]{Key: []string{"x", "y", "z"}[i%3], Value: float64(i)})
	}
	d := Parallelize(ctx, pairs, 6)
	type acc struct {
		n   int
		sum float64
	}
	avg := AggregateByKeyHashed(d, "avg", 3, HasherFor[string](),
		func() acc { return acc{} },
		func(a acc, v float64) acc { return acc{a.n + 1, a.sum + v} },
		func(a, b acc) acc { return acc{a.n + b.n, a.sum + b.sum} },
	)
	got, err := Collect(avg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("want 3 keys, got %d", len(got))
	}
	for _, p := range got {
		if p.Value.n != 100 {
			t.Errorf("key %s n=%d, want 100", p.Key, p.Value.n)
		}
	}
}

func TestRepartitionByKeyColocatesKeys(t *testing.T) {
	ctx := NewContext(4)
	var pairs []Pair[uint32, int]
	for i := 0; i < 1000; i++ {
		pairs = append(pairs, Pair[uint32, int]{Key: uint32(i % 17), Value: i})
	}
	d := Parallelize(ctx, pairs, 8)
	re := RepartitionByKey(d, "repart", 5)
	if re.nParts != 5 {
		t.Fatalf("partitions %d", re.nParts)
	}
	placed, err := Collect(MapPartitions(re, "where", func(part int, rows []Pair[uint32, int]) []Pair[uint32, int] {
		out := make([]Pair[uint32, int], len(rows))
		for i, r := range rows {
			out[i] = Pair[uint32, int]{Key: r.Key, Value: part}
		}
		return out
	}))
	if err != nil {
		t.Fatal(err)
	}
	keyPart := make(map[uint32]int)
	for _, p := range placed {
		if prev, ok := keyPart[p.Key]; ok && prev != p.Value {
			t.Fatalf("key %d in partitions %d and %d", p.Key, prev, p.Value)
		}
		keyPart[p.Key] = p.Value
	}
	if rows, _ := Collect(re); len(rows) != 1000 {
		t.Errorf("repartition lost records: %d", len(rows))
	}
}

func TestRepartitionPreservesPerKeyOrder(t *testing.T) {
	// Records of one key arriving from one input partition must stay in
	// order — the property the per-vessel sort relies on.
	ctx := NewContext(1)
	var pairs []Pair[uint32, int]
	for i := 0; i < 100; i++ {
		pairs = append(pairs, Pair[uint32, int]{Key: 7, Value: i})
	}
	d := Parallelize(ctx, pairs, 1)
	re := RepartitionByKey(d, "order", 3)
	rows, err := Collect(re)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Value <= rows[i-1].Value {
			t.Fatalf("order broken at %d", i)
		}
	}
}

func TestUncachedRecomputes(t *testing.T) {
	ctx := NewContext(4)
	var evals atomic.Int64
	d := Map(Parallelize(ctx, intsUpTo(10), 2), "counted", func(x int) int {
		evals.Add(1)
		return x
	})
	Collect(d)
	Collect(d)
	if got := evals.Load(); got != 20 {
		t.Errorf("lazy dataset must recompute: %d element-times, want 20", got)
	}
}

func TestPanicBecomesError(t *testing.T) {
	ctx := NewContext(4)
	d := Map(Parallelize(ctx, intsUpTo(10), 2), "boom", func(x int) int {
		if x == 7 {
			panic("bad record")
		}
		return x
	})
	if _, err := Collect(d); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic must surface as stage error, got %v", err)
	}
}

func TestShuffleAfterPanicPropagates(t *testing.T) {
	ctx := NewContext(2)
	d := KeyBy(Map(Parallelize(ctx, intsUpTo(10), 2), "boom2", func(x int) int {
		panic("die")
	}), "key", func(x int) int { return x })
	sum := func(a, b int) int { return a + b }
	r := AggregateByKeyHashed(d, "reduce", 2, HasherFor[int](), func() int { return 0 }, sum, sum)
	if _, err := Collect(r); err == nil {
		t.Error("shuffle must propagate upstream errors")
	}
}

func TestMetrics(t *testing.T) {
	ctx := NewContext(2)
	d := Parallelize(ctx, intsUpTo(50), 2)
	f := MapPartitions(d, "keep-even", func(_ int, in []int) []int {
		var out []int
		for _, x := range in {
			if x%2 == 0 {
				out = append(out, x)
			}
		}
		return out
	})
	if _, err := Collect(f); err != nil {
		t.Fatal(err)
	}
	s := ctx.Metrics().Stage("keep-even")
	if s.RecordsIn != 50 || s.RecordsOut != 25 {
		t.Errorf("stage metrics %+v", s)
	}
	if !strings.Contains(ctx.Metrics().String(), "keep-even") {
		t.Error("metrics table must list the stage")
	}
	if len(ctx.Metrics().Stages()) == 0 {
		t.Error("stages list empty")
	}
}

func TestContextDefaults(t *testing.T) {
	ctx := NewContext(0)
	if ctx.Parallelism() < 1 {
		t.Error("parallelism must default to >= 1")
	}
}

func TestHashKeyDeterministicAndSpread(t *testing.T) {
	if HashKey(uint64(42)) != HashKey(uint64(42)) {
		t.Error("hash must be deterministic")
	}
	if HashKey("abc") != HashKey("abc") {
		t.Error("string hash must be deterministic")
	}
	if HashKey(uint32(1)) == HashKey(uint32(2)) {
		t.Error("distinct keys should hash differently")
	}
	// Buckets must be reasonably balanced for sequential keys.
	const n, buckets = 10000, 16
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[HashKey(i)%buckets]++
	}
	for b, c := range counts {
		if c < n/buckets/2 || c > n/buckets*2 {
			t.Errorf("bucket %d has %d of %d", b, c, n)
		}
	}
	// Struct keys fall back to formatted hashing.
	type od struct{ a, b int }
	if HashKey(od{1, 2}) != HashKey(od{1, 2}) {
		t.Error("fallback hash must be deterministic")
	}
	if HashKey(od{1, 2}) == HashKey(od{2, 1}) {
		t.Error("fallback hash must distinguish fields")
	}
}

func BenchmarkMapFilterPipeline(b *testing.B) {
	ctx := NewContext(4)
	data := intsUpTo(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Parallelize(ctx, data, 8)
		m := Map(d, "m", func(x int) int { return x * 2 })
		f := MapPartitions(m, "f", func(_ int, in []int) []int {
			out := make([]int, 0, len(in)/3+1)
			for _, x := range in {
				if x%3 == 0 {
					out = append(out, x)
				}
			}
			return out
		})
		if _, err := Collect(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateByKey(b *testing.B) {
	ctx := NewContext(4)
	sum := func(a, b int) int { return a + b }
	pairs := make([]Pair[int, int], 100000)
	for i := range pairs {
		pairs[i] = Pair[int, int]{Key: i % 1000, Value: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Parallelize(ctx, pairs, 8)
		r := AggregateByKeyHashed(d, "r", 4, HasherFor[int](), func() int { return 0 }, sum, sum)
		if _, err := Collect(r); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCollectCancelledStopsDispatch(t *testing.T) {
	// A context cancelled while an action runs must stop partition
	// dispatch promptly: with parallelism 1 and the cancel fired inside the
	// first partition, at most the in-flight partition may still complete.
	stdctx, cancel := context.WithCancel(context.Background())
	ctx := NewContextWith(stdctx, 1)
	var executed atomic.Int64
	d := Generate(ctx, 64, func(part int) []int {
		executed.Add(1)
		if part == 0 {
			cancel()
		}
		return []int{part}
	})
	_, err := Collect(d)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Collect err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n > 2 {
		t.Errorf("%d partitions executed after cancellation, want <= 2", n)
	}
	if ctx.Err() == nil {
		t.Error("Context.Err must report cancellation")
	}
}

func TestCancelledContextFailsAllActions(t *testing.T) {
	stdctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := NewContextWith(stdctx, 4)
	d := Parallelize(ctx, []int{1, 2, 3, 4}, 4)
	if _, err := Collect(d); !errors.Is(err, context.Canceled) {
		t.Errorf("Collect on dead context: %v", err)
	}
	keyed := KeyBy(d, "k", func(x int) int { return x })
	if _, err := Collect(RepartitionByKey(keyed, "shuffle", 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("shuffle on dead context: %v", err)
	}
	// A nil context and NewContext behave as background: never cancelled.
	if NewContext(1).Err() != nil || NewContextWith(nil, 1).Err() != nil {
		t.Error("background contexts must not report cancellation")
	}
}
