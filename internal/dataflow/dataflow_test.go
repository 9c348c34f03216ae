package dataflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

// keyed is a row with a key, for the repartition tests.
type keyed struct{ key, value int }

// byKey buckets a keyed row by key modulo n.
func byKey(n int) func(keyed) int { return func(r keyed) int { return r.key % n } }

func TestRepartitionByKeyColocatesKeys(t *testing.T) {
	ctx := NewContext(4)
	var rows []keyed
	for i := 0; i < 1000; i++ {
		rows = append(rows, keyed{key: i % 17, value: i})
	}
	d := Parallelize(ctx, rows, 8)
	re := Repartition(d, "repart", 5, byKey(5))
	if re.nParts != 5 {
		t.Fatalf("partitions %d", re.nParts)
	}
	placed, err := Collect(MapPartitions(re, "where", func(part int, rows []keyed) []keyed {
		out := make([]keyed, len(rows))
		for i, r := range rows {
			out[i] = keyed{key: r.key, value: part}
		}
		return out
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placed {
		if p.value != p.key%5 {
			t.Fatalf("key %d in partition %d, want %d", p.key, p.value, p.key%5)
		}
	}
	if rows, _ := Collect(re); len(rows) != 1000 {
		t.Errorf("repartition lost records: %d", len(rows))
	}
}

func TestRepartitionPreservesPerKeyOrder(t *testing.T) {
	// Records of one key arriving from one input partition must stay in
	// order — the property the per-vessel sort relies on.
	ctx := NewContext(1)
	var rows []keyed
	for i := 0; i < 100; i++ {
		rows = append(rows, keyed{key: 7, value: i})
	}
	d := Parallelize(ctx, rows, 1)
	got, err := Collect(Repartition(d, "order", 3, byKey(3)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].value <= got[i-1].value {
			t.Fatalf("order broken at %d", i)
		}
	}
}

// TestShuffleTimesOnlyItsOwnWork pins a shuffle stage's busy time to its
// bucketing and merge: a source that sleeps 50 ms in each of its four
// partitions must not show up in an 8-row shuffle's time.
func TestShuffleTimesOnlyItsOwnWork(t *testing.T) {
	ctx := NewContext(2)
	src := Generate(ctx, 4, func(part int) []keyed {
		time.Sleep(50 * time.Millisecond)
		return []keyed{{key: part, value: 0}, {key: part + 1, value: 1}}
	})
	t0 := time.Now()
	rows, err := Collect(Repartition(src, "timed", 2, byKey(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 || time.Since(t0) < 100*time.Millisecond {
		t.Fatalf("%d rows in %s: the source did not run as set up", len(rows), time.Since(t0))
	}
	for _, s := range ctx.Metrics().Stages() {
		if s.Name == "timed" && s.Duration() >= 50*time.Millisecond {
			t.Errorf("shuffle busy %s: it includes the stages above it", s.Duration())
		}
	}
}

func TestUncachedRecomputes(t *testing.T) {
	ctx := NewContext(4)
	var evals atomic.Int64
	d := MapPartitions(Parallelize(ctx, intsUpTo(10), 2), "counted", func(_ int, in []int) []int {
		evals.Add(int64(len(in)))
		return in
	})
	Collect(d)
	Collect(d)
	if got := evals.Load(); got != 20 {
		t.Errorf("lazy dataset must recompute: %d element-times, want 20", got)
	}
}

func TestPanicBecomesError(t *testing.T) {
	ctx := NewContext(4)
	d := MapPartitions(Parallelize(ctx, intsUpTo(10), 2), "boom", func(_ int, in []int) []int {
		for _, x := range in {
			if x == 7 {
				panic("bad record")
			}
		}
		return in
	})
	if _, err := Collect(d); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic must surface as stage error, got %v", err)
	}
}

func TestShuffleAfterPanicPropagates(t *testing.T) {
	ctx := NewContext(2)
	d := MapPartitions(Parallelize(ctx, intsUpTo(10), 2), "boom2", func(int, []int) []int {
		panic("die")
	})
	if _, err := Collect(Repartition(d, "shuffle", 2, func(x int) int { return x % 2 })); err == nil {
		t.Error("shuffle must propagate upstream errors")
	}
	bad := Repartition(Parallelize(ctx, intsUpTo(10), 2), "bad-bucket", 2, func(x int) int {
		panic("no bucket")
	})
	if _, err := Collect(bad); err == nil || !strings.Contains(err.Error(), "bad-bucket") {
		t.Errorf("a panicking partitioner must surface as the shuffle's error, got %v", err)
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
	stages := ctx.Metrics().Stages()
	if len(stages) != 1 {
		t.Fatalf("stages %+v, want keep-even alone", stages)
	}
	if s := stages[0]; s.Name != "keep-even" || s.RecordsIn != 50 || s.RecordsOut != 25 {
		t.Errorf("stage metrics %+v", s)
	}
	if !strings.Contains(ctx.Metrics().String(), "keep-even") {
		t.Error("metrics table must list the stage")
	}
}

func TestContextDefaults(t *testing.T) {
	ctx := NewContext(0)
	if ctx.Parallelism() < 1 {
		t.Error("parallelism must default to >= 1")
	}
}

func BenchmarkMapFilterPipeline(b *testing.B) {
	ctx := NewContext(4)
	data := intsUpTo(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Parallelize(ctx, data, 8)
		f := MapPartitions(d, "f", func(_ int, in []int) []int {
			out := make([]int, 0, len(in)/3+1)
			for _, x := range in {
				if x%3 == 0 {
					out = append(out, 2*x)
				}
			}
			return out
		})
		if _, err := Collect(f); err != nil {
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
	if _, err := Collect(Repartition(d, "shuffle", 2, func(x int) int { return x % 2 })); !errors.Is(err, context.Canceled) {
		t.Errorf("shuffle on dead context: %v", err)
	}
	// A nil context and NewContext behave as background: never cancelled.
	if NewContext(1).Err() != nil || NewContextWith(nil, 1).Err() != nil {
		t.Error("background contexts must not report cancellation")
	}
}
