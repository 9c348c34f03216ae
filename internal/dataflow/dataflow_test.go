package dataflow

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
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

// keyed is a row with a key, for the shuffle tests.
type keyed struct{ key, value int }

// byKey shuffles keyed rows by key, key k to bucket k modulo n, and
// flattens each partition's runs back into rows.
func byKey(d *Dataset[keyed], name string, n int) *Dataset[keyed] {
	return ShuffleRuns(d, name, n, func(r keyed) int { return r.key }, func(k int) int { return k % n }, "flatten", flatten[keyed])
}

// flatten concatenates a partition's runs.
func flatten[T any](_ int, runs iter.Seq[[]T]) []T {
	var out []T
	for run := range runs {
		out = append(out, run...)
	}
	return out
}

// byParity shuffles ints into two partitions by parity, or by bucket when
// it is given, and flattens each partition's runs back into rows.
func byParity(d *Dataset[int], name string, bucket func(int) int) *Dataset[int] {
	if bucket == nil {
		bucket = func(x int) int { return x % 2 }
	}
	return ShuffleRuns(d, name, 2, func(x int) int { return x }, bucket, "flatten", flatten[int])
}

func TestShuffleRunsColocatesKeys(t *testing.T) {
	ctx := NewContext(4)
	var rows []keyed
	for i := 0; i < 1000; i++ {
		rows = append(rows, keyed{key: i % 17, value: i})
	}
	re := ShuffleRuns(Parallelize(ctx, rows, 8), "repart", 5, func(r keyed) int { return r.key }, func(k int) int { return k % 5 },
		"where", func(part int, runs iter.Seq[[]keyed]) []keyed {
			var out []keyed
			for run := range runs {
				for _, r := range run {
					out = append(out, keyed{key: r.key, value: part})
				}
			}
			return out
		})
	if re.nParts != 5 {
		t.Fatalf("partitions %d", re.nParts)
	}
	placed, err := Collect(re)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placed {
		if p.value != p.key%5 {
			t.Fatalf("key %d in partition %d, want %d", p.key, p.value, p.key%5)
		}
	}
	if len(placed) != 1000 {
		t.Errorf("shuffle lost records: %d", len(placed))
	}
}

// TestMapPartitionsSeesWholePartition pins that a shuffle's per-partition
// function is handed all of its partition's runs in one call.
func TestMapPartitionsSeesWholePartition(t *testing.T) {
	ctx := NewContext(4)
	d := Parallelize(ctx, intsUpTo(100), 4)
	sums := ShuffleRuns(d, "by-residue", 4, func(x int) int { return x }, func(x int) int { return x % 4 },
		"sum", func(part int, runs iter.Seq[[]int]) []int {
			total := 0
			for run := range runs {
				for _, x := range run {
					total += x
				}
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
	for part, s := range got {
		want := 0
		for x := part; x < 100; x += 4 {
			want += x
		}
		if s != want {
			t.Errorf("partition %d sum %d, want %d", part, s, want)
		}
		total += s
	}
	if total != 4950 {
		t.Errorf("total %d, want 4950", total)
	}
}

func TestRepartitionPreservesPerKeyOrder(t *testing.T) {
	// Records of one key arriving from one input partition must stay in
	// order — the property the per-vessel clean relies on.
	ctx := NewContext(1)
	var rows []keyed
	for i := 0; i < 100; i++ {
		rows = append(rows, keyed{key: 7, value: i})
	}
	got, err := Collect(byKey(Parallelize(ctx, rows, 1), "order", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("shuffle kept %d of %d records", len(got), len(rows))
	}
	for i := 1; i < len(got); i++ {
		if got[i].value <= got[i-1].value {
			t.Fatalf("order broken at %d", i)
		}
	}
}

// TestShuffleRunsLaysOutRuns pins what f is handed: each partition's runs,
// one per key, keys ascending, each run its key's rows in input order —
// input partitions by index, rows as they come — whether the key's rows
// come from one input partition or are split over several. f may write to
// its runs; the input is left as it was.
func TestShuffleRunsLaysOutRuns(t *testing.T) {
	var rows []keyed
	for i := 0; i < 500; i++ {
		rows = append(rows, keyed{key: (i * 7919) % 23, value: i})
	}
	input := slices.Clone(rows)
	for _, inParts := range []int{1, 3, 8} {
		for _, n := range []int{1, 2, 5} {
			ctx := NewContext(2)
			runs := ShuffleRuns(Parallelize(ctx, rows, inParts), "runs", n,
				func(r keyed) int { return r.key }, func(k int) int { return k % n }, "collect",
				func(_ int, runs iter.Seq[[]keyed]) [][]keyed {
					var out [][]keyed
					for run := range runs {
						out = append(out, slices.Clone(run))
						for i := range run {
							run[i] = keyed{-1, -1} // the run is f's to overwrite
						}
					}
					return out
				})
			for part := 0; part < n; part++ {
				got, err := runs.compute(part)
				if err != nil {
					t.Fatal(err)
				}
				var want [][]keyed
				for k := part; k < 23; k += n {
					var run []keyed
					for _, r := range rows {
						if r.key == k {
							run = append(run, r)
						}
					}
					want = append(want, run)
				}
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%d input partitions, %d buckets: partition %d runs %v, want %v", inParts, n, part, got, want)
				}
			}
			if got := ctx.Metrics().ShuffledRecords(); got != int64(len(rows)) {
				t.Errorf("shuffled %d records, want %d", got, len(rows))
			}
		}
	}
	if !slices.Equal(rows, input) {
		t.Error("the shuffle wrote to its input")
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
	rows, err := Collect(byKey(src, "timed", 2))
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
	d := ShuffleRuns(Parallelize(ctx, intsUpTo(10), 2), "shuffle", 2, func(x int) int { return x }, func(x int) int { return x % 2 },
		"counted", func(part int, runs iter.Seq[[]int]) []int {
			rows := flatten(part, runs)
			evals.Add(int64(len(rows)))
			return rows
		})
	Collect(d)
	Collect(d)
	if got := evals.Load(); got != 20 {
		t.Errorf("lazy dataset must recompute: %d element-times, want 20", got)
	}
}

func TestPanicBecomesError(t *testing.T) {
	ctx := NewContext(4)
	d := ShuffleRuns(Parallelize(ctx, intsUpTo(10), 2), "shuffle", 2, func(x int) int { return x }, func(x int) int { return x % 2 },
		"boom", func(part int, runs iter.Seq[[]int]) []int {
			for _, x := range flatten(part, runs) {
				if x == 7 {
					panic("bad record")
				}
			}
			return nil
		})
	if _, err := Collect(d); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panic must surface as stage error, got %v", err)
	}
}

func TestShuffleAfterPanicPropagates(t *testing.T) {
	ctx := NewContext(2)
	d := Generate(ctx, 2, func(int) []int { panic("die") })
	if _, err := Collect(byParity(d, "shuffle", nil)); err == nil {
		t.Error("shuffle must propagate upstream errors")
	}
	bad := byParity(Parallelize(ctx, intsUpTo(10), 2), "bad-bucket", func(x int) int {
		panic("no bucket")
	})
	if _, err := Collect(bad); err == nil || !strings.Contains(err.Error(), "bad-bucket") {
		t.Errorf("a panicking partitioner must surface as the shuffle's error, got %v", err)
	}
}

// TestMetrics: a ShuffleRuns records two stages — the shuffle, every row
// in and out, and f's, rows in and what f returned out — and the rows it
// shuffled.
func TestMetrics(t *testing.T) {
	ctx := NewContext(2)
	d := ShuffleRuns(Parallelize(ctx, intsUpTo(50), 2), "shuffle", 3, func(x int) int { return x }, func(x int) int { return x % 3 },
		"keep-even", func(part int, runs iter.Seq[[]int]) []int {
			var out []int
			for _, x := range flatten(part, runs) {
				if x%2 == 0 {
					out = append(out, x)
				}
			}
			return out
		})
	if _, err := Collect(d); err != nil {
		t.Fatal(err)
	}
	stages := ctx.Metrics().Stages()
	if len(stages) != 2 {
		t.Fatalf("stages %+v, want shuffle and keep-even", stages)
	}
	if s := stages[0]; s.Name != "shuffle" || s.RecordsIn != 50 || s.RecordsOut != 50 {
		t.Errorf("shuffle stage metrics %+v", s)
	}
	if s := stages[1]; s.Name != "keep-even" || s.RecordsIn != 50 || s.RecordsOut != 25 {
		t.Errorf("stage metrics %+v", s)
	}
	if n := ctx.Metrics().ShuffledRecords(); n != 50 {
		t.Errorf("shuffled %d records, want 50", n)
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

// BenchmarkShuffleRuns shuffles 100 000 rows of 1 000 keys into 8
// partitions, f only walking the runs: the counting pass and the run copies.
func BenchmarkShuffleRuns(b *testing.B) {
	ctx := NewContext(4)
	var rows []keyed
	for i := 0; i < 100000; i++ {
		rows = append(rows, keyed{key: (i * 7919) % 1000, value: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ShuffleRuns(Parallelize(ctx, rows, 8), "shuffle", 8, func(r keyed) int { return r.key }, func(k int) int { return k % 8 },
			"walk", func(_ int, runs iter.Seq[[]keyed]) []int {
				n := 0
				for run := range runs {
					n += len(run)
				}
				return []int{n}
			})
		if _, err := Collect(d); err != nil {
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
	if _, err := Collect(byParity(d, "shuffle", nil)); !errors.Is(err, context.Canceled) {
		t.Errorf("shuffle on dead context: %v", err)
	}
	// A nil context and NewContext behave as background: never cancelled.
	if NewContext(1).Err() != nil || NewContextWith(nil, 1).Err() != nil {
		t.Error("background contexts must not report cancellation")
	}
}
