// Package dataflow is a small in-process parallel dataset engine — the
// from-scratch substitute for the Apache Spark substrate the paper runs on.
//
// A Dataset[T] is a lazy, partitioned collection. ShuffleRuns is the one
// operator: it evaluates its parent once, groups the rows by key into
// partitions without a second copy of the dataset, and hands each
// partition's work one key's run at a time, so intermediate state is never
// materialized. The action, Collect, triggers execution across a bounded
// worker pool. These are the operators the methodology runs, not a
// catalogue: surface_test.go at the repository root fails on one nothing
// calls.
//
// The engine provides the execution semantics the paper's methodology
// needs (§3.3, Figure 3): partitioning by vessel identifier for the
// cleaning, trip-extraction and projection phases. The feature-extraction
// reduce is not a dataflow operator: each vessel partition folds its
// observations into its own inventory, whose key-hash shards are the reduce
// partitions, and the caller merges those partials in partition order
// (internal/pipeline).
//
// Datasets are immutable and safe to share. All user functions must be
// safe to call concurrently from multiple goroutines (they receive
// distinct partitions). Panics inside user functions are captured and
// returned as errors from actions, like Spark task failures.
package dataflow

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Context owns execution resources and metrics for a family of datasets.
type Context struct {
	parallelism int
	metrics     *Metrics
	std         context.Context // cancellation source for all actions
}

// NewContext returns a Context executing up to parallelism concurrent
// partition tasks. Values below 1 default to GOMAXPROCS.
func NewContext(parallelism int) *Context {
	return NewContextWith(context.Background(), parallelism)
}

// NewContextWith is NewContext bound to a cancellation context: when std is
// cancelled, in-flight actions stop dispatching partition tasks and return
// std's error instead of running the remaining stages to completion.
// Cancellation is observed at partition-task boundaries, so promptness
// scales with partition granularity, not dataset size.
func NewContextWith(std context.Context, parallelism int) *Context {
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if std == nil {
		std = context.Background()
	}
	return &Context{parallelism: parallelism, metrics: newMetrics(), std: std}
}

// Parallelism returns the worker-pool width.
func (c *Context) Parallelism() int { return c.parallelism }

// Err returns the cancellation state of the bound context: nil while the
// context is live, the context's error once cancelled.
func (c *Context) Err() error { return c.std.Err() }

// Std returns the bound standard context — carrying cancellation and any
// ambient trace span threaded in by the caller (NewContextWith).
func (c *Context) Std() context.Context { return c.std }

// Metrics returns the execution metrics collected so far.
func (c *Context) Metrics() *Metrics { return c.metrics }

// Dataset is a lazy partitioned collection of T.
type Dataset[T any] struct {
	ctx     *Context
	nParts  int
	compute func(part int) ([]T, error)
}

// Context returns the owning execution context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// Parallelize distributes items round-robin over numPartitions partitions
// (values below 1 default to the context parallelism).
func Parallelize[T any](ctx *Context, items []T, numPartitions int) *Dataset[T] {
	if numPartitions < 1 {
		numPartitions = ctx.parallelism
	}
	if numPartitions > len(items) && len(items) > 0 {
		numPartitions = len(items)
	}
	if len(items) == 0 {
		numPartitions = 1
	}
	return &Dataset[T]{
		ctx:    ctx,
		nParts: numPartitions,
		compute: func(part int) ([]T, error) {
			n := len(items)
			lo := part * n / numPartitions
			hi := (part + 1) * n / numPartitions
			return items[lo:hi], nil
		},
	}
}

// Generate creates a dataset whose partitions are produced on demand by gen,
// which is called once per partition index in [0, numPartitions). This is
// how the simulator exposes a fleet's AIS stream without materializing it
// up front.
func Generate[T any](ctx *Context, numPartitions int, gen func(part int) []T) *Dataset[T] {
	if numPartitions < 1 {
		numPartitions = 1
	}
	return &Dataset[T]{
		ctx:     ctx,
		nParts:  numPartitions,
		compute: func(part int) ([]T, error) { return gen(part), nil },
	}
}

// guard converts a panic from a user function into an error.
func guard(stage string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("dataflow: stage %s panicked: %v", stage, r)
	}
}

// runParallel executes f(0..tasks-1) over at most width goroutines and
// returns the first error. Workers stop claiming new tasks once the
// context's cancellation fires, and the cancellation error is reported when
// no task failed first.
func (c *Context) runParallel(tasks int, f func(i int) error) error {
	width := c.parallelism
	if width > tasks {
		width = tasks
	}
	if width < 1 {
		width = 1
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		next      int
		err       error
		cancelled bool
	)
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if err != nil || next >= tasks {
					mu.Unlock()
					return
				}
				if c.std.Err() != nil {
					cancelled = true
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if e := f(i); e != nil {
					mu.Lock()
					if err == nil {
						err = e
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err == nil && cancelled {
		err = fmt.Errorf("dataflow: cancelled: %w", c.std.Err())
	}
	return err
}

// Collect evaluates all partitions in parallel and returns the
// concatenated elements in partition order.
func Collect[T any](d *Dataset[T]) ([]T, error) {
	parts := make([][]T, d.nParts)
	err := d.ctx.runParallel(d.nParts, func(p int) error {
		rows, e := d.compute(p)
		if e != nil {
			return e
		}
		parts[p] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}
