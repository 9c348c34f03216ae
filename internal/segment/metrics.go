package segment

import (
	"sync/atomic"

	"github.com/patternsoflife/pol/internal/obs"
)

// Metrics aggregates segment-store observability across every reader
// that shares it (a serving process registers one Metrics on its
// registry and passes it to each reader it opens, including across
// generation swaps). All fields are atomics sampled by gauge/counter
// functions, so registration is idempotent and cheap.
type Metrics struct {
	// Opens counts Reader opens (pol_segment_opens_total).
	Opens atomic.Int64
	// CacheHits / CacheMisses / Evictions count block-LRU traffic. A
	// lookup that inflates is a miss: a new entry, or a grow (Grows) of a
	// pinned prefix that stops short of the summary it reads.
	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
	Grows       atomic.Int64
	Evictions   atomic.Int64
	// CorruptBlocks counts corruption errors swallowed by the View
	// methods (the typed error is retained in Reader.Err).
	CorruptBlocks atomic.Int64
	// Pinned / PinnedBytes track decompressed shards held by LRUs, each
	// the prefix of its block that its reads have inflated.
	Pinned      atomic.Int64
	PinnedBytes atomic.Int64

	openReaders atomic.Int64
	diskBytes   atomic.Int64
	rawBytes    atomic.Int64
	mappedBytes atomic.Int64
}

// NewMetrics returns a collector with its pol_segment_* series
// registered on reg (nil reg collects without exporting — handy in
// tests). Safe to call more than once per registry: the function series
// are replaced, last collector wins.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{}
	if reg == nil {
		return m
	}
	counter := func(name, help string, v *atomic.Int64) {
		reg.Help(name, help)
		reg.CounterFunc(name, nil, func() float64 { return float64(v.Load()) })
	}
	gauge := func(name, help string, f func() float64) {
		reg.Help(name, help)
		reg.GaugeFunc(name, nil, f)
	}
	i64 := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	counter("pol_segment_opens_total", "Segment readers opened.", &m.Opens)
	counter("pol_segment_block_cache_hits_total", "Shard block LRU hits.", &m.CacheHits)
	counter("pol_segment_block_cache_misses_total", "Shard block LRU lookups that inflated a block: a new entry, or a grow of a pinned prefix short of the summary read.", &m.CacheMisses)
	counter("pol_segment_block_cache_grows_total", "Shard block LRU misses that re-inflated a pinned prefix further.", &m.Grows)
	counter("pol_segment_block_cache_evictions_total", "Pinned shard blocks evicted from the LRU.", &m.Evictions)
	counter("pol_segment_corrupt_blocks_total", "Corruption errors swallowed by View queries.", &m.CorruptBlocks)
	gauge("pol_segment_open_readers", "Segment readers currently open.", i64(&m.openReaders))
	gauge("pol_segment_pinned_shards", "Decompressed shard blocks pinned across open readers.", i64(&m.Pinned))
	gauge("pol_segment_pinned_bytes", "Bytes of decompressed shard blocks pinned: each entry's prefix, its columns and its summaries up to the furthest read.", i64(&m.PinnedBytes))
	gauge("pol_segment_bytes_mapped", "Bytes of segment files memory-mapped.", i64(&m.mappedBytes))
	gauge("pol_segment_disk_bytes", "On-disk bytes across open segments.", i64(&m.diskBytes))
	gauge("pol_segment_compression_ratio",
		"Fraction of raw column bytes saved by block compression across open segments (Table-4 orientation: higher is better).",
		func() float64 {
			raw := m.rawBytes.Load()
			if raw <= 0 {
				return 0
			}
			return 1 - float64(m.diskBytes.Load())/float64(raw)
		})
	return m
}

// noteOpen folds a newly opened reader into the per-process gauges.
func (m *Metrics) noteOpen(r *Reader) {
	m.openReaders.Add(1)
	m.diskBytes.Add(r.size)
	if r.mm != nil {
		m.mappedBytes.Add(r.size)
	}
	var raw int64
	for i := range r.index {
		raw += int64(r.index[i].RawLen)
	}
	m.rawBytes.Add(raw)
}

// noteClose reverses noteOpen when a reader closes.
func (m *Metrics) noteClose(r *Reader) {
	m.openReaders.Add(-1)
	m.diskBytes.Add(-r.size)
	if r.mm != nil {
		m.mappedBytes.Add(-r.size)
	}
	var raw int64
	for i := range r.index {
		raw += int64(r.index[i].RawLen)
	}
	m.rawBytes.Add(-raw)
}
