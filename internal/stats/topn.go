package stats

import (
	"cmp"
	"slices"
)

// TopN tracks the approximately most frequent uint64 keys in a stream using
// the Space-Saving algorithm (Metwally et al.). With capacity k, any key
// whose true frequency exceeds total/k is guaranteed to be present, and
// reported counts overestimate true counts by at most the stored Error.
//
// The paper uses Top-N for the origin, destination and cell-transition
// features (Table 3). Keys are numeric identifiers: port ids or cell
// indices. Construct with NewTopN.
type TopN struct {
	capacity int
	counters map[uint64]*ssCounter
}

type ssCounter struct {
	count uint64
	err   uint64 // overestimation bound inherited on replacement
}

// TopEntry is one ranked heavy-hitter result.
type TopEntry struct {
	Key   uint64
	Count uint64 // estimated frequency (upper bound)
	Error uint64 // maximum overestimation of Count
}

// NewTopN returns an empty sketch tracking up to capacity keys. Capacities
// below 1 are raised to 1. The table grows with the keys actually seen:
// most cells know one or two origins, and an inventory holds three
// sketches per group, so a table sized for capacity up front is mostly
// empty slots on the live heap.
func NewTopN(capacity int) *TopN {
	if capacity < 1 {
		capacity = 1
	}
	return &TopN{
		capacity: capacity,
		counters: make(map[uint64]*ssCounter),
	}
}

// Add records one occurrence of key.
func (t *TopN) Add(key uint64) { t.AddWeighted(key, 1) }

// AddWeighted records w occurrences of key.
func (t *TopN) AddWeighted(key, w uint64) {
	if w == 0 {
		return
	}
	if c, ok := t.counters[key]; ok {
		c.count += w
		return
	}
	if len(t.counters) < t.capacity {
		t.counters[key] = &ssCounter{count: w}
		return
	}
	// Replace the minimum counter: the new key inherits its count as the
	// error bound.
	var minKey uint64
	var minC *ssCounter
	for k, c := range t.counters {
		if minC == nil || c.count < minC.count || (c.count == minC.count && k < minKey) {
			minKey, minC = k, c
		}
	}
	delete(t.counters, minKey)
	t.counters[key] = &ssCounter{count: minC.count + w, err: minC.count}
}

// Merge folds another sketch into this one. Counts for keys in both are
// summed; the union is then re-truncated to capacity, preserving the
// Space-Saving error semantics (the dropped minimum becomes the error bound
// of nothing — merged results keep upper-bound counts).
func (t *TopN) Merge(o *TopN) {
	if o == nil {
		return
	}
	for k, oc := range o.counters {
		if c, ok := t.counters[k]; ok {
			c.count += oc.count
			c.err += oc.err
		} else {
			t.counters[k] = &ssCounter{count: oc.count, err: oc.err}
		}
	}
	if len(t.counters) <= t.capacity {
		return
	}
	entries := t.Entries()
	for _, e := range entries[t.capacity:] {
		delete(t.counters, e.Key)
	}
}

// Len returns the number of tracked keys.
func (t *TopN) Len() int { return len(t.counters) }

// Entries returns all tracked keys sorted by descending estimated count,
// ties broken by ascending key for determinism.
func (t *TopN) Entries() []TopEntry {
	return t.appendEntries(make([]TopEntry, 0, len(t.counters)))
}

// appendEntries appends the ranked entries to dst (which must be empty).
func (t *TopN) appendEntries(dst []TopEntry) []TopEntry {
	for k, c := range t.counters {
		dst = append(dst, TopEntry{Key: k, Count: c.count, Error: c.err})
	}
	slices.SortFunc(dst, func(a, b TopEntry) int {
		if a.Count != b.Count {
			return cmp.Compare(b.Count, a.Count)
		}
		return cmp.Compare(a.Key, b.Key)
	})
	return dst
}

// Top returns the n highest-count entries (fewer if fewer keys are
// tracked).
func (t *TopN) Top(n int) []TopEntry {
	e := t.Entries()
	if n < len(e) {
		e = e[:n]
	}
	return e
}

// AppendBinary appends the sketch's binary encoding to buf.
func (t *TopN) AppendBinary(buf []byte) []byte {
	buf = appendU32(buf, uint32(t.capacity))
	buf = appendU32(buf, uint32(len(t.counters)))
	// Ranked in a stack array at the inventory's capacity; a larger sketch
	// spills to the heap.
	var ranked [16]TopEntry
	for _, e := range t.appendEntries(ranked[:0]) { // sorted for deterministic bytes
		buf = appendU64(buf, e.Key)
		buf = appendU64(buf, e.Count)
		buf = appendU64(buf, e.Error)
	}
	return buf
}

// DecodeTopN decodes a sketch from the front of data and returns the
// remaining bytes.
func DecodeTopN(data []byte) (*TopN, []byte, error) {
	capacity, data, err := readU32(data)
	if err != nil || capacity == 0 || capacity > 1<<20 {
		return nil, nil, ErrCorrupt
	}
	n, data, err := readU32(data)
	if err != nil || n > capacity || 3*uint64(n) > uint64(len(data)) {
		return nil, nil, ErrCorrupt
	}
	t := &TopN{capacity: int(capacity), counters: make(map[uint64]*ssCounter, n)}
	for i := uint32(0); i < n; i++ {
		var e [3]uint64 // key, count, error bound
		for j := range e {
			if e[j], data, err = readU64(data); err != nil {
				return nil, nil, err
			}
		}
		t.counters[e[0]] = &ssCounter{count: e[1], err: e[2]}
	}
	return t, data, nil
}
