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
	counters []TopEntry // at most capacity, keys distinct, in no order
}

// TopEntry is one ranked heavy-hitter result.
type TopEntry struct {
	Key   uint64
	Count uint64 // estimated frequency (upper bound)
	Error uint64 // maximum overestimation of Count
}

// NewTopN returns an empty sketch tracking up to capacity keys. Capacities
// below 1 are raised to 1. The counters are one slice, grown with the keys
// actually seen and searched linearly: most cells know one or two origins,
// and an inventory holds three sketches per group, so a table sized for
// capacity up front is mostly empty slots on the live heap.
func NewTopN(capacity int) *TopN {
	if capacity < 1 {
		capacity = 1
	}
	return &TopN{capacity: capacity}
}

// find returns the index of key's counter, or -1.
func (t *TopN) find(key uint64) int {
	for i := range t.counters {
		if t.counters[i].Key == key {
			return i
		}
	}
	return -1
}

// Add records one occurrence of key.
func (t *TopN) Add(key uint64) { t.AddWeighted(key, 1) }

// AddWeighted records w occurrences of key.
func (t *TopN) AddWeighted(key, w uint64) {
	if w == 0 {
		return
	}
	if i := t.find(key); i >= 0 {
		t.counters[i].Count += w
		return
	}
	if len(t.counters) < t.capacity {
		t.counters = append(t.counters, TopEntry{Key: key, Count: w})
		return
	}
	// Replace the minimum counter, ties to the smallest key: the new key
	// inherits its count as the error bound.
	m := 0
	for i, c := range t.counters {
		if mc := t.counters[m]; c.Count < mc.Count || (c.Count == mc.Count && c.Key < mc.Key) {
			m = i
		}
	}
	low := t.counters[m].Count
	t.counters[m] = TopEntry{Key: key, Count: low + w, Error: low}
}

// Merge folds another sketch into this one. Counts for keys in both are
// summed; the union is then re-truncated to capacity, preserving the
// Space-Saving error semantics (the dropped minimum becomes the error bound
// of nothing — merged results keep upper-bound counts). The union is built
// on the stack, ranked only when it exceeds capacity, and copied back: no
// allocation once the counters have room for it.
func (t *TopN) Merge(o *TopN) {
	if o == nil {
		return
	}
	var stack [32]TopEntry
	union := append(stack[:0], t.counters...)
	for _, oc := range o.counters {
		if i := t.find(oc.Key); i >= 0 {
			union[i].Count += oc.Count
			union[i].Error += oc.Error
		} else {
			union = append(union, oc)
		}
	}
	if len(union) > t.capacity {
		slices.SortFunc(union, rank)
		union = union[:t.capacity]
	}
	t.counters = append(t.counters[:0], union...)
}

// rank orders entries by descending count, ties by ascending key: the
// order Entries reports and AppendBinary writes.
func rank(a, b TopEntry) int {
	if a.Count != b.Count {
		return cmp.Compare(b.Count, a.Count)
	}
	return cmp.Compare(a.Key, b.Key)
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
	dst = append(dst, t.counters...)
	slices.SortFunc(dst, rank)
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
// remaining bytes. A key listed twice is ErrCorrupt: no writer produces one,
// and the sketch could not hold it.
func DecodeTopN(data []byte) (TopN, []byte, error) {
	return decodeTopN(data, false)
}

// SkipTopN steps over the sketch at the front of data and returns the
// bytes after it without building the sketch. It checks the framing
// DecodeTopN checks, but not that every key is listed once: that needs the
// keys sorted.
func SkipTopN(data []byte) ([]byte, error) {
	_, rest, err := decodeTopN(data, true)
	return rest, err
}

// decodeTopN decodes a sketch, or with skip only checks its framing.
func decodeTopN(data []byte, skip bool) (TopN, []byte, error) {
	capacity, data, err := readU32(data)
	if err != nil || capacity == 0 || capacity > 1<<20 {
		return TopN{}, nil, ErrCorrupt
	}
	n, data, err := readU32(data)
	if err != nil || n > capacity || 3*uint64(n) > uint64(len(data)) {
		return TopN{}, nil, ErrCorrupt
	}
	if skip {
		rest, err := skipU64s(data, 3*uint64(n))
		return TopN{}, rest, err
	}
	t := TopN{capacity: int(capacity), counters: make([]TopEntry, n)}
	for i := range t.counters {
		c := &t.counters[i]
		for _, f := range [...]*uint64{&c.Key, &c.Count, &c.Error} {
			if *f, data, err = readU64(data); err != nil {
				return TopN{}, nil, err
			}
		}
	}
	// Duplicates meet in key order; the counters keep no order of their own.
	slices.SortFunc(t.counters, func(a, b TopEntry) int { return cmp.Compare(a.Key, b.Key) })
	for i := 1; i < len(t.counters); i++ {
		if t.counters[i].Key == t.counters[i-1].Key {
			return TopN{}, nil, ErrCorrupt
		}
	}
	return t, data, nil
}
