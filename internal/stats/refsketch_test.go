package stats

// The sketches as they stood before the flat layout (TopN on a map of
// counters, TDigest with a second buffer slice, AngularHistogram on a
// slice, HyperLogLog with two slices), moved here verbatim and renamed
// Ref*: the reference flat_test.go holds the new layout to, byte for byte.
// They are exported so that package stats_test (differential_test.go) can
// build the reference CellSummary from them.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// RefTopN tracks the approximately most frequent uint64 keys in a stream using
// the Space-Saving algorithm (Metwally et al.). With capacity k, any key
// whose true frequency exceeds total/k is guaranteed to be present, and
// reported counts overestimate true counts by at most the stored Error.
//
// The paper uses Top-N for the origin, destination and cell-transition
// features (Table 3). Keys are numeric identifiers: port ids or cell
// indices. Construct with NewRefTopN.
type RefTopN struct {
	capacity int
	counters map[uint64]*refCounter
}

type refCounter struct {
	count uint64
	err   uint64 // overestimation bound inherited on replacement
}

// NewRefTopN returns an empty sketch tracking up to capacity keys. Capacities
// below 1 are raised to 1. The table grows with the keys actually seen:
// most cells know one or two origins, and an inventory holds three
// sketches per group, so a table sized for capacity up front is mostly
// empty slots on the live heap.
func NewRefTopN(capacity int) *RefTopN {
	if capacity < 1 {
		capacity = 1
	}
	return &RefTopN{
		capacity: capacity,
		counters: make(map[uint64]*refCounter),
	}
}

// Add records one occurrence of key.
func (t *RefTopN) Add(key uint64) { t.AddWeighted(key, 1) }

// AddWeighted records w occurrences of key.
func (t *RefTopN) AddWeighted(key, w uint64) {
	if w == 0 {
		return
	}
	if c, ok := t.counters[key]; ok {
		c.count += w
		return
	}
	if len(t.counters) < t.capacity {
		t.counters[key] = &refCounter{count: w}
		return
	}
	// Replace the minimum counter: the new key inherits its count as the
	// error bound.
	var minKey uint64
	var minC *refCounter
	for k, c := range t.counters {
		if minC == nil || c.count < minC.count || (c.count == minC.count && k < minKey) {
			minKey, minC = k, c
		}
	}
	delete(t.counters, minKey)
	t.counters[key] = &refCounter{count: minC.count + w, err: minC.count}
}

// Merge folds another sketch into this one. Counts for keys in both are
// summed; the union is then re-truncated to capacity, preserving the
// Space-Saving error semantics (the dropped minimum becomes the error bound
// of nothing — merged results keep upper-bound counts).
func (t *RefTopN) Merge(o *RefTopN) {
	if o == nil {
		return
	}
	for k, oc := range o.counters {
		if c, ok := t.counters[k]; ok {
			c.count += oc.count
			c.err += oc.err
		} else {
			t.counters[k] = &refCounter{count: oc.count, err: oc.err}
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
func (t *RefTopN) Len() int { return len(t.counters) }

// Entries returns all tracked keys sorted by descending estimated count,
// ties broken by ascending key for determinism.
func (t *RefTopN) Entries() []TopEntry {
	return t.appendEntries(make([]TopEntry, 0, len(t.counters)))
}

// appendEntries appends the ranked entries to dst (which must be empty).
func (t *RefTopN) appendEntries(dst []TopEntry) []TopEntry {
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
func (t *RefTopN) Top(n int) []TopEntry {
	e := t.Entries()
	if n < len(e) {
		e = e[:n]
	}
	return e
}

// AppendBinary appends the sketch's binary encoding to buf.
func (t *RefTopN) AppendBinary(buf []byte) []byte {
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

// DecodeRefTopN decodes a sketch from the front of data and returns the
// remaining bytes.
func DecodeRefTopN(data []byte) (*RefTopN, []byte, error) {
	capacity, data, err := readU32(data)
	if err != nil || capacity == 0 || capacity > 1<<20 {
		return nil, nil, ErrCorrupt
	}
	n, data, err := readU32(data)
	if err != nil || n > capacity || 3*uint64(n) > uint64(len(data)) {
		return nil, nil, ErrCorrupt
	}
	t := &RefTopN{capacity: int(capacity), counters: make(map[uint64]*refCounter, n)}
	for i := uint32(0); i < n; i++ {
		var e [3]uint64 // key, count, error bound
		for j := range e {
			if e[j], data, err = readU64(data); err != nil {
				return nil, nil, err
			}
		}
		t.counters[e[0]] = &refCounter{count: e[1], err: e[2]}
	}
	return t, data, nil
}

// RefTDigest is a merging t-digest (Dunning & Ertl) for approximate quantiles
// of a stream. It keeps a bounded number of weighted centroids whose sizes
// are constrained by the k1 scale function, making tail quantiles more
// accurate than the median. Accuracy is controlled by the compression
// parameter: with compression 100 the digest keeps at most ~200 centroids
// and typical quantile error is well under 1% of rank.
//
// TDigests merge associatively and commutatively within their approximation
// tolerance. The zero value is not usable; construct with NewRefTDigest.
type RefTDigest struct {
	compression float64
	centroids   []refCentroid // sorted by mean once processed
	buffer      []refCentroid // unsorted incoming points
	bufferedW   float64
	totalW      float64
	min, max    float64
}

type refCentroid struct {
	mean   float64
	weight float64
}

// NewRefTDigest returns an empty digest with the given compression (values
// below 20 are raised to 20).
func NewRefTDigest(compression float64) *RefTDigest {
	if compression < 20 {
		compression = 20
	}
	return &RefTDigest{
		compression: compression,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add records a single observation.
func (t *RefTDigest) Add(x float64) { t.AddWeighted(x, 1) }

// AddWeighted records an observation with positive weight.
func (t *RefTDigest) AddWeighted(x, w float64) {
	if w <= 0 || math.IsNaN(x) {
		return
	}
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	t.buffer = append(t.buffer, refCentroid{x, w})
	t.bufferedW += w
	if len(t.buffer) >= int(8*t.compression) {
		t.process()
	}
}

// Count returns the total observed weight.
func (t *RefTDigest) Count() float64 { return t.totalW + t.bufferedW }

// Merge folds another digest into this one. Both digests are compressed to
// their canonical refCentroid form first: encoding a digest (AppendBinary)
// compresses it too, so a digest that crossed a wire merges exactly like
// the in-memory original, and a chain of merges yields the same bits
// whether its inputs were serialized or not. process is idempotent —
// adjacent centroids that survived one compression pass still exceed the
// scale bound on the next — so pre-compressing never loses information.
func (t *RefTDigest) Merge(o *RefTDigest) {
	if o == nil || o.Count() == 0 {
		return
	}
	if o.min < t.min {
		t.min = o.min
	}
	if o.max > t.max {
		t.max = o.max
	}
	o.process()
	t.process()
	if t.totalW == 0 && t.compression == o.compression {
		// A copy into an empty digest: process being idempotent, the pass
		// below would hand o's centroids back unchanged.
		t.centroids, t.totalW = slices.Clone(o.centroids), o.totalW
		return
	}
	t.buffer = append(t.buffer, o.centroids...)
	t.bufferedW += o.totalW
	t.process()
}

// k1 scale function and its inverse: k(q) = δ/2π · asin(2q−1).
func (t *RefTDigest) k(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// process merges the buffer into the refCentroid list, compressing to the scale
// bound.
func (t *RefTDigest) process() {
	if len(t.buffer) == 0 {
		return
	}
	all := append(t.centroids, t.buffer...)
	// sort.Slice's `<`, three-way (NaN equal to all, as there): the same
	// pdqsort and permutation without the reflection swapper.
	slices.SortFunc(all, func(a, b refCentroid) int {
		switch {
		case a.mean < b.mean:
			return -1
		case b.mean < a.mean:
			return 1
		}
		return 0
	})
	total := t.totalW + t.bufferedW

	merged := all[:0]
	cur := all[0]
	var cumulative float64
	for _, c := range all[1:] {
		q0 := cumulative / total
		q2 := (cumulative + cur.weight + c.weight) / total
		if t.k(q2)-t.k(q0) <= 1 {
			// Merge c into cur.
			w := cur.weight + c.weight
			cur.mean += (c.mean - cur.mean) * c.weight / w
			cur.weight = w
		} else {
			merged = append(merged, cur)
			cumulative += cur.weight
			cur = c
		}
	}
	merged = append(merged, cur)

	t.centroids = merged
	t.buffer = nil
	t.bufferedW = 0
	t.totalW = total
}

// Quantile returns the approximate value at quantile q in [0, 1]. It returns
// NaN for an empty digest; q outside [0,1] is clamped.
func (t *RefTDigest) Quantile(q float64) float64 {
	t.process()
	if t.totalW == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	cs := t.centroids
	if len(cs) == 1 {
		return cs[0].mean
	}
	target := q * t.totalW
	// Walk cumulative weights; interpolate between refCentroid midpoints.
	var cum float64
	for i, c := range cs {
		mid := cum + c.weight/2
		if target < mid {
			if i == 0 {
				// Between min and the first refCentroid midpoint.
				f := target / mid
				return t.min + f*(c.mean-t.min)
			}
			prev := cs[i-1]
			prevMid := cum - prev.weight/2
			f := (target - prevMid) / (mid - prevMid)
			return prev.mean + f*(c.mean-prev.mean)
		}
		cum += c.weight
	}
	// Between the last refCentroid midpoint and max.
	last := cs[len(cs)-1]
	lastMid := t.totalW - last.weight/2
	f := (target - lastMid) / (t.totalW - lastMid)
	if f > 1 {
		f = 1
	}
	return last.mean + f*(t.max-last.mean)
}

// Centroids returns the number of stored centroids (after compressing any
// buffered points). Exposed for tests and diagnostics.
func (t *RefTDigest) Centroids() int {
	t.process()
	return len(t.centroids)
}

// AppendBinary appends the digest's binary encoding to buf.
func (t *RefTDigest) AppendBinary(buf []byte) []byte {
	t.process()
	buf = appendF64(buf, t.compression)
	buf = appendF64(buf, t.min)
	buf = appendF64(buf, t.max)
	buf = appendU32(buf, uint32(len(t.centroids)))
	for _, c := range t.centroids {
		buf = appendF64(buf, c.mean)
		buf = appendF64(buf, c.weight)
	}
	return buf
}

// DecodeRefTDigest decodes a digest from the front of data and returns the
// remaining bytes.
func DecodeRefTDigest(data []byte) (*RefTDigest, []byte, error) {
	var err error
	t := &RefTDigest{}
	for _, f := range [...]*float64{&t.compression, &t.min, &t.max} {
		if *f, data, err = readF64(data); err != nil {
			return nil, nil, err
		}
	}
	if t.compression < 20 || t.compression > 1e6 || math.IsNaN(t.compression) {
		return nil, nil, ErrCorrupt
	}
	var n uint32
	if n, data, err = readU32(data); err != nil || 2*uint64(n) > uint64(len(data)) {
		return nil, nil, ErrCorrupt
	}
	t.centroids = make([]refCentroid, n)
	for i := range t.centroids {
		if t.centroids[i].mean, data, err = readF64(data); err != nil {
			return nil, nil, err
		}
		if t.centroids[i].weight, data, err = readF64(data); err != nil {
			return nil, nil, err
		}
		t.totalW += t.centroids[i].weight
	}
	return t, data, nil
}

// RefAngularHistogram counts observations of an angle (degrees, [0,360)) into
// fixed-width bins — the paper's 30° course and heading bins (Table 3). The
// zero value is unusable; construct with NewRefAngularHistogram.
type RefAngularHistogram struct {
	binWidth float64
	counts   []uint64
}

// NewRefAngularHistogram returns a histogram with the given number of equal
// bins over [0, 360). Bin counts below 1 are raised to 1.
func NewRefAngularHistogram(bins int) *RefAngularHistogram {
	if bins < 1 {
		bins = 1
	}
	return &RefAngularHistogram{
		binWidth: 360 / float64(bins),
		counts:   make([]uint64, bins),
	}
}

// Add records one observation of the angle in degrees; any real value is
// wrapped into [0, 360). NaN is ignored.
func (h *RefAngularHistogram) Add(angleDeg float64) { h.AddWeighted(angleDeg, 1) }

// AddWeighted records w observations of the angle.
func (h *RefAngularHistogram) AddWeighted(angleDeg float64, w uint64) {
	if math.IsNaN(angleDeg) || w == 0 {
		return
	}
	a := math.Mod(angleDeg, 360)
	if a < 0 {
		a += 360
	}
	idx := int(a / h.binWidth)
	if idx >= len(h.counts) { // a == 360-ε floating edge
		idx = len(h.counts) - 1
	}
	h.counts[idx] += w
}

// Merge folds another histogram into this one. Histograms must have the same
// bin count; mismatches are ignored.
func (h *RefAngularHistogram) Merge(o *RefAngularHistogram) {
	if o == nil || len(o.counts) != len(h.counts) {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Bins returns a copy of the per-bin counts. Bin i covers
// [i·width, (i+1)·width) degrees.
func (h *RefAngularHistogram) Bins() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// AppendBinary appends the histogram's binary encoding to buf.
func (h *RefAngularHistogram) AppendBinary(buf []byte) []byte {
	buf = appendU32(buf, uint32(len(h.counts)))
	for _, c := range h.counts {
		buf = appendU64(buf, c)
	}
	return buf
}

// DecodeRefAngularHistogram decodes a histogram from the front of data and
// returns the remaining bytes.
func DecodeRefAngularHistogram(data []byte) (*RefAngularHistogram, []byte, error) {
	n, data, err := readU32(data)
	if err != nil || n == 0 || n > 3600 || int(n) > len(data) {
		return nil, nil, ErrCorrupt
	}
	h := NewRefAngularHistogram(int(n))
	for i := range h.counts {
		if h.counts[i], data, err = readU64(data); err != nil {
			return nil, nil, err
		}
	}
	return h, data, nil
}

// RefHyperLogLog estimates the number of distinct 64-bit hashed values observed
// (Flajolet et al., with linear-counting small-range correction). It is used
// for the paper's distinct-ship and distinct-trip statistics (Table 3).
//
// Most grid cells see only a handful of distinct vessels, so the sketch
// starts in a sparse representation — a small sorted array of
// (register, rank) pairs — and promotes itself to the dense 2^p register
// array only past sparseLimit occupied registers. This keeps a
// hundred-thousand-cell inventory hundreds of megabytes smaller with
// identical estimates.
//
// Construct with NewRefHyperLogLog; sketches of equal precision merge by
// register-wise maximum.
type RefHyperLogLog struct {
	p         uint8
	registers []uint8  // dense representation; nil while sparse
	sparse    []uint32 // packed idx<<8|rank, sorted by idx; nil when dense
}

// NewRefHyperLogLog returns an empty sketch with 2^p registers. Precision is
// clamped to [4, 16].
func NewRefHyperLogLog(p uint8) *RefHyperLogLog {
	if p < 4 {
		p = 4
	}
	if p > 16 {
		p = 16
	}
	return &RefHyperLogLog{p: p}
}

// numRegisters returns 2^p.
func (h *RefHyperLogLog) numRegisters() int { return 1 << h.p }

// AddHash records an already-hashed value. Use Mix64 or HashString to hash
// raw identifiers.
func (h *RefHyperLogLog) AddHash(hash uint64) {
	idx := uint32(hash >> (64 - h.p))
	rank := uint8(bits.LeadingZeros64(hash<<h.p|1)) + 1
	h.setRegister(idx, rank)
}

func (h *RefHyperLogLog) setRegister(idx uint32, rank uint8) {
	if h.registers != nil {
		if rank > h.registers[idx] {
			h.registers[idx] = rank
		}
		return
	}
	// Sparse: binary search the packed, idx-sorted array.
	i := sort.Search(len(h.sparse), func(i int) bool { return h.sparse[i]>>8 >= idx })
	if i < len(h.sparse) && h.sparse[i]>>8 == idx {
		if rank > uint8(h.sparse[i]) {
			h.sparse[i] = idx<<8 | uint32(rank)
		}
		return
	}
	h.sparse = append(h.sparse, 0)
	copy(h.sparse[i+1:], h.sparse[i:])
	h.sparse[i] = idx<<8 | uint32(rank)
	if len(h.sparse) > sparseLimit {
		h.densify()
	}
}

// densify converts the sparse array into the dense register file.
func (h *RefHyperLogLog) densify() {
	if h.registers != nil {
		return
	}
	h.registers = make([]uint8, h.numRegisters())
	for _, packed := range h.sparse {
		idx := packed >> 8
		rank := uint8(packed)
		if rank > h.registers[idx] {
			h.registers[idx] = rank
		}
	}
	h.sparse = nil
}

// AddUint64 hashes and records an integer identifier.
func (h *RefHyperLogLog) AddUint64(v uint64) { h.AddHash(Mix64(v)) }

// Merge folds another sketch into this one. Sketches must share precision;
// mismatched precision merges are ignored (callers construct all sketches
// with HLLPrecision).
func (h *RefHyperLogLog) Merge(o *RefHyperLogLog) {
	if o == nil || o.p != h.p {
		return
	}
	if o.registers != nil {
		h.densify()
		for i, r := range o.registers {
			if r > h.registers[i] {
				h.registers[i] = r
			}
		}
		return
	}
	for _, packed := range o.sparse {
		h.setRegister(packed>>8, uint8(packed))
	}
}

// Estimate returns the approximate distinct count.
func (h *RefHyperLogLog) Estimate() uint64 {
	m := float64(h.numRegisters())
	var sum float64
	var zeros int
	if h.registers != nil {
		for _, r := range h.registers {
			sum += 1 / float64(uint64(1)<<r)
			if r == 0 {
				zeros++
			}
		}
	} else {
		zeros = h.numRegisters() - len(h.sparse)
		sum = float64(zeros)
		for _, packed := range h.sparse {
			sum += 1 / float64(uint64(1)<<uint8(packed))
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

// AppendBinary appends the sketch's binary encoding to buf: the run-length
// layout unless it would take as many bytes as the raw one, decided on the
// bytes the runs actually encode to. It only reads the sketch: encoding a
// summary that other goroutines are querying is safe, and its cost follows
// the occupied registers, not 2^p, while the sketch is sparse.
func (h *RefHyperLogLog) AppendBinary(buf []byte) []byte {
	n := h.numRegisters()
	buf = append(buf, h.p, hllModeRLE)
	start := len(buf)
	// next is the first register no pair has covered yet; both
	// representations yield their occupied registers in ascending order
	// (sparse ranks are never zero: AddHash ranks start at 1 and decode
	// skips zeros).
	next := uint32(0)
	if h.registers != nil {
		for i, r := range h.registers {
			if r != 0 {
				buf = append(appendU32(buf, uint32(i)-next), r)
				next = uint32(i) + 1
			}
		}
	} else {
		for _, packed := range h.sparse {
			buf = append(appendU32(buf, packed>>8-next), uint8(packed))
			next = packed>>8 + 1
		}
	}
	if next < uint32(n) {
		// Trailing zero run, closed by a zero value.
		buf = append(appendU32(buf, uint32(n)-next), 0)
	}
	if len(buf)-start < n {
		return buf
	}
	buf[start-1] = hllModeRaw
	if h.registers != nil {
		return append(buf[:start], h.registers...)
	}
	buf = append(buf[:start], make([]byte, n)...)
	for _, packed := range h.sparse {
		buf[start+int(packed>>8)] = uint8(packed)
	}
	return buf
}

// DecodeRefHyperLogLog decodes a sketch from the front of data and returns the
// remaining bytes. Sketches with few occupied registers decode into the
// sparse representation.
func DecodeRefHyperLogLog(data []byte) (*RefHyperLogLog, []byte, error) {
	if len(data) < 2 {
		return nil, nil, ErrCorrupt
	}
	p := data[0]
	if p < 4 || p > 16 {
		return nil, nil, ErrCorrupt
	}
	mode := data[1]
	data = data[2:]
	h := NewRefHyperLogLog(p)
	n := uint32(h.numRegisters())
	switch mode {
	case hllModeRaw:
		if uint32(len(data)) < n {
			return nil, nil, ErrCorrupt
		}
		h.registers = make([]uint8, n)
		copy(h.registers, data[:n])
		return h, data[n:], nil
	case hllModeRLE:
		i := uint32(0)
		for i < n {
			run, rest, err := readU32(data)
			if err != nil || len(rest) < 1 {
				return nil, nil, ErrCorrupt
			}
			v := rest[0]
			data = rest[1:]
			if i+run > n || (v != 0 && i+run >= n) {
				return nil, nil, ErrCorrupt
			}
			i += run
			if v != 0 {
				h.setRegister(i, v)
				i++
			} else if i != n {
				return nil, nil, ErrCorrupt
			}
		}
		return h, data, nil
	default:
		return nil, nil, ErrCorrupt
	}
}
