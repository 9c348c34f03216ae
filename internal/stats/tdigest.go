package stats

import (
	"math"
	"slices"
)

// TDigest is a merging t-digest (Dunning & Ertl) for approximate quantiles
// of a stream. It keeps a bounded number of weighted centroids whose sizes
// are constrained by the k1 scale function, making tail quantiles more
// accurate than the median. Accuracy is controlled by the compression
// parameter: with compression 100 the digest keeps at most ~200 centroids
// and typical quantile error is well under 1% of rank.
//
// TDigests merge associatively and commutatively within their approximation
// tolerance. The zero value is not usable; construct with NewTDigest.
type TDigest struct {
	compression float64
	centroids   []centroid // sorted by mean once processed
	buffer      []centroid // unsorted incoming points
	bufferedW   float64
	totalW      float64
	min, max    float64
}

type centroid struct {
	mean   float64
	weight float64
}

// DefaultCompression is the compression used throughout the inventory.
const DefaultCompression = 100

// NewTDigest returns an empty digest with the given compression (values
// below 20 are raised to 20).
func NewTDigest(compression float64) *TDigest {
	if compression < 20 {
		compression = 20
	}
	return &TDigest{
		compression: compression,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add records a single observation.
func (t *TDigest) Add(x float64) { t.AddWeighted(x, 1) }

// AddWeighted records an observation with positive weight.
func (t *TDigest) AddWeighted(x, w float64) {
	if w <= 0 || math.IsNaN(x) {
		return
	}
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	t.buffer = append(t.buffer, centroid{x, w})
	t.bufferedW += w
	if len(t.buffer) >= int(8*t.compression) {
		t.process()
	}
}

// Count returns the total observed weight.
func (t *TDigest) Count() float64 { return t.totalW + t.bufferedW }

// Merge folds another digest into this one. Both digests are compressed to
// their canonical centroid form first: encoding a digest (AppendBinary)
// compresses it too, so a digest that crossed a wire merges exactly like
// the in-memory original, and a chain of merges yields the same bits
// whether its inputs were serialized or not. process is idempotent —
// adjacent centroids that survived one compression pass still exceed the
// scale bound on the next — so pre-compressing never loses information.
func (t *TDigest) Merge(o *TDigest) {
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
func (t *TDigest) k(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// process merges the buffer into the centroid list, compressing to the scale
// bound.
func (t *TDigest) process() {
	if len(t.buffer) == 0 {
		return
	}
	all := append(t.centroids, t.buffer...)
	// sort.Slice's `<`, three-way (NaN equal to all, as there): the same
	// pdqsort and permutation without the reflection swapper.
	slices.SortFunc(all, func(a, b centroid) int {
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
func (t *TDigest) Quantile(q float64) float64 {
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
	// Walk cumulative weights; interpolate between centroid midpoints.
	var cum float64
	for i, c := range cs {
		mid := cum + c.weight/2
		if target < mid {
			if i == 0 {
				// Between min and the first centroid midpoint.
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
	// Between the last centroid midpoint and max.
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
func (t *TDigest) Centroids() int {
	t.process()
	return len(t.centroids)
}

// AppendBinary appends the digest's binary encoding to buf.
func (t *TDigest) AppendBinary(buf []byte) []byte {
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

// DecodeTDigest decodes a digest from the front of data and returns the
// remaining bytes.
func DecodeTDigest(data []byte) (*TDigest, []byte, error) {
	var err error
	t := &TDigest{}
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
	t.centroids = make([]centroid, n)
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
