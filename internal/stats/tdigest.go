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
	// centroids[:sorted] is the compressed digest, ordered by mean;
	// centroids[sorted:] the points added since, in arrival order, until
	// process folds them in.
	centroids []centroid
	sorted    int
	totalW    float64 // weight of centroids[:sorted]
	min, max  float64
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
	t.centroids = append(t.centroids, centroid{x, w})
	if len(t.centroids)-t.sorted >= int(8*t.compression) {
		t.process()
		// The points are folded in: keep the digest, not their room.
		t.centroids = slices.Clone(t.centroids)
	}
}

// tailWeight is the weight of the points not yet folded in, summed in
// arrival order.
func (t *TDigest) tailWeight() float64 {
	var w float64
	for _, c := range t.centroids[t.sorted:] {
		w += c.weight
	}
	return w
}

// Count returns the total observed weight.
func (t *TDigest) Count() float64 { return t.totalW + t.tailWeight() }

// Merge folds another digest into this one. Both digests are compressed to
// their canonical centroid form first: encoding a digest (AppendBinary)
// compresses it too, so a digest that crossed a wire merges exactly like
// the in-memory original, and a chain of merges yields the same bits
// whether its inputs were serialized or not. process is idempotent —
// adjacent centroids that survived one compression pass still exceed the
// scale bound on the next — so pre-compressing never loses information.
// With room for o's centroids in t's slice, Merge allocates nothing.
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
		t.centroids = append(t.centroids[:0], o.centroids...)
		t.sorted, t.totalW = len(t.centroids), o.totalW
		return
	}
	if need := len(t.centroids) + len(o.centroids); cap(t.centroids) < need {
		// Exactly: a fold decodes its master at exact size, then merges once.
		t.centroids = append(make([]centroid, 0, need), t.centroids...)
	}
	t.centroids = append(t.centroids, o.centroids...)
	var tailW float64
	tailW += o.totalW // as the tail's own sum starts from zero
	t.compress(tailW)
}

// k1 scale function and its inverse: k(q) = δ/2π · asin(2q−1).
func (t *TDigest) k(q float64) float64 {
	q = min(max(q, 0), 1) // NaN stays NaN
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// kBand is half the width, in q, of the band around the scale bound inside
// which compress still asks k itself. Outside it the answer cannot differ:
// k's slope is at least δ/π ≥ 6.4, so 1e-9 in q is over 6e-9 in k, against
// rounding errors in k and in bound's inverse of 1e-10 at most.
const kBand = 1e-9

// bound returns the q range [lo, hi] outside which k(q)−k(q0) ≤ 1 is
// decided by q alone: every q below lo passes, every q above hi fails. It
// is (sin(asin(y0)+c)+1)/2, y0 = 2q0−1 and c = 2π/δ, expanded so that with
// cos c and sin c from compress it takes no sine and no arcsine.
func bound(q0, cosC, sinC float64) (lo, hi float64) {
	y0 := 2*min(max(q0, 0), 1) - 1 // k's clamp
	if math.IsNaN(y0) {
		return math.Inf(-1), math.Inf(1)
	}
	q := 1.0 // the bound lies past q = 1: everything below passes
	if y0 < cosC {
		q = (y0*cosC + math.Sqrt((1-y0)*(1+y0))*sinC + 1) / 2
	}
	lo, hi = q-kBand, q+kBand
	if hi >= 1 {
		hi = math.Inf(1) // k is flat past q = 1: there it decides itself
	}
	return lo, hi
}

// process folds the points added since the last pass into the digest.
func (t *TDigest) process() {
	if t.sorted < len(t.centroids) {
		t.compress(t.tailWeight())
	}
}

// compress sorts the centroids, digest and tail together, in place, and
// merges neighbours within the scale bound, writing the result over the
// front of the same slice. tailW is the weight the tail adds to totalW.
func (t *TDigest) compress(tailW float64) {
	all := t.centroids
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
	total := t.totalW + tailW

	merged := all[:0]
	cur := all[0]
	var cumulative float64
	sinC, cosC := math.Sincos(2 * math.Pi / t.compression)
	lo, hi := bound(0, cosC, sinC)
	k0 := math.NaN() // k(cumulative/total), asked for inside the band only
	for _, c := range all[1:] {
		q2 := (cumulative + cur.weight + c.weight) / total
		if q2 >= lo && q2 <= hi && math.IsNaN(k0) {
			k0 = t.k(cumulative / total)
		}
		if q2 < lo || (q2 <= hi && t.k(q2)-k0 <= 1) {
			// Merge c into cur.
			w := cur.weight + c.weight
			cur.mean += (c.mean - cur.mean) * c.weight / w
			cur.weight = w
		} else {
			merged = append(merged, cur)
			cumulative += cur.weight
			cur = c
			lo, hi = bound(cumulative/total, cosC, sinC)
			k0 = math.NaN()
		}
	}
	merged = append(merged, cur)

	t.centroids, t.sorted, t.totalW = merged, len(merged), total
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
func DecodeTDigest(data []byte) (TDigest, []byte, error) {
	return decodeTDigest(data, false)
}

// SkipTDigest steps over the digest at the front of data, refusing what
// DecodeTDigest refuses, and returns the bytes after it without building
// the digest.
func SkipTDigest(data []byte) ([]byte, error) {
	_, rest, err := decodeTDigest(data, true)
	return rest, err
}

// decodeTDigest decodes a digest, or with skip only checks it.
func decodeTDigest(data []byte, skip bool) (TDigest, []byte, error) {
	var err error
	var t TDigest
	for _, f := range [...]*float64{&t.compression, &t.min, &t.max} {
		if *f, data, err = readF64(data); err != nil {
			return TDigest{}, nil, err
		}
	}
	if t.compression < 20 || t.compression > 1e6 || math.IsNaN(t.compression) {
		return TDigest{}, nil, ErrCorrupt
	}
	var n uint32
	if n, data, err = readU32(data); err != nil || 2*uint64(n) > uint64(len(data)) {
		return TDigest{}, nil, ErrCorrupt
	}
	if skip {
		rest, err := skipU64s(data, 2*uint64(n))
		return TDigest{}, rest, err
	}
	t.centroids = make([]centroid, n)
	for i := range t.centroids {
		if t.centroids[i].mean, data, err = readF64(data); err != nil {
			return TDigest{}, nil, err
		}
		if t.centroids[i].weight, data, err = readF64(data); err != nil {
			return TDigest{}, nil, err
		}
		t.totalW += t.centroids[i].weight
	}
	t.sorted = len(t.centroids)
	return t, data, nil
}
