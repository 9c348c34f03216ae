package stats

import "math"

// AngularHistogram counts observations of an angle (degrees, [0,360)) into
// fixed-width bins — the paper's 30° course and heading bins (Table 3). The
// counts are a fixed array of DefaultAngularBins, so a histogram owns no
// memory beyond itself; it may use fewer of them. The zero value is
// unusable; construct with NewAngularHistogram.
type AngularHistogram struct {
	bins   int
	counts [DefaultAngularBins]uint64
}

// DefaultAngularBins is the bin count the paper uses: twelve 30° bins. It
// is also the most a histogram holds.
const DefaultAngularBins = 12

// NewAngularHistogram returns a histogram with the given number of equal
// bins over [0, 360). Bin counts are clamped to [1, DefaultAngularBins].
func NewAngularHistogram(bins int) *AngularHistogram {
	return &AngularHistogram{bins: max(1, min(bins, DefaultAngularBins))}
}

// Add records one observation of the angle in degrees; any real value is
// wrapped into [0, 360). NaN is ignored.
func (h *AngularHistogram) Add(angleDeg float64) { h.AddWeighted(angleDeg, 1) }

// AddWeighted records w observations of the angle.
func (h *AngularHistogram) AddWeighted(angleDeg float64, w uint64) {
	if math.IsNaN(angleDeg) || w == 0 {
		return
	}
	a := math.Mod(angleDeg, 360)
	if a < 0 {
		a += 360
	}
	idx := int(a / (360 / float64(h.bins)))
	if idx >= h.bins { // a == 360-ε floating edge
		idx = h.bins - 1
	}
	h.counts[idx] += w
}

// Merge folds another histogram into this one. Histograms must have the same
// bin count; mismatches are ignored.
func (h *AngularHistogram) Merge(o *AngularHistogram) {
	if o == nil || o.bins != h.bins {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Bins returns a copy of the per-bin counts. Bin i covers
// [i·width, (i+1)·width) degrees.
func (h *AngularHistogram) Bins() []uint64 {
	return append([]uint64(nil), h.counts[:h.bins]...)
}

// AppendBinary appends the histogram's binary encoding to buf.
func (h *AngularHistogram) AppendBinary(buf []byte) []byte {
	buf = appendU32(buf, uint32(h.bins))
	for _, c := range h.counts[:h.bins] {
		buf = appendU64(buf, c)
	}
	return buf
}

// DecodeAngularHistogram decodes a histogram from the front of data and
// returns the remaining bytes. More than DefaultAngularBins bins is
// ErrCorrupt.
func DecodeAngularHistogram(data []byte) (AngularHistogram, []byte, error) {
	n, data, err := readU32(data)
	if err != nil || n == 0 || n > DefaultAngularBins || int(n) > len(data) {
		return AngularHistogram{}, nil, ErrCorrupt
	}
	h := AngularHistogram{bins: int(n)}
	for i := range h.counts[:n] {
		if h.counts[i], data, err = readU64(data); err != nil {
			return AngularHistogram{}, nil, err
		}
	}
	return h, data, nil
}

// CircularMean accumulates the vector mean of a stream of angles in degrees.
// It answers the paper's starred "mean course/heading" statistic (Table 3),
// where an arithmetic mean would be wrong (the mean of 359° and 1° must be
// 0°, not 180°). The zero value is an empty accumulator ready for use.
type CircularMean struct {
	sumSin, sumCos float64
	weight         float64
}

// Add records one angle in degrees.
func (c *CircularMean) Add(angleDeg float64) { c.AddWeighted(angleDeg, 1) }

// AddWeighted records an angle with positive weight.
func (c *CircularMean) AddWeighted(angleDeg, w float64) {
	if w <= 0 || math.IsNaN(angleDeg) {
		return
	}
	rad := angleDeg * math.Pi / 180
	c.sumSin += w * math.Sin(rad)
	c.sumCos += w * math.Cos(rad)
	c.weight += w
}

// Merge folds another accumulator into this one.
func (c *CircularMean) Merge(o *CircularMean) {
	c.sumSin += o.sumSin
	c.sumCos += o.sumCos
	c.weight += o.weight
}

// Mean returns the circular mean angle in degrees [0, 360), or NaN if empty
// or if the observations cancel (no preferred direction).
func (c *CircularMean) Mean() float64 {
	if c.weight == 0 || math.Hypot(c.sumSin, c.sumCos) < 1e-12*c.weight {
		return math.NaN()
	}
	deg := math.Atan2(c.sumSin, c.sumCos) * 180 / math.Pi
	if deg < 0 {
		deg += 360
	}
	return deg
}

// Resultant returns the mean resultant length R in [0, 1]: 1 means all
// angles identical, 0 means no directional concentration.
func (c *CircularMean) Resultant() float64 {
	if c.weight == 0 {
		return 0
	}
	return math.Hypot(c.sumSin, c.sumCos) / c.weight
}

// AppendBinary appends the accumulator's binary encoding to buf.
func (c *CircularMean) AppendBinary(buf []byte) []byte {
	return appendF64(appendF64(appendF64(buf, c.sumSin), c.sumCos), c.weight)
}

// DecodeCircularMean decodes an accumulator from the front of data and
// returns the remaining bytes.
func DecodeCircularMean(data []byte) (c CircularMean, rest []byte, err error) {
	for _, f := range [...]*float64{&c.sumSin, &c.sumCos, &c.weight} {
		if *f, data, err = readF64(data); err != nil {
			return CircularMean{}, nil, err
		}
	}
	return c, data, nil
}
