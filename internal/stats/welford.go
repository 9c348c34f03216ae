package stats

import "math"

// Welford accumulates count, mean, variance, minimum and maximum of a stream
// of (optionally weighted) observations using Welford's online algorithm
// with Chan et al.'s parallel merge. The zero value is an empty accumulator
// ready for use.
type Welford struct {
	w    float64 // total weight
	mean float64
	m2   float64 // sum of squared deviations times weight
	min  float64
	max  float64
}

// Add records a single observation of weight 1.
func (a *Welford) Add(x float64) { a.AddWeighted(x, 1) }

// AddWeighted records an observation with the given positive weight.
// Non-positive weights are ignored.
func (a *Welford) AddWeighted(x, weight float64) {
	if weight <= 0 || math.IsNaN(x) {
		return
	}
	if a.w == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.w += weight
	delta := x - a.mean
	a.mean += delta * weight / a.w
	a.m2 += weight * delta * (x - a.mean)
}

// Merge folds another accumulator into this one. The result is identical
// (up to floating-point error) to having observed both streams in any order.
func (a *Welford) Merge(b *Welford) {
	if b.w == 0 {
		return
	}
	if a.w == 0 {
		*a = *b
		return
	}
	delta := b.mean - a.mean
	w := a.w + b.w
	a.m2 += b.m2 + delta*delta*a.w*b.w/w
	a.mean += delta * b.w / w
	a.w = w
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// Weight returns the total observed weight (the count, for unit weights).
func (a *Welford) Weight() float64 { return a.w }

// Mean returns the weighted mean, or NaN if empty.
func (a *Welford) Mean() float64 {
	if a.w == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the population variance, or NaN if empty.
func (a *Welford) Variance() float64 {
	if a.w == 0 {
		return math.NaN()
	}
	return a.m2 / a.w
}

// Std returns the population standard deviation, or NaN if empty.
func (a *Welford) Std() float64 { return math.Sqrt(a.Variance()) }

// AppendBinary appends the accumulator's binary encoding to buf.
func (a *Welford) AppendBinary(buf []byte) []byte {
	for _, v := range [...]float64{a.w, a.mean, a.m2, a.min, a.max} {
		buf = appendF64(buf, v)
	}
	return buf
}

// DecodeWelford decodes an accumulator from the front of data and returns
// the remaining bytes.
func DecodeWelford(data []byte) (a Welford, rest []byte, err error) {
	for _, f := range [...]*float64{&a.w, &a.mean, &a.m2, &a.min, &a.max} {
		if *f, data, err = readF64(data); err != nil {
			return Welford{}, nil, err
		}
	}
	return a, data, nil
}
