package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear interpolation
// between order statistics (the "inclusive" method: q=0 is the minimum,
// q=1 the maximum).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailLadder is the percentiles a timing may be reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it, and returns it with its value. With fewer
// than forty samples no rung qualifies and the median is returned.
func tailPercentile(sorted []float64) (q, value float64) {
	n := float64(len(sorted))
	for _, q := range tailLadder {
		if n*(1-q) >= 10-1e-9 { // 100*(1-0.9) is 9.999999999999998
			return q, quantile(sorted, q)
		}
	}
	return 0.5, quantile(sorted, 0.5)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the "exclusive" method), so
// that -compare judges spread the way the driver does.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
