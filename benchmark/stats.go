package main

import (
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// counts); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the exclusive method
// Python's statistics.quantiles(xs, n=4) uses, because the driver judges a
// metric's spread with exactly that. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailCandidates are the percentiles a tail may be reported at, highest
// first, in tenths of a percent so that the sample counts stay exact.
var tailCandidates = []int{999, 990, 950, 900, 750}

// tailPercentile reports the highest candidate percentile that still has at
// least ten samples beyond it, and the latency there. With fewer than forty
// samples no candidate qualifies and ok is false.
func tailPercentile(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	for _, permille := range tailCandidates {
		idx := (n*permille + 999) / 1000 // samples at or below the percentile, rounded up
		if n-idx >= 10 {
			return float64(permille) / 10, sorted[idx-1], true
		}
	}
	return 0, 0, false
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
