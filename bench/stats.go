package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the exact p-th percentile (nearest rank) of xs; it
// sorts xs in place. An empty sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// overSlices folds one metric's per-slice values into the reported value:
// the median, with the extremes as the spread.
func overSlices(xs []float64) value {
	if len(xs) == 0 {
		return value{}
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return value{V: median(c), Min: c[0], Max: c[len(c)-1]}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sliceDur cuts the run's measured time into equal slices.
func sliceDur(seconds float64) time.Duration {
	return time.Duration(seconds / slices * float64(time.Second))
}

// share returns the fraction f of d.
func share(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
