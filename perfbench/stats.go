package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail may be reported at, highest
// last. A run reports the highest one that still has at least
// minBeyond samples above it, so a short run reports a lower
// percentile rather than an unsupported one.
var tailLevels = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// dist is a sorted sample of one timing, in the unit it is reported in.
type dist struct {
	xs []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{xs: s}
}

// durDist converts durations to a distribution in the given unit.
func durDist(ds []time.Duration, unit time.Duration) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return newDist(xs)
}

func (d dist) n() int { return len(d.xs) }

// pct returns the nearest-rank q-th percentile (0 < q <= 100): the
// smallest sample with at least q% of the samples at or below it.
func (d dist) pct(q float64) float64 {
	if len(d.xs) == 0 {
		return math.NaN()
	}
	k := rank(q, len(d.xs)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(d.xs) {
		k = len(d.xs) - 1
	}
	return d.xs[k]
}

// beyond counts the samples ranked above the q-th percentile.
func (d dist) beyond(q float64) int {
	return len(d.xs) - rank(q, len(d.xs))
}

// rank is the 1-based nearest rank of the q-th percentile of n samples,
// rounded so that 99.9% of 10000 is exactly 9990.
func rank(q float64, n int) int {
	return int(math.Ceil(q/100*float64(n) - 1e-9))
}

// tail returns the highest of tailLevels with at least minBeyond
// samples beyond it, and the percentile there. With fewer than
// 2×minBeyond samples no level qualifies and the median is returned.
func (d dist) tail() (level, value float64) {
	level = tailLevels[0]
	for _, q := range tailLevels {
		if d.beyond(q) >= minBeyond {
			level = q
		}
	}
	return level, d.pct(level)
}

func (d dist) median() float64 { return d.pct(50) }

// pctName renders a level as it appears in a metric name: 99 → "p99",
// 99.9 → "p99.9".
func pctName(q float64) string { return fmt.Sprintf("p%g", q) }

// median returns the median of xs (mean of the middle pair for an even
// count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs (nearest rank).
func quartiles(xs []float64) [2]float64 {
	d := newDist(xs)
	return [2]float64{d.pct(25), d.pct(75)}
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
