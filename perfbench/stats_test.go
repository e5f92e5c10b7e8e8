package main

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func seq(n int) dist {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return newDist(xs)
}

func TestPctNearestRank(t *testing.T) {
	d := seq(10) // 1..10
	for _, c := range []struct{ q, want float64 }{{50, 5}, {90, 9}, {95, 10}, {99, 10}, {10, 1}, {100, 10}} {
		if got := d.pct(c.q); got != c.want {
			t.Errorf("pct(%g) of 1..10 = %g, want %g", c.q, got, c.want)
		}
	}
}

// The tail is the highest listed percentile with at least ten samples
// ranked above it; the reported sample count comes with it.
func TestTailLevelNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		level float64
	}{
		{19, 50}, // no level qualifies: the median, with 9 above it
		{20, 50},
		{39, 50}, // p75 would leave 9
		{40, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{999, 95}, // p99 would leave 9
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	} {
		d := seq(c.n)
		level, value := d.tail()
		if level != c.level {
			t.Errorf("n=%d: tail at %s, want %s", c.n, pctName(level), pctName(c.level))
		}
		if value != d.pct(level) {
			t.Errorf("n=%d: tail value %g, pct gives %g", c.n, value, d.pct(level))
		}
		if c.n >= 2*minBeyond && d.beyond(level) < minBeyond {
			t.Errorf("n=%d: %d samples beyond %s", c.n, d.beyond(level), pctName(level))
		}
	}
}

func TestMedianAndDurDist(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	d := durDist([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}, time.Millisecond)
	if d.median() != 2 || d.n() != 3 {
		t.Errorf("durDist median %g n %d, want 2 and 3", d.median(), d.n())
	}
}

// Runs of one seed may differ only in the MP3 columns that depend on
// the encoder's bit counts.
func TestStableOutputMasksOnlyBitColumns(t *testing.T) {
	a := "==== Figure 4-8 ====\n0.25  0.00  24 ±1  100%\n==== Figure 4-9 ====\np  energy [J]\n0.25  0.0966 ±0.0018\n==== Figure 4-11 ====\n80%  115937  2.32\n"
	bits := strings.NewReplacer("115937", "116012", "0.0966 ±0.0018", "0.0967 ±0.0019").Replace(a)
	if !slices.Equal(stableOutput([]byte(a)), stableOutput([]byte(bits))) {
		t.Errorf("bit-dependent columns not masked")
	}
	for _, other := range []string{
		strings.Replace(a, "2.32", "2.33", 1),   // Fig. 4-11 jitter
		strings.Replace(a, "24 ±1", "25 ±1", 1), // Fig. 4-8 latency
		strings.Replace(a, "0.25  0.0966", "0.40  0.0966", 1),
	} {
		if slices.Equal(stableOutput([]byte(a)), stableOutput([]byte(other))) {
			t.Errorf("a change outside the bit columns was masked:\n%s", other)
		}
	}
}
