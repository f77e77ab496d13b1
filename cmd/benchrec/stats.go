package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is the sample count a reported tail percentile must have
// beyond it; with fewer, the percentile is noise and the median is
// reported instead.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean returns the mean of xs without the lowest and highest
// frac of the samples, or NaN for no samples.
func trimmedMean(xs []float64, frac float64) float64 {
	s := sorted(xs)
	k := int(frac * float64(len(s)))
	s = s[k : len(s)-k]
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns the first and third quartiles by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads printed here match the ones that function gives
// for the printed values. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)/100))
}

// tail reports the p-th percentile of xs (nearest rank) when at least
// minBeyond samples lie beyond it; otherwise it falls back to the median
// and ok is false. The caller reports the sample count either way.
func tail(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || beyond(n, p) < minBeyond {
		return median(xs), false
	}
	return sorted(xs)[n-beyond(n, p)-1], true
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) at the
// process's current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set size (VmHWM) in bytes
// since the last resetPeakRSS.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}
