// Package stats holds the benchmark's arithmetic: nearest-rank
// percentiles under the ten-samples-beyond rule, Python-compatible
// quartiles for the steadiness summary, pooled PSNR, and the yardstick
// ratios that cancel the host's speed drift.
package stats

import (
	"math"
	"sort"
	"time"
)

// MinBeyond is how many samples must lie above a percentile before it
// is reported: a p99 needs at least 1000 samples.
const MinBeyond = 10

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// the number of samples ranked above it. ok is false when fewer than
// MinBeyond samples lie beyond it, in which case the value must not be
// reported.
func Percentile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, 0, false
	}
	s := sorted(xs)
	k := int(math.Ceil(p * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	beyond = n - k
	return s[k-1], beyond, beyond >= MinBeyond
}

// Median is the middle value of xs (the mean of the middle two for an
// even count); 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the benchmark's own steadiness report matches the
// acceptance arithmetic. xs needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// Summary describes one metric across repeated runs.
type Summary struct {
	Median      float64
	Q1, Q3      float64
	IQRShare    float64 // (Q3 − Q1) / median: the acceptance spread
	MaxMinShare float64 // (max − min) / median
}

// Summarize computes the steadiness summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{Median: Median(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Q1, _, s.Q3, _ = Quartiles(xs)
	if s.Median != 0 {
		srt := sorted(xs)
		s.IQRShare = (s.Q3 - s.Q1) / math.Abs(s.Median)
		s.MaxMinShare = (srt[len(srt)-1] - srt[0]) / math.Abs(s.Median)
	}
	return s
}

// Rate is work per second; 0 for an empty duration.
func Rate(work float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return work / d.Seconds()
}

// Ratio is the program's rate over the yardstick's rate. Both sides
// completed their work on the same host within the same run, so a host
// that slows down slows both and the ratio stays put.
func Ratio(progWork float64, progDur time.Duration, yardWork float64, yardDur time.Duration) float64 {
	y := Rate(yardWork, yardDur)
	if y == 0 {
		return 0
	}
	return Rate(progWork, progDur) / y
}

// RescaleSetup maps a raw set-up time measured while the yardstick ran
// at yardMpxPerS onto a host whose yardstick runs at nominalMpxPerS.
// When the host is slow the yardstick is slow too, the raw time grows
// and the factor shrinks by the same proportion.
func RescaleSetup(rawS, yardMpxPerS, nominalMpxPerS float64) float64 {
	if nominalMpxPerS <= 0 {
		return 0
	}
	return rawS * yardMpxPerS / nominalMpxPerS
}

// PSNR pools squared error over many image pairs so that one figure
// covers a whole frame set.
type PSNR struct {
	se float64
	n  int64
}

// Add folds one equal-length pixel pair into the pool and returns the
// pair's own PSNR.
func (p *PSNR) Add(a, b []uint8) float64 {
	var se float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		se += d * d
	}
	p.se += se
	p.n += int64(len(a))
	return DB(se, int64(len(a)))
}

// DB is the pooled peak signal-to-noise ratio; +Inf when every pixel
// matched.
func (p *PSNR) DB() float64 { return DB(p.se, p.n) }

// DB converts a squared-error sum over n samples to PSNR.
func DB(se float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	mse := se / float64(n)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
