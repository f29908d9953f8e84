package stats

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{n: 1000, p: 0.99, want: 990, beyond: 10, ok: true},
		{n: 999, p: 0.99, want: 990, beyond: 9, ok: false},
		{n: 1009, p: 0.99, want: 999, beyond: 10, ok: true},
		{n: 20, p: 0.50, want: 10, beyond: 10, ok: true},
		{n: 19, p: 0.50, want: 10, beyond: 9, ok: false},
		{n: 2000, p: 0.50, want: 1000, beyond: 1000, ok: true},
	} {
		v, beyond, ok := Percentile(ramp(tc.n), tc.p)
		if v != tc.want || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("Percentile(n=%d, p=%v) = %v, %d beyond, ok=%v; want %v, %d, %v",
				tc.n, tc.p, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
	if _, _, ok := Percentile(nil, 0.5); ok {
		t.Error("Percentile of no samples reported ok")
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(xs,
// n=4) from CPython, the arithmetic the steadiness check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.61, 0.59, 0.6, 0.62, 0.58}, [3]float64{0.585, 0.6, 0.615}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 5}, [3]float64{5, 5, 5}},
	} {
		q1, q2, q3, ok := Quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Median != 5.5 || math.Abs(s.IQRShare-5.5/5.5) > 1e-12 || math.Abs(s.MaxMinShare-9/5.5) > 1e-12 {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestYardstickArithmetic(t *testing.T) {
	// Program 10 Mpx in 2 s, yardstick 40 Mpx in 4 s: 5 vs 10 Mpx/s.
	if r := Ratio(10, 2*time.Second, 40, 4*time.Second); r != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", r)
	}
	// A host running at half speed doubles both sides: the ratio holds.
	if r := Ratio(10, 4*time.Second, 40, 8*time.Second); r != 0.5 {
		t.Errorf("Ratio on a slowed host = %v, want 0.5", r)
	}
	if r := Ratio(1, time.Second, 0, time.Second); r != 0 {
		t.Errorf("Ratio against an idle yardstick = %v, want 0", r)
	}
	// Set-up took 2 s while the yardstick ran at 10 Mpx/s; the nominal
	// host runs it at 20 Mpx/s, so there set-up would take 1 s.
	if s := RescaleSetup(2, 10, 20); s != 1 {
		t.Errorf("RescaleSetup = %v, want 1", s)
	}
	// The same set-up on a host twice as fast reads the same.
	if s := RescaleSetup(1, 20, 20); s != 1 {
		t.Errorf("RescaleSetup on the nominal host = %v, want 1", s)
	}
}

func TestPSNR(t *testing.T) {
	var p PSNR
	a := []uint8{10, 20, 30, 40}
	if db := p.Add(a, a); !math.IsInf(db, 1) {
		t.Errorf("identical pair PSNR = %v, want +Inf", db)
	}
	b := []uint8{11, 21, 31, 41} // MSE 1
	want := 10 * math.Log10(255*255)
	if db := p.Add(a, b); math.Abs(db-want) > 1e-9 {
		t.Errorf("pair PSNR = %v, want %v", db, want)
	}
	// Pooled over 8 samples with squared error 4: MSE 0.5.
	if db := p.DB(); math.Abs(db-10*math.Log10(255*255/0.5)) > 1e-9 {
		t.Errorf("pooled PSNR = %v", db)
	}
}
