package jpegcodec

// The quantizer's float rounding, kept as test oracles: quantize, the
// per-coefficient quantizer the per-block reference paths call, and
// roundQuantizedFloat, the Floor/Copysign rounding quantizeRunInto ran
// before roundQuantized took its integer form.

import (
	"math"
	"math/rand"
	"testing"
)

// quantize rounds coef/step half away from zero, the quantizer in T.81 and
// Eq. (1) of the paper's JPEG description. q is a fused divisor — the
// quantization step with the transform scale factor already folded in.
// Ties within quantizeTieEps of the boundary round deterministically away
// from zero regardless of the rounding error the folding introduced.
func quantize(c float64, q float64) int32 {
	v := c / q
	neg := v < 0
	if neg {
		v = -v
	}
	r := v + 0.5
	m := math.Floor(r)
	if r-m > 1-quantizeTieEps {
		m++
	}
	out := int32(m)
	if neg {
		out = -out
	}
	return out
}

// roundQuantizedFloat is quantize's rounding of an already-divided
// coefficient in branch-free float form.
func roundQuantizedFloat(v float64) int32 {
	a := math.Abs(v)
	r := a + 0.5
	m := math.Floor(r)
	if r-m > 1-quantizeTieEps {
		m++
	}
	return int32(math.Copysign(m, v))
}

// TestRoundQuantizedOracle holds the integer rounding to the float one
// bit for bit. Structured values: every k and k+½ for |k| ≤ 70000, and
// k+½±quantizeTieEps, each with the 40 neighbouring floats either side;
// ±0, subnormals, the neighbourhood of ±2³¹ and powers of two up to
// ±2⁴⁷, plus ±Inf, NaN and magnitudes past 2⁶³. Then seeded random
// values: uniform across the coefficient range, clustered at the tie
// band, and raw bit patterns. Past 2³¹ the oracle's float64→int32
// conversion is implementation-defined; there the values are compared
// on amd64 only, where it yields math.MinInt32 as roundQuantized does.
// The test skips under -race, as the verdict pins do.
func TestRoundQuantizedOracle(t *testing.T) {
	if raceEnabled {
		t.Skip("pure arithmetic, about 20 s under -race; the decode leg runs it")
	}
	n := 0
	check := func(v float64) {
		n++
		if !oracleComparable() && !(math.Abs(v)+0.5 < 1<<31) {
			return
		}
		if got, want := roundQuantized(v), roundQuantizedFloat(v); got != want {
			t.Fatalf("v = %v (%#016x): integer rounding %d, float rounding %d",
				v, math.Float64bits(v), got, want)
		}
	}
	around := func(p float64) {
		check(p)
		up, down := p, p
		for range 40 {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			check(up)
			check(down)
		}
	}
	for k := -70000; k <= 70000; k++ {
		f := float64(k)
		around(f)
		around(f + 0.5)
		around(f + 0.5 + quantizeTieEps)
		around(f + 0.5 - quantizeTieEps)
	}
	for _, v := range []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), -math.Float64frombits(1<<52 - 1),
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
		0x1p63, -0x1p63, 0x1p64, -0x1p64,
	} {
		check(v)
	}
	for _, p := range []float64{0x1p31 - 1, 0x1p31 - 0.5, 0x1p31, 0x1p31 + 0.5} {
		around(p)
		around(-p)
	}
	for e := 17; e <= 47; e++ {
		p := math.Ldexp(1, e)
		for _, q := range []float64{p, p - 0.5, p + 0.5} {
			around(q)
			around(-q)
		}
	}
	structured := n
	rng := rand.New(rand.NewSource(19))
	for range 20_000_000 / 3 {
		check((rng.Float64()*2 - 1) * 70000)
		check(float64(rng.Intn(140001)-70000) + 0.5 + (rng.Float64()*4-2)*quantizeTieEps)
		check(math.Float64frombits(rng.Uint64()))
	}
	t.Logf("%d structured and %d random values", structured, n-structured)
}
