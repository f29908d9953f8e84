package jpegcodec

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/qtable"
)

// requantizeOracle is the float chain requantizeBlocks replaced: the
// source blocks dequantized by the plain coded steps (DequantizeBlocks
// over multipliers that are the steps themselves), then divided by the
// plain new steps and rounded by roundQuantizedFloat, the tie-snapped
// rounding quantizeRunInto ran when the integer pass replaced the chain.
func requantizeOracle(dst, src [][64]int32, from, to *qtable.Table, mask *qtable.ZeroMask) {
	var dequant qtable.InvScaled
	for i := range from {
		dequant[i] = float64(from[i])
	}
	plane := make([]float64, len(src)*64)
	dequant.DequantizeBlocks(plane, src)
	for bi := range dst {
		for i := range 64 {
			dst[bi][i] = 0
			if mask == nil || !mask[i] {
				dst[bi][i] = roundQuantizedFloat(plane[bi*64+i] / float64(to[i]))
			}
		}
	}
}

// oracleComparable reports whether the float oracle is defined on every
// input here. Past 2³¹ its float64→int32 conversion is
// implementation-defined; amd64 yields math.MinInt32, which
// requantizeBlocks reproduces, while other architectures saturate.
func oracleComparable() bool { return runtime.GOARCH == "amd64" }

// TestRequantizeIntegerOracle holds the integer requantize pass to the
// float chain it replaced, bit for bit, over every 8-bit source step
// (0..255, 0 being what a zero mask folds in) plus the 16-bit steps 256,
// 4095 and 65535, against every new step 1..255. Each (source, new)
// pair recodes one block of coefficients: the extremes (0, ±1, ±2047,
// ±32767, ±2²⁴, MaxInt32, MinInt32), the two magnitudes either side of
// the pass's reciprocal-multiply bound, and seeded random values, both
// small and across the whole int32 range. Every pair runs with and
// without a zero mask.
func TestRequantizeIntegerOracle(t *testing.T) {
	if !oracleComparable() {
		t.Skip("the float oracle's out-of-range int32 conversion is pinned on amd64 only")
	}
	fixed := []int32{0, 1, -1, 2047, -2047, 32767, -32767, 1 << 24, -(1 << 24), math.MaxInt32, math.MinInt32}
	olds := make([]uint16, 0, 259)
	for q := range 256 {
		olds = append(olds, uint16(q))
	}
	olds = append(olds, 256, 4095, 65535)
	var mask qtable.ZeroMask
	for i := range mask {
		mask[i] = i%3 == 1
	}
	rng := rand.New(rand.NewSource(17))
	src := make([][64]int32, 1)
	got := make([][64]int32, 1)
	want := make([][64]int32, 1)
	var from, to qtable.Table
	for _, qOld := range olds {
		for qNew := uint16(1); qNew <= 255; qNew++ {
			for i := range from {
				from[i], to[i] = qOld, qNew
			}
			b := &src[0]
			k := copy(b[:], fixed)
			if qOld > 0 {
				// |c|·qOld + ⌊qNew/2⌋ just below and at 2²⁴.
				edge := int32((1<<24 - int64(qNew/2) - 1) / int64(qOld))
				k += copy(b[k:], []int32{edge, -edge, edge + 1, -edge - 1})
			}
			for ; k < 64; k++ {
				if k%2 == 0 {
					b[k] = int32(rng.Intn(4095) - 2047)
				} else {
					b[k] = int32(rng.Uint32())
				}
			}
			for _, m := range []*qtable.ZeroMask{nil, &mask} {
				requantizeBlocks(got, src, make([]uint8, 1), []uint8{63}, &from, &to, m)
				requantizeOracle(want, src, &from, &to, m)
				if got[0] != want[0] {
					for i := range b {
						if got[0][i] != want[0][i] {
							t.Fatalf("qOld %d qNew %d mask %v band %d: c=%d requantizes to %d, float chain %d",
								qOld, qNew, m != nil, i, b[i], got[0][i], want[0][i])
						}
					}
				}
			}
		}
	}
}
