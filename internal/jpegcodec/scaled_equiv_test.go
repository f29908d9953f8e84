package jpegcodec

// Fused-vs-unfused equivalence: the scaled-table hot loops (one divide
// or multiply per coefficient, scale factors folded into the table) must
// produce exactly what the two-pass formulation of the same butterflies
// produces — an explicit descale (prescale) pass, then plain
// integer-step quantization (dequantization). These property tests sit
// beside the reference-DCT tests in transform_equiv_test.go: they pin
// the folding itself, so a folding bug is caught at the coefficient
// where it happens rather than as an opaque byte diff.

import (
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/qtable"
)

// unfusedCoefficients is the two-pass forward path: orthonormal AAN
// transform (descale pass included), then quantization by the raw
// integer steps through the same tie-snapping quantizer.
func unfusedCoefficients(samples *[64]uint8, tbl *qtable.Table) [64]int32 {
	var blk dct.Block
	dct.LevelShift(samples[:], &blk)
	dct.ForwardAANBatch(blk[:])
	var out [64]int32
	for i := 0; i < 64; i++ {
		out[i] = quantize(blk[i], float64(tbl[i]))
	}
	return out
}

func TestFusedQuantizationMatchesUnfused(t *testing.T) {
	tables := []qtable.Table{
		qtable.StdLuminance,
		qtable.StdChrominance,
		qtable.MustScale(qtable.StdLuminance, 100), // all-ones: maximal tie exposure
		qtable.Uniform(16),
		qtable.Uniform(255),
	}
	rng := rand.New(rand.NewSource(47))
	var fwd qtable.FwdScaled
	for trial := 0; trial < 1500; trial++ {
		tile := randTile(rng)
		tbl := tables[trial%len(tables)]
		tbl.FwdScaledInto(&fwd)
		fused := blockCoefficients(&tile, &fwd, nil)
		unfused := unfusedCoefficients(&tile, &tbl)
		if fused != unfused {
			for i := range fused {
				if fused[i] != unfused[i] {
					t.Fatalf("trial %d: band %d quantizes to %d fused vs %d unfused",
						trial, i, fused[i], unfused[i])
				}
			}
		}
	}
}

// randCoefs draws plausible quantized coefficients: mostly small values
// with the DC allowed the full baseline range.
func randCoefs(rng *rand.Rand) [64]int32 {
	var c [64]int32
	c[0] = int32(rng.Intn(2047) - 1023)
	for i := 1; i < 64; i++ {
		if rng.Intn(4) == 0 { // sparse, like real AC bands
			c[i] = int32(rng.Intn(255) - 127)
		}
	}
	return c
}

func TestFusedDequantizationMatchesUnfused(t *testing.T) {
	tables := []qtable.Table{qtable.StdLuminance, qtable.Uniform(3), qtable.MustScale(qtable.StdLuminance, 90)}
	rng := rand.New(rand.NewSource(53))
	var inv qtable.InvScaled
	for trial := 0; trial < 800; trial++ {
		coefs := randCoefs(rng)
		tbl := tables[trial%len(tables)]
		tbl.InvScaledInto(&inv)

		var fused [64]uint8
		reconstructBlock(&coefs, &inv, &fused)

		// Unfused: dequantize by the raw steps, orthonormal inverse
		// (prescale pass included).
		var blk dct.Block
		for i := 0; i < 64; i++ {
			blk[i] = float64(coefs[i]) * float64(tbl[i])
		}
		dct.InverseAANBatch(blk[:])
		var unfused [64]uint8
		dct.LevelUnshift(&blk, unfused[:])

		// The folded path reassociates one multiplication per
		// coefficient ((c·q)·p vs c·(q·p)), so pixels may straddle a
		// rounding boundary by at most one grey level.
		if worst := maxPixelDelta(t, fused[:], unfused[:]); worst > 1 {
			t.Fatalf("trial %d: fused reconstruction differs by %d grey levels", trial, worst)
		}
	}
}
