package jpegcodec

// Batch-of-blocks hot path: the block stages (tile extraction + level
// shift, transform, quantize on encode; dequantize, inverse transform,
// level unshift + store on decode) run over whole block rows in a
// contiguous flat plane (dct batch layout: block k at plane[64k:64k+64]).
// The arithmetic is the per-block arithmetic — the batch_equiv_test.go
// property suite pins every helper here bit for bit against a per-block
// formulation kept in the tests — but the loops are flat and fused:
//
//   - the gather clamps edge coordinates only for the partial blocks at
//     the right/bottom margins; interior blocks take an unconditional
//     eight-lane copy (ExtractBlock pays the clamp per pixel);
//   - quantization runs as two passes over the whole run — a pure
//     division pass whose independent divisions pipeline back to back,
//     then a branch-free rounding pass (abs/floor/copysign instead of
//     the sign branches the per-block quantizer takes per coefficient);
//   - dequantization broadcasts the 64 fused multipliers over the run,
//     and pixels are stored row-contiguously with the clamp hoisted off
//     the interior blocks.

import (
	"math"

	"repro/internal/dct"
	"repro/internal/qtable"
)

// gatherBlockRow fills plane with the blocksX consecutive level-shifted
// 8×8 tiles of block row by — the fused form of ExtractBlock+LevelShift
// over a whole row. Edge semantics match ExtractBlock: coordinates past
// the plane replicate the last row/column. plane must hold blocksX*64
// floats.
func gatherBlockRow(plane []float64, pix []uint8, w, h, by, blocksX int) {
	fullX := w >> 3
	if fullX > blocksX {
		fullX = blocksX
	}
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= h {
			sy = h - 1
		}
		row := pix[sy*w : sy*w+w]
		d := y * 8
		for bx := 0; bx < fullX; bx++ {
			src := (*[8]uint8)(row[bx*8:])
			dst := (*[8]float64)(plane[bx*64+d:])
			dst[0] = float64(src[0]) - 128
			dst[1] = float64(src[1]) - 128
			dst[2] = float64(src[2]) - 128
			dst[3] = float64(src[3]) - 128
			dst[4] = float64(src[4]) - 128
			dst[5] = float64(src[5]) - 128
			dst[6] = float64(src[6]) - 128
			dst[7] = float64(src[7]) - 128
		}
		// Partial block at the right margin: clamp per sample.
		for bx := fullX; bx < blocksX; bx++ {
			base := bx*64 + d
			for x := 0; x < 8; x++ {
				sx := bx*8 + x
				if sx >= w {
					sx = w - 1
				}
				plane[base+x] = float64(row[sx]) - 128
			}
		}
	}
}

// quantizeRunInto quantizes len(dst) consecutive blocks from plane
// through the fused divisors, quantize applied to every coefficient of
// the run. plane is consumed (overwritten by the division pass).
// Two passes instead of one chain per coefficient: the divisions are
// independent and saturate the divider, and the rounding pass replaces
// the per-coefficient sign branches with abs/floor/copysign — same
// bits out (quantize's tie snap included), no branch misprediction per
// negative coefficient.
func quantizeRunInto(dst [][64]int32, plane []float64, tbl *qtable.FwdScaled, mask *qtable.ZeroMask) {
	n := len(dst)
	for bi := 0; bi < n; bi++ {
		b := (*[64]float64)(plane[bi*64:])
		for i := 0; i < 64; i++ {
			b[i] /= tbl[i]
		}
	}
	for bi := 0; bi < n; bi++ {
		b := (*[64]float64)(plane[bi*64:])
		out := &dst[bi]
		if mask == nil {
			for i := 0; i < 64; i++ {
				out[i] = roundQuantized(b[i])
			}
			continue
		}
		for i := 0; i < 64; i++ {
			if mask[i] {
				out[i] = 0
				continue
			}
			out[i] = roundQuantized(b[i])
		}
	}
}

// roundQuantized rounds an already-divided coefficient half away from
// zero with quantize's tie snap. It must agree with quantize(c, q) for
// v = c/q on every input — pinned by TestQuantizeRunMatchesPerBlock —
// and differs only in shape: math.Abs/math.Copysign are branch-free
// intrinsics where quantize branches on the sign twice.
func roundQuantized(v float64) int32 {
	a := math.Abs(v)
	r := a + 0.5
	m := math.Floor(r)
	if r-m > 1-quantizeTieEps {
		m++
	}
	return int32(math.Copysign(m, v))
}

// roundToSample rounds v half away from zero and clamps it to [0, 255]:
// math.Round plus a clamp, exactly, without math.Round's bit surgery.
// Below 0.5 the result is 0 and from 254.5 up it is 255. In between,
// v+0.5 is exact or rounds within the same integer, so truncating it
// is the rounded value. The explicit lower bound is needed: at v =
// 0.5−2⁻⁵⁴ the sum v+0.5 rounds up to 1 while math.Round(v) is 0.
func roundToSample(v float64) uint8 {
	if v < 0.5 {
		return 0
	}
	if v >= 254.5 {
		return 255
	}
	return uint8(v + 0.5)
}

// storeBlockRow level-unshifts the blocksX consecutive reconstructed
// tiles in plane and stores them into pixel row by — the fused form of
// LevelUnshift+StoreBlock over a whole row. Edge semantics match
// StoreBlock: samples past the plane bounds are discarded.
func storeBlockRow(pix []uint8, w, h, by, blocksX int, plane []float64) {
	fullX := w >> 3
	if fullX > blocksX {
		fullX = blocksX
	}
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= h {
			return
		}
		row := pix[sy*w : sy*w+w]
		d := y * 8
		for bx := 0; bx < fullX; bx++ {
			src := (*[8]float64)(plane[bx*64+d:])
			dst := (*[8]uint8)(row[bx*8:])
			for x := 0; x < 8; x++ {
				dst[x] = roundToSample(src[x] + 128)
			}
		}
		for bx := fullX; bx < blocksX; bx++ {
			base := bx*64 + d
			for x := 0; x < 8; x++ {
				sx := bx*8 + x
				if sx >= w {
					break
				}
				row[sx] = roundToSample(plane[base+x] + 128)
			}
		}
	}
}

// transformComponent runs the whole forward stage for one encoder
// component: per block row, gather the level-shifted tiles into plane,
// one batch of raw AAN butterflies (the scale factors live in tbl), one
// fused quantize pass into the coefficient grid.
func transformComponent(c *component, tbl *qtable.FwdScaled, mask *qtable.ZeroMask, plane []float64) {
	run := c.blocksX * 64
	for by := 0; by < c.blocksY; by++ {
		gatherBlockRow(plane[:run], c.pix, c.w, c.hgt, by, c.blocksX)
		dct.ForwardAANRawBatch(plane[:run])
		quantizeRunInto(c.coefs[by*c.blocksX:(by+1)*c.blocksX], plane[:run], tbl, mask)
	}
}

// reconstructBlockRow runs the inverse stage for one block row of a
// decoder component: broadcast the fused dequantize multipliers over
// the row's coefficients, one batch of raw inverse AAN butterflies, one
// fused unshift+store pass.
func reconstructBlockRow(c *component, by int, plane []float64) {
	row := c.coefs[by*c.blocksX : (by+1)*c.blocksX]
	run := len(row) * 64
	c.inv.DequantizeBlocks(plane[:run], row)
	dct.InverseAANRawBatch(plane[:run])
	storeBlockRow(c.pix, c.w, c.hgt, by, c.blocksX, plane[:run])
}
