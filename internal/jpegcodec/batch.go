package jpegcodec

// Batch-of-blocks hot path: the block stages (tile extraction + level
// shift, transform, quantize on encode; dequantize, inverse transform,
// level unshift + store on decode) run over whole block rows in a
// contiguous flat plane (dct batch layout: block k at plane[64k:64k+64]).
// The arithmetic is the per-block arithmetic — the batch_equiv_test.go
// property suite pins every helper here bit for bit against a per-block
// formulation kept in the tests — but the loops are flat and fused:
//
//   - the gather (dct.GatherBlockRow, which the calibration's statistics
//     pass shares) clamps edge coordinates only for the partial blocks
//     at the right/bottom margins; interior blocks take an
//     unconditional eight-lane copy (ExtractBlock pays the clamp per
//     pixel);
//   - quantization divides only the coefficients that can quantize to
//     a nonzero value: one whose square is below its band's squared zero
//     threshold, just under half the divisor, stays 0 without a division,
//     and every other one is divided and rounded in integers, with the
//     sign applied from the sign bit. Each block's extent, its last
//     nonzero zigzag index, is recorded beside it, so the Huffman emit
//     stops there;
//   - reconstruction dispatches on each block's recorded extent: a
//     DC-only block fills its pixels with one rounded sample, every
//     other block dequantizes only its zigzag prefix, and pixels are
//     stored row-contiguously with the clamp hoisted off the interior
//     blocks.

import (
	"encoding/binary"
	"math"

	"repro/internal/dct"
	"repro/internal/qtable"
)

// zeroThreshold is the fraction of a band's divisor below which a
// coefficient quantizes to 0 (see zeroThresholds).
const zeroThreshold = 0.4999

// zeroThresholds fills sq with each band's squared zero threshold for
// the fused divisors div: fl(t·t) for t = fl(zeroThreshold·div[i]), and
// +Inf for a band mask zeroes. Every coefficient v with
// fl(v·v) < sq[i] quantizes to 0, so quantizeRunInto writes 0 for it
// without dividing: fl(v·v) < fl(t·t) gives |v| < t·(1+2⁻⁵¹), so
// fl(|v|/d) < 0.49991, and roundQuantized maps any value below
// 0.5 − quantizeTieEps to 0. The margin keeps the threshold clear of the
// tie snap, which rounds a quotient within quantizeTieEps below 0.5 up
// to 1. A squared compare needs no absolute value, and with no addition
// no compiler can fuse it into a multiply-add.
func zeroThresholds(sq *[64]float64, div *qtable.FwdScaled, mask *qtable.ZeroMask) {
	for i, d := range div {
		t := zeroThreshold * d
		sq[i] = t * t
		if mask != nil && mask[i] {
			sq[i] = math.Inf(1)
		}
	}
}

// quantizeRunInto quantizes len(dst) consecutive blocks from plane
// through the fused divisors div and records each block's extent, the
// zigzag index of its last nonzero coefficient (0 when no AC
// coefficient is nonzero), in ext. Each output block is zeroed first. A
// coefficient v with fl(v·v) below its band's squared zero threshold sq
// (zeroThresholds) stays 0 without a division; every other one goes to
// quantizeBand, so the output is that of dividing and rounding all 64.
// A |v| just under the threshold whose square rounds up to it takes the
// divide path, which gives 0 too, and so do NaN and ±Inf, which fail the
// compare. The zero path keeps its loop state in registers: the divide
// path is a call, so nothing on the zero path spills around it.
func quantizeRunInto(dst [][64]int32, ext []uint8, plane []float64, div *qtable.FwdScaled, sq *[64]float64, mask *qtable.ZeroMask) {
	ext = ext[:len(dst)]
	_ = *sq // one nil check, not one per coefficient
	for bi := range dst {
		b := (*[64]float64)(plane[bi*64:])
		out := &dst[bi]
		*out = [64]int32{}
		last := 0
		for i, v := range b {
			if v*v < sq[i] {
				continue
			}
			if q := quantizeBand(v, i, div, mask); q != 0 {
				out[i] = q
				last = max(last, qtable.NaturalToZigZag[i])
			}
		}
		ext[bi] = uint8(last)
	}
}

// quantizeBand divides coefficient v of band i by its divisor and
// rounds it by roundQuantized, or returns 0 for a band mask zeroes, so a
// NaN there still gives 0. The division stays a division: a reciprocal
// multiply is not bit-exact. It stays out of line so that
// quantizeRunInto's zero path keeps its registers.
//
//go:noinline
func quantizeBand(v float64, i int, div *qtable.FwdScaled, mask *qtable.ZeroMask) int32 {
	if mask != nil && mask[i] {
		return 0
	}
	return roundQuantized(v / div[i])
}

// roundQuantized rounds an already-divided coefficient half away from
// zero, snapping a value within quantizeTieEps below a rounding boundary
// up onto it. It works in integers: r = |v| + 0.5 rounds down by
// truncation, which is floor for r > 0, and v's sign bit s applies as
// (t ^ s) − s. A magnitude that rounds to 2³¹ or more, and NaN, yield
// MinInt32, as the float formulation in the tests does on amd64;
// TestRoundQuantizedOracle holds the two bit for bit. Below 2³¹ the snap
// cannot carry t past MaxInt32: from 2³⁰ up, r − t is a multiple of
// 2⁻²² and stays below 1 − quantizeTieEps.
func roundQuantized(v float64) int32 {
	b := math.Float64bits(v)
	r := math.Float64frombits(b&^(1<<63)) + 0.5
	if !(r < 1<<31) {
		return math.MinInt32
	}
	t := int32(r)
	if r-float64(t) > 1-quantizeTieEps {
		t++
	}
	s := int32(int64(b) >> 63) // 0, or −1 when the sign bit is set
	return (t ^ s) - s
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

// storeBlockRow level-unshifts the reconstructed tiles of block row by
// in plane (block bx at plane[64bx:]) and stores them into the pixel
// plane — the fused form of LevelUnshift+StoreBlock over a whole row. A
// block whose extent is 0 is DC-only: reconstructBlockRow fills it
// without a tile, so the store skips it. Edge semantics match
// StoreBlock: samples past the plane bounds are discarded.
func storeBlockRow(pix []uint8, w, h, by int, ext []uint8, plane []float64) {
	fullX := min(w>>3, len(ext))
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= h {
			return
		}
		row := pix[sy*w : sy*w+w]
		d := y * 8
		for bx := 0; bx < fullX; bx++ {
			if ext[bx] == 0 {
				continue
			}
			// Unrolled: the compiler does not unroll the eight lanes itself.
			src := (*[8]float64)(plane[bx*64+d:])
			dst := (*[8]uint8)(row[bx*8:])
			dst[0] = roundToSample(src[0] + 128)
			dst[1] = roundToSample(src[1] + 128)
			dst[2] = roundToSample(src[2] + 128)
			dst[3] = roundToSample(src[3] + 128)
			dst[4] = roundToSample(src[4] + 128)
			dst[5] = roundToSample(src[5] + 128)
			dst[6] = roundToSample(src[6] + 128)
			dst[7] = roundToSample(src[7] + 128)
		}
		for bx := fullX; bx < len(ext); bx++ {
			if ext[bx] == 0 {
				continue
			}
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

// fillBlock sets every sample of block (bx, by) that lies inside the
// w×h pixel plane to v: the store of a DC-only block, whose inverse
// transform is v at every position.
func fillBlock(pix []uint8, w, h, bx, by int, v uint8) {
	x0 := bx * 8
	if x0 >= w {
		return
	}
	if x0+8 <= w {
		v8 := uint64(v) * 0x0101010101010101
		for sy := by * 8; sy < min(by*8+8, h); sy++ {
			binary.LittleEndian.PutUint64(pix[sy*w+x0:], v8)
		}
		return
	}
	for sy := by * 8; sy < min(by*8+8, h); sy++ {
		row := pix[sy*w+x0 : sy*w+w]
		for i := range row {
			row[i] = v
		}
	}
}

// dequantizePrefix zeroes tile and dequantizes the zigzag prefix
// 0..ext of coefs into it, each coefficient by its fused multiplier:
// the product DequantizeBlocks forms, for the only coefficients that
// can be nonzero. The zero bands read +0 either way.
func dequantizePrefix(tile *[64]float64, coefs *[64]int32, ext uint8, inv *qtable.InvScaled) {
	*tile = [64]float64{}
	for _, n := range qtable.ZigZagOrder[:int(ext)+1] {
		n &= 63
		tile[n] = float64(coefs[n]) * inv[n]
	}
}

// transformBlockRow runs the whole forward stage for block row by of
// one encoder component: gather the row's level-shifted tiles into
// plane, one batch of raw AAN butterflies (the scale factors live in
// div), one fused quantize pass into the coefficient grid that records
// each block's extent in c.ext.
func transformBlockRow(c *component, by int, div *qtable.FwdScaled, sq *[64]float64, mask *qtable.ZeroMask, plane []float64) {
	run := c.blocksX * 64
	dct.GatherBlockRow(plane[:run], c.pix, c.w, c.hgt, by, c.blocksX)
	dct.ForwardAANRawBatch(plane[:run])
	row := by * c.blocksX
	quantizeRunInto(c.coefs[row:row+c.blocksX], c.ext[row:row+c.blocksX], plane[:run], div, sq, mask)
}

// reconstructBlockRow runs the inverse stage for block row by of a
// w×h pixel plane whose coefficients are row and whose blocks' extents
// (the last zigzag index each block's entropy decode may have written;
// every coefficient past it is zero) are ext. A DC-only block (extent 0)
// is one dequantize multiply and one rounded sample filled into its
// pixels: with every AC term zero, each output of the inverse
// butterflies is the DC term exactly. Every other block dequantizes its
// zigzag prefix into a zeroed tile and takes the raw inverse AAN
// butterflies, and one fused unshift+store pass stores the tiles.
func reconstructBlockRow(pix []uint8, w, h, by int, row [][64]int32, ext []uint8, inv *qtable.InvScaled, plane []float64) {
	ext = ext[:len(row)]
	for bx, e := range ext {
		if e == 0 {
			// The explicit conversion rounds the product before the level
			// shift, as the tile path's store to memory does, so no
			// compiler may fuse the two into one FMA (arm64's would).
			dc := float64(float64(row[bx][0]) * inv[0])
			fillBlock(pix, w, h, bx, by, roundToSample(dc+128))
			continue
		}
		tile := (*[64]float64)(plane[bx*64:])
		dequantizePrefix(tile, &row[bx], e, inv)
		dct.InverseAANRawBatch(tile[:])
	}
	storeBlockRow(pix, w, h, by, ext, plane)
}
