package dct

// Batch-of-blocks transforms: the AAN butterflies over a contiguous run
// of 64-float blocks ("flat plane"), written so the hot loops compile to
// straight-line code the hardware can pipeline. The row pass walks
// eight-float rows with constant indices and the column pass walks the 8
// column lanes of one block with constant row offsets, so every bounds
// check is provably dead and each lane iteration is an independent
// dependency chain. The inverse column pass skips, with one branch, a
// lane whose AC terms are all zero.
//
// The operation order inside each 1-D butterfly is a contract: the AAN
// scale factors (aan.go) are calibrated by running these same row
// kernels, and the codec's streams are pinned byte for byte across
// builds, which for float64 means the same IEEE operations in the same
// order (see batch_test.go, which pins the kernels against a strided
// per-block reference bit for bit).
//
// Layout: a plane is a []float64 whose length is a multiple of 64; block
// k occupies p[64k : 64k+64] in row-major order, exactly a *Block laid
// end to end. The encoder gathers whole runs (a block row of a
// component) into a pooled plane, runs one batch call, and fuses the
// quantizer pass over the same run. Decode reconstruction calls the
// inverse on one block at a time, for the blocks that are not DC-only.

import "math"

// Blocks returns the number of 64-float blocks in p, panicking if p is
// not block-aligned. Every batch entry point funnels through it.
func Blocks(p []float64) int {
	if len(p)%BlockSize2 != 0 {
		panic("dct: batch plane length is not a multiple of 64")
	}
	return len(p) / BlockSize2
}

// BlockSize2 is the flat length of one block (BlockSize²).
const BlockSize2 = BlockSize * BlockSize

// GatherBlockRow fills plane with the blocksX consecutive level-shifted
// 8×8 tiles of block row by of a w×h sample plane — the fused form of
// imgutil.ExtractBlock+LevelShift over a whole row. Edge semantics match
// ExtractBlock: coordinates past the plane replicate the last
// row/column. plane must hold blocksX*64 floats. The encoder gathers
// each component's block rows with it, and the calibration's statistics
// pass gathers each strip of at most eight luma rows with it, passing
// the strip's own row count as h so that the image's last row repeats.
func GatherBlockRow(plane []float64, pix []uint8, w, h, by, blocksX int) {
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

// fdctAANRowsFlat runs the forward AAN butterfly over the 8 rows of one
// block; the (*[8]) re-slice pins the row length so the body indexes
// with constants.
func fdctAANRowsFlat(b *Block) {
	for o := 0; o <= 56; o += 8 {
		r := (*[8]float64)(b[o:])
		tmp0 := r[0] + r[7]
		tmp7 := r[0] - r[7]
		tmp1 := r[1] + r[6]
		tmp6 := r[1] - r[6]
		tmp2 := r[2] + r[5]
		tmp5 := r[2] - r[5]
		tmp3 := r[3] + r[4]
		tmp4 := r[3] - r[4]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		r[0] = tmp10 + tmp11
		r[4] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		r[2] = tmp13 + z1
		r[6] = tmp13 - z1

		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC5
		z2 := aanC2*tmp10 + z5
		z4 := aanC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		r[5] = z13 + z2
		r[3] = z13 - z2
		r[1] = z11 + z4
		r[7] = z11 - z4
	}
}

// fdctAANColsFlat runs the forward AAN butterfly down the 8 columns of
// one block: lane x of the loop is the row butterfly on column x,
// written with constant row offsets so each lane is branch- and
// bounds-check-free and independent of its neighbours.
func fdctAANColsFlat(b *Block) {
	for x := 0; x < 8; x++ {
		tmp0 := b[x] + b[x+56]
		tmp7 := b[x] - b[x+56]
		tmp1 := b[x+8] + b[x+48]
		tmp6 := b[x+8] - b[x+48]
		tmp2 := b[x+16] + b[x+40]
		tmp5 := b[x+16] - b[x+40]
		tmp3 := b[x+24] + b[x+32]
		tmp4 := b[x+24] - b[x+32]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		b[x] = tmp10 + tmp11
		b[x+32] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		b[x+16] = tmp13 + z1
		b[x+48] = tmp13 - z1

		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC5
		z2 := aanC2*tmp10 + z5
		z4 := aanC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		b[x+40] = z13 + z2
		b[x+24] = z13 - z2
		b[x+8] = z11 + z4
		b[x+56] = z11 - z4
	}
}

// idctAANColsFlat runs the inverse AAN butterfly down the 8 columns of
// one block. A column whose AC terms are all zero takes IJG
// jidctflt.c's shortcut and copies its DC term down: that is exactly
// what the butterfly computes, because every term it adds to or
// subtracts from the DC is a zero and x ± 0 = x in IEEE arithmetic.
// (Dequantized coefficients are never −0, the one DC the shortcut would
// carry through where the butterfly yields +0.) The test ORs the AC
// terms' bits with the sign bit shifted out, which is zero exactly when
// every term is ±0, in one branch.
func idctAANColsFlat(b *Block) {
	for x := 0; x < 8; x++ {
		ac := math.Float64bits(b[x+8]) | math.Float64bits(b[x+16]) | math.Float64bits(b[x+24]) |
			math.Float64bits(b[x+32]) | math.Float64bits(b[x+40]) | math.Float64bits(b[x+48]) |
			math.Float64bits(b[x+56])
		if ac<<1 == 0 {
			dc := b[x]
			b[x+8], b[x+16], b[x+24], b[x+32] = dc, dc, dc, dc
			b[x+40], b[x+48], b[x+56] = dc, dc, dc
			continue
		}
		tmp0 := b[x]
		tmp1 := b[x+16]
		tmp2 := b[x+32]
		tmp3 := b[x+48]

		tmp10 := tmp0 + tmp2
		tmp11 := tmp0 - tmp2
		tmp13 := tmp1 + tmp3
		tmp12 := (tmp1-tmp3)*(2*aanC4) - tmp13

		tmp0 = tmp10 + tmp13
		tmp3 = tmp10 - tmp13
		tmp1 = tmp11 + tmp12
		tmp2 = tmp11 - tmp12

		tmp4 := b[x+8]
		tmp5 := b[x+24]
		tmp6 := b[x+40]
		tmp7 := b[x+56]

		z13 := tmp6 + tmp5
		z10 := tmp6 - tmp5
		z11 := tmp4 + tmp7
		z12 := tmp4 - tmp7

		tmp7 = z11 + z13
		tmp11 = (z11 - z13) * (2 * aanC4)

		z5 := (z10 + z12) * 1.847759065022573
		tmp10 = 1.082392200292394*z12 - z5
		tmp12 = -2.613125929752753*z10 + z5

		tmp6 = tmp12 - tmp7
		tmp5 = tmp11 - tmp6
		tmp4 = tmp10 + tmp5

		b[x] = tmp0 + tmp7
		b[x+56] = tmp0 - tmp7
		b[x+8] = tmp1 + tmp6
		b[x+48] = tmp1 - tmp6
		b[x+16] = tmp2 + tmp5
		b[x+40] = tmp2 - tmp5
		b[x+32] = tmp3 + tmp4
		b[x+24] = tmp3 - tmp4
	}
}

// idctAANRowsFlat runs the inverse AAN butterfly over the 8 rows of one
// block.
func idctAANRowsFlat(b *Block) {
	for o := 0; o <= 56; o += 8 {
		r := (*[8]float64)(b[o:])
		tmp0 := r[0]
		tmp1 := r[2]
		tmp2 := r[4]
		tmp3 := r[6]

		tmp10 := tmp0 + tmp2
		tmp11 := tmp0 - tmp2
		tmp13 := tmp1 + tmp3
		tmp12 := (tmp1-tmp3)*(2*aanC4) - tmp13

		tmp0 = tmp10 + tmp13
		tmp3 = tmp10 - tmp13
		tmp1 = tmp11 + tmp12
		tmp2 = tmp11 - tmp12

		tmp4 := r[1]
		tmp5 := r[3]
		tmp6 := r[5]
		tmp7 := r[7]

		z13 := tmp6 + tmp5
		z10 := tmp6 - tmp5
		z11 := tmp4 + tmp7
		z12 := tmp4 - tmp7

		tmp7 = z11 + z13
		tmp11 = (z11 - z13) * (2 * aanC4)

		z5 := (z10 + z12) * 1.847759065022573
		tmp10 = 1.082392200292394*z12 - z5
		tmp12 = -2.613125929752753*z10 + z5

		tmp6 = tmp12 - tmp7
		tmp5 = tmp11 - tmp6
		tmp4 = tmp10 + tmp5

		r[0] = tmp0 + tmp7
		r[7] = tmp0 - tmp7
		r[1] = tmp1 + tmp6
		r[6] = tmp1 - tmp6
		r[2] = tmp2 + tmp5
		r[5] = tmp2 - tmp5
		r[4] = tmp3 + tmp4
		r[3] = tmp3 - tmp4
	}
}

// ForwardAANRawBatch runs the raw forward AAN butterflies over every
// block of p: each block ends up as its orthonormal 2-D DCT divided by
// AANForwardDescale per band. Callers that quantize fold the factor into
// their divisors.
func ForwardAANRawBatch(p []float64) {
	n := Blocks(p)
	for k := 0; k < n; k++ {
		b := (*Block)(p[k*BlockSize2:])
		fdctAANRowsFlat(b)
		fdctAANColsFlat(b)
	}
}

// InverseAANRawBatch runs the raw inverse AAN butterflies over every
// block of p. Input blocks must carry the scaled convention
// (orthonormal × AANInversePrescale per band), which dequantizers fold
// into their multipliers.
func InverseAANRawBatch(p []float64) {
	n := Blocks(p)
	for k := 0; k < n; k++ {
		b := (*Block)(p[k*BlockSize2:])
		idctAANColsFlat(b)
		idctAANRowsFlat(b)
	}
}

// ForwardAANBatch computes the orthonormal 2-D DCT of every block of p:
// the raw butterflies plus the flat descaling pass.
func ForwardAANBatch(p []float64) {
	ForwardAANRawBatch(p)
	for o := 0; o < len(p); o += BlockSize2 {
		b := (*Block)(p[o:])
		for i := 0; i < BlockSize2; i++ {
			b[i] *= aanDescale2D[i]
		}
	}
}

// InverseAANBatch inverts ForwardAANBatch: the flat prescaling pass plus
// the raw butterflies.
func InverseAANBatch(p []float64) {
	for o := 0; o < len(p); o += BlockSize2 {
		b := (*Block)(p[o:])
		for i := 0; i < BlockSize2; i++ {
			b[i] *= aanPrescale2D[i]
		}
	}
	InverseAANRawBatch(p)
}

// Transform is the block-transform engine the codec runs. There is one —
// the AAN butterflies above — so the type is a zero-size handle whose
// every value runs the same kernels; benchmark harnesses hold one to
// replay exactly what a default encode or decode runs.
type Transform struct{}

// ForwardScaledBatch runs ForwardAANRawBatch: the forward transform of
// every block of p in the engine's native scaled basis. Quantize the
// result with divisors from qtable.Table.FwdScaled.
func (Transform) ForwardScaledBatch(p []float64) { ForwardAANRawBatch(p) }

// InverseScaledBatch runs InverseAANRawBatch. Input blocks must be
// dequantized with multipliers from qtable.Table.InvScaled.
func (Transform) InverseScaledBatch(p []float64) { InverseAANRawBatch(p) }
