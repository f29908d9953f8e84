package qtable

// Scaled quantization tables: the libjpeg trick of folding a fast
// transform's per-band scale factors into the table so the codec's hot
// loop does exactly one multiply or divide per coefficient.
//
// The AAN butterflies emit the orthonormal DCT times a fixed per-band
// factor (dct.AANForwardDescale). Instead of descaling every block and
// then dividing by the quantization step — two passes over 64 floats —
// the step absorbs the factor once, at table-build time:
//
//	forward:  round(ortho/q) = round(raw·descale/q) = round(raw / (q/descale))
//	inverse:  ortho·q → scaled input = coef·q·prescale = coef·(q·prescale)
//
// FwdScaled holds the fused divisors q[i]/descale2D[i], InvScaled the
// fused multipliers q[i]·prescale2D[i]. They are cheap to build but
// worth caching: the codec builds them once per Framework (and once per
// decoded stream on the decode side), never per block.

import "repro/internal/dct"

// FwdScaled is a quantization table with the forward transform's scale
// factors folded in: 64 float divisors in natural order. A coefficient
// produced by dct.ForwardAANRawBatch quantizes as round(c/FwdScaled[i])
// with no separate descale pass.
type FwdScaled [64]float64

// InvScaled is a dequantization table with the inverse transform's scale
// factors folded in: 64 float multipliers in natural order. A quantized
// coefficient dequantizes for dct.InverseAANRawBatch as c·InvScaled[i].
type InvScaled [64]float64

// FwdScaledInto fills dst with the fused forward divisors of t.
func (t Table) FwdScaledInto(dst *FwdScaled) {
	for i, q := range t {
		dst[i] = float64(q) / dct.AANForwardDescale(i)
	}
}

// InvScaledInto fills dst with the fused inverse multipliers of t. The
// allocation-free form of InvScaled for pooled scratch.
func (t Table) InvScaledInto(dst *InvScaled) {
	for i, q := range t {
		dst[i] = float64(q) * dct.AANInversePrescale(i)
	}
}

// InvScaled returns the fused inverse multipliers of t for the given
// engine. dct.Transform has a single value, the engine the codec runs,
// so the argument only names what the multipliers are for.
func (t Table) InvScaled(dct.Transform) *InvScaled {
	dst := new(InvScaled)
	t.InvScaledInto(dst)
	return dst
}

// DequantizeBlocks broadcasts the fused multipliers over a run of
// quantized blocks, writing len(blocks) consecutive 64-float blocks
// into dst (dct batch layout): the per-coefficient product is
// float64(c)·t[i], ready for one batch inverse transform over dst.
func (t *InvScaled) DequantizeBlocks(dst []float64, blocks [][64]int32) {
	for bi := range blocks {
		src := &blocks[bi]
		d := (*[64]float64)(dst[bi*64:])
		for i := 0; i < 64; i++ {
			d[i] = float64(src[i]) * t[i]
		}
	}
}
