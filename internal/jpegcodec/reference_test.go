package jpegcodec

// Reference formulations of the codec's block stages, for tests only:
// the per-block forward and inverse paths the batch stage restructures,
// and a reference encoder/decoder built on the textbook DCT
// (dct.ForwardReference/InverseReference), against which the one
// production transform engine — the AAN butterflies with their scale
// factors folded into the quantization tables — is held.

import (
	"bytes"
	"testing"

	"repro/internal/dct"
	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// blockCoefficients runs the forward path for one 8×8 tile the way the
// batch stage does, one block at a time: level shift, raw AAN
// butterflies, fused quantization, optional zero-masking.
func blockCoefficients(samples *[64]uint8, tbl *qtable.FwdScaled, mask *qtable.ZeroMask) [64]int32 {
	var blk dct.Block
	dct.LevelShift(samples[:], &blk)
	dct.ForwardAANRawBatch(blk[:])
	var out [64]int32
	for i := 0; i < 64; i++ {
		if mask != nil && mask[i] {
			continue
		}
		out[i] = quantize(blk[i], tbl[i])
	}
	return out
}

// reconstructBlock runs the inverse path for one block: fused
// dequantize, raw inverse AAN butterflies, level unshift.
func reconstructBlock(coefs *[64]int32, tbl *qtable.InvScaled, dst *[64]uint8) {
	var blk dct.Block
	for i := 0; i < 64; i++ {
		blk[i] = float64(coefs[i]) * tbl[i]
	}
	dct.InverseAANRawBatch(blk[:])
	dct.LevelUnshift(&blk, dst[:])
}

// referenceCoefficients quantizes the textbook DCT of one tile by the
// raw integer steps through the codec's tie-snapping quantizer.
func referenceCoefficients(samples *[64]uint8, tbl *qtable.Table, mask *qtable.ZeroMask) [64]int32 {
	var blk dct.Block
	dct.LevelShift(samples[:], &blk)
	dct.ForwardReference(&blk)
	var out [64]int32
	for i := 0; i < 64; i++ {
		if mask != nil && mask[i] {
			continue
		}
		out[i] = quantize(blk[i], float64(tbl[i]))
	}
	return out
}

// referenceEncodeRGB is EncodeRGB with every coefficient computed by
// referenceCoefficients: the same color conversion, chroma downsampling
// and MCU geometry, the same stream emission (encodeTail).
func referenceEncodeRGB(tb testing.TB, img *imgutil.RGB, opts *Options) []byte {
	tb.Helper()
	var o Options
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	var p imgutil.Planes
	p.FromRGB(img)
	h, v, ok := o.Subsampling.factors()
	if !ok {
		tb.Fatalf("subsampling %v is not an encode option", o.Subsampling)
	}
	cb, cr, cw, ch := p.Cb, p.Cr, img.W, img.H
	if h > 1 || v > 1 {
		cb, cw, ch = imgutil.DownsampleInto(nil, p.Cb, img.W, img.H, h, v)
		cr, _, _ = imgutil.DownsampleInto(nil, p.Cr, img.W, img.H, h, v)
	}
	return referenceEncode(tb, img.W, img.H, []*component{
		{id: 1, h: h, v: v, w: img.W, hgt: img.H, pix: p.Y},
		{id: 2, h: 1, v: 1, tq: 1, td: 1, ta: 1, w: cw, hgt: ch, pix: cb},
		{id: 3, h: 1, v: 1, tq: 1, td: 1, ta: 1, w: cw, hgt: ch, pix: cr},
	}, &o)
}

// referenceEncodeGray is the grayscale counterpart of referenceEncodeRGB.
func referenceEncodeGray(tb testing.TB, img *imgutil.Gray, opts *Options) []byte {
	tb.Helper()
	var o Options
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	return referenceEncode(tb, img.W, img.H, []*component{{id: 1, h: 1, v: 1, w: img.W, hgt: img.H, pix: img.Pix}}, &o)
}

func referenceEncode(tb testing.TB, width, height int, comps []*component, o *Options) []byte {
	tb.Helper()
	maxH, maxV := 1, 1
	for _, c := range comps {
		maxH, maxV = max(maxH, c.h), max(maxV, c.v)
	}
	mcusX := (width + 8*maxH - 1) / (8 * maxH)
	mcusY := (height + 8*maxV - 1) / (8 * maxV)
	for _, c := range comps {
		tbl := &o.LumaTable
		if c.tq == 1 {
			tbl = &o.ChromaTable
		}
		c.blocksX, c.blocksY = mcusX*c.h, mcusY*c.v
		c.coefs = make([][64]int32, c.blocksX*c.blocksY)
		var tile [64]uint8
		for by := 0; by < c.blocksY; by++ {
			for bx := 0; bx < c.blocksX; bx++ {
				imgutil.ExtractBlock(c.pix, c.w, c.hgt, bx, by, &tile)
				c.coefs[by*c.blocksX+bx] = referenceCoefficients(&tile, tbl, o.ZeroMask)
			}
		}
	}
	var buf bytes.Buffer
	if err := encodeTail(&buf, width, height, comps, mcusX, mcusY, o); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// referencePlane reconstructs component ci of a decoded frame with the
// textbook inverse DCT: dequantize by the raw steps of the table the
// component was coded with, InverseReference, level unshift.
func referencePlane(tb testing.TB, d *Decoded, ci int) []uint8 {
	tb.Helper()
	p := &d.planes[ci]
	tbl, ok := d.QuantTables[p.tq]
	if !ok {
		tb.Fatalf("component %d: no table %d", ci, p.tq)
	}
	coefs, blocksX, blocksY := d.Coefficients(ci)
	pix := make([]uint8, p.w*p.h)
	var tile [64]uint8
	for by := 0; by < blocksY; by++ {
		for bx := 0; bx < blocksX; bx++ {
			var blk dct.Block
			for i, c := range coefs[by*blocksX+bx] {
				blk[i] = float64(c) * float64(tbl[i])
			}
			dct.InverseReference(&blk)
			dct.LevelUnshift(&blk, tile[:])
			imgutil.StoreBlock(pix, p.w, p.h, bx, by, &tile)
		}
	}
	return pix
}
