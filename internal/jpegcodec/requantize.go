package jpegcodec

import (
	"fmt"
	"io"

	"repro/internal/qtable"
)

// Requantize re-encodes a decoded stream under new quantization tables
// entirely in the coefficient domain: each quantized coefficient is
// dequantized with the table it was coded with and requantized with the
// new one, skipping the IDCT→pixels→DCT round trip and its second
// generation loss. This is how a storage system retrofits DeepN-JPEG
// tables onto an existing JPEG archive.
//
// The source may be any stream the decoder accepts — baseline
// (interleaved or not) or progressive. Decoding normalizes them all to
// the same representation, full-image coefficient planes, and
// Requantize transcodes from those planes; the output is always a
// baseline sequential interleaved stream, so requantizing a progressive
// web JPEG also migrates it to the layout the fast sharded decode path
// handles.
//
// The optional mask zeroes bands before recoding (the RM-HF transform).
// Huffman optimization is honored via opts; subsampling always matches
// the source stream — any legal baseline factor combination with
// full-resolution luma (4:4:4, 4:2:2, 4:2:0, 4:4:0, 4:1:1, …) recodes
// through the same per-component h×v block walk the decoder used. The
// restart interval is preserved by default — a zero
// opts.RestartInterval inherits d.RestartInterval, so transcoding
// keeps the stream's RSTn structure (and with it the sharded-decode
// lever); a negative value strips restart markers and a positive one
// replaces the interval. The source's APPn/COM segments (EXIF, ICC,
// comments) are re-emitted in order unless opts.StripMetadata is set or
// opts.Metadata supplies replacements. No DCT runs: requantization
// touches coefficients only.
func Requantize(w io.Writer, d *Decoded, luma, chroma qtable.Table, opts *Options) error {
	if err := luma.Validate(); err != nil {
		return fmt.Errorf("jpegcodec: requantize luma: %w", err)
	}
	if d.Components == 3 {
		if err := chroma.Validate(); err != nil {
			return fmt.Errorf("jpegcodec: requantize chroma: %w", err)
		}
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.RestartInterval == 0 {
		o.RestartInterval = d.RestartInterval
	} else if o.RestartInterval < 0 {
		o.RestartInterval = 0
	}
	if err := validateRestartInterval(o.RestartInterval); err != nil {
		return err
	}
	o.LumaTable = luma
	o.ChromaTable = chroma
	if o.StripMetadata {
		o.Metadata = nil
	} else if o.Metadata == nil {
		// Default passthrough: re-emit the source stream's APPn/COM
		// segments byte-identical, in their original order.
		o.Metadata = d.Metadata
	}

	// Rebuild encoder components from the decoded coefficient planes,
	// drawing descriptors and coefficient grids from the pooled encoder
	// scratch: requantization sits in the same batch loops as encode.
	// The tables convert to float form once per component — dequantize
	// multipliers for the coded table, quantize divisors for the new one,
	// both the plain integer steps since no transform scale applies here —
	// so the per-block loop is one multiply and one divide per
	// coefficient.
	s := getEncScratch()
	defer putEncScratch(s)
	for i := 0; i < d.Components; i++ {
		newTbl := &luma
		s.comps[i] = component{id: uint8(i + 1), h: 1, v: 1, tq: 0, td: 0, ta: 0}
		c := &s.comps[i]
		if i > 0 {
			newTbl = &chroma
			c.tq, c.td, c.ta = 1, 1, 1
		}
		// The source table is whichever the component was coded with (its
		// SOF tq, any id 0–3), not necessarily the 0=luma/1=chroma
		// convention this encoder writes.
		oldTbl, ok := d.QuantTables[d.planes[i].tq]
		if !ok {
			return fmt.Errorf("jpegcodec: source stream lacks quantization table %d", d.planes[i].tq)
		}
		// Carry the source sampling factors so the MCU interleave below
		// reproduces the decoder's per-component h×v block walk. Zero
		// factors (a hand-built Decoded) mean an unsubsampled plane.
		if d.planes[i].hs > 0 {
			c.h, c.v = d.planes[i].hs, d.planes[i].vs
		}
		src, bx, by := d.Coefficients(i)
		if len(src) == 0 {
			return fmt.Errorf("jpegcodec: component %d has no coefficients", i)
		}
		dequant := &s.inv[c.tq]
		requant := &s.fwd[c.tq]
		for j := range oldTbl {
			dequant[j] = float64(oldTbl[j])
			requant[j] = float64(newTbl[j])
		}
		c.blocksX, c.blocksY = bx, by
		c.coefs = growCoefs(s.coefs[i], len(src))
		s.coefs[i] = c.coefs
		// Recode one block row at a time through the batch helpers: one
		// dequantize broadcast into the flat plane, one fused requantize
		// pass into the destination grid — the same bits the per-block
		// dequantize+quantize chain produces.
		s.plane = growFloats(s.plane, bx*64)
		for lo := 0; lo < len(src); lo += bx {
			hi := min(lo+bx, len(src))
			run := src[lo:hi]
			dequant.DequantizeBlocks(s.plane, run)
			quantizeRunInto(c.coefs[lo:hi], s.plane[:len(run)*64], requant, o.ZeroMask)
		}
	}
	comps := s.components(d.Components)

	mcusX := comps[0].blocksX / comps[0].h
	mcusY := comps[0].blocksY / comps[0].v
	// The decoder sizes every block grid as mcus×factor and guarantees
	// component 0 carries the frame-maximum factors, so these grids tile
	// by construction; the check defends against a hand-built Decoded
	// whose grids would otherwise index out of bounds in encodeTail.
	for i, c := range comps {
		if c.blocksX != mcusX*c.h || c.blocksY != mcusY*c.v {
			return fmt.Errorf("jpegcodec: requantize: unsupported sampling geometry (component %d grid %d×%d does not tile %d×%d MCUs)",
				i, c.blocksX, c.blocksY, mcusX, mcusY)
		}
	}

	return encodeTail(w, d.W, d.H, comps, mcusX, mcusY, &o)
}
