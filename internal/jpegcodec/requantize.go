package jpegcodec

import (
	"fmt"
	"io"
	"math"

	"repro/internal/qtable"
)

// Requantize re-encodes a decoded stream under new quantization tables
// entirely in the coefficient domain: each quantized coefficient is
// dequantized with the table it was coded with and requantized with the
// new one, in exact integer arithmetic, skipping the IDCT→pixels→DCT
// round trip and its second generation loss. This is how a storage
// system retrofits DeepN-JPEG tables onto an existing JPEG archive.
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
// opts.Metadata supplies replacements. No DCT runs, neither here nor in
// the DecodeInto that produced d: requantization reads coefficients
// only, and d's pixels are never reconstructed unless a caller reads
// them.
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
		c.blocksX, c.blocksY = bx, by
		c.coefs = growCoefs(s.coefs[i], len(src))
		s.coefs[i] = c.coefs
		requantizeBlocks(c.coefs, src, &oldTbl, newTbl, o.ZeroMask)
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

// requantizeBlocks recodes the blocks src, quantized with the steps from,
// into dst under the steps to, which must lie in 1..256 (Requantize's
// Validate allows 1..255): each coefficient c in band i becomes
// round-half-away(c·from[i] / to[i]), computed exactly in int64, and the
// bands mask zeroes come out zero (as if from[i] were 0).
//
// With q = to[i] and a = |c·from[i]|, the rounded magnitude ⌊a/q + ½⌋ is
// ⌊n/q⌋ for n = a + ⌊q/2⌋ (for odd q the dropped half never carries).
// Below 2²⁴, n/q is one multiply by the reciprocal m = ⌊2³²/q⌋ + 1 and a
// shift: 2³² < m·q ≤ 2³² + 2⁸, so ⌊n·m / 2³²⌋ = ⌊n/q⌋ for every
// n < 2²⁴ (Granlund and Montgomery, 1994, Theorem 4.2). That covers any
// 8-bit-table source coefficient below 2¹⁵ in magnitude; larger ones (a
// 16-bit source table, a hostile stream's accumulated DC) divide.
//
// It produces the bits of the float chain it replaced — dequantize to
// float64, divide, round with quantize's tie snap — on every input,
// which TestRequantizeIntegerOracle pins: a < 2⁴⁷ is exact in float64,
// and a quotient that is not a tie sits at least 1/(2q) from a rounding
// boundary, far outside both quantizeTieEps and the division's rounding
// error. A rounded magnitude of 2³¹ or more, which only a hostile
// stream's accumulated DC reaches, yields math.MinInt32, as the float
// chain's out-of-range conversion did on amd64.
func requantizeBlocks(dst, src [][64]int32, from, to *qtable.Table, mask *qtable.ZeroMask) {
	var num, half [64]int64
	var recip [64]uint64
	for i := range num {
		if mask == nil || !mask[i] {
			num[i] = int64(from[i])
		}
		half[i] = int64(to[i] >> 1)
		recip[i] = 1<<32/uint64(to[i]) + 1
	}
	for bi := range src {
		s, d := &src[bi], &dst[bi]
		for i := range 64 {
			p := int64(s[i]) * num[i]
			neg := p >> 63 // 0, or -1 when p < 0
			n := (p ^ neg) - neg + half[i]
			var r int64
			if n < 1<<24 {
				r = int64(uint64(n) * recip[i] >> 32)
			} else if r = n / int64(to[i]); r > math.MaxInt32 {
				d[i] = math.MinInt32
				continue
			}
			d[i] = int32((r ^ neg) - neg)
		}
	}
}
