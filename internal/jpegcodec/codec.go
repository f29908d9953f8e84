// Package jpegcodec implements a complete baseline sequential JPEG
// (ITU-T T.81 / JFIF) encoder and decoder with full control over the
// quantization tables — the control DeepN-JPEG needs and that high-level
// libraries hide. It supports grayscale and YCbCr color images, the full
// baseline chroma-sampling matrix (4:4:4, 4:2:2, 4:2:0, 4:4:0 and 4:1:1
// on encode; any legal factor combination with full-resolution luma on
// decode and requantize), standard and per-image optimized Huffman
// tables, restart intervals, APPn/COM metadata recording and passthrough
// (EXIF, ICC, JFIF, comments), and the coefficient zero-masks used by
// the paper's RM-HF baseline.
//
// The decoder is built around a frame/scan split: a frame owns one
// full-image coefficient plane per component, each SOS accumulates
// coefficients into those planes — baseline interleaved, baseline
// non-interleaved, or progressive DC/AC first/refinement scans — and a
// single batched reconstruction stage turns the finished planes into
// pixels on the first pixel read, so a caller that reads only
// coefficients never runs it. Progressive (SOF2) streams therefore
// decode through the exact coefficient domain Requantize transcodes
// from, so progressive inputs re-emit as baseline output. Progressive
// encoding is not implemented; arithmetic-coded, lossless and
// hierarchical processes are rejected with UnsupportedFormatError.
package jpegcodec

import (
	"fmt"
	"math/bits"

	"repro/internal/qtable"
)

// Marker codes (second byte, after 0xFF).
const (
	mSOI  = 0xD8 // start of image
	mEOI  = 0xD9 // end of image
	mSOF0 = 0xC0 // baseline DCT frame
	mSOF1 = 0xC1 // extended sequential DCT frame (Huffman)
	mSOF2 = 0xC2 // progressive DCT frame (Huffman)
	mDHT  = 0xC4 // define huffman table
	mDQT  = 0xDB // define quantization table
	mDRI  = 0xDD // define restart interval
	mSOS  = 0xDA // start of scan
	mAPP0 = 0xE0 // JFIF
	mCOM  = 0xFE // comment
	mRST0 = 0xD0 // restart markers D0..D7
	mTEM  = 0x01 // temporary private use (bare marker, no payload)
)

// UnsupportedFormatError reports a syntactically well-formed JPEG stream
// whose coding process this codec does not implement: the lossless,
// hierarchical/differential and arithmetic-coded frame families. The
// server maps it onto a distinct HTTP status (415) so clients can tell
// "valid JPEG we don't speak" apart from "corrupt input".
type UnsupportedFormatError struct {
	Marker byte   // the frame-family marker code (0xC3..0xCF)
	Name   string // human-readable marker name and coding process
}

func (e *UnsupportedFormatError) Error() string {
	return fmt.Sprintf("jpegcodec: unsupported coding process %s (marker %#02x)", e.Name, e.Marker)
}

// unsupportedFrameName names the frame-family markers the decoder
// recognizes but does not implement (T.81 table B.1).
func unsupportedFrameName(m byte) string {
	switch m {
	case 0xC3:
		return "SOF3 (lossless sequential, Huffman coding)"
	case 0xC5:
		return "SOF5 (differential sequential, Huffman coding)"
	case 0xC6:
		return "SOF6 (differential progressive, Huffman coding)"
	case 0xC7:
		return "SOF7 (differential lossless, Huffman coding)"
	case 0xC8:
		return "JPG (reserved for JPEG extensions)"
	case 0xC9:
		return "SOF9 (extended sequential, arithmetic coding)"
	case 0xCA:
		return "SOF10 (progressive, arithmetic coding)"
	case 0xCB:
		return "SOF11 (lossless, arithmetic coding)"
	case 0xCC:
		return "DAC (arithmetic conditioning)"
	case 0xCD:
		return "SOF13 (differential sequential, arithmetic coding)"
	case 0xCE:
		return "SOF14 (differential progressive, arithmetic coding)"
	case 0xCF:
		return "SOF15 (differential lossless, arithmetic coding)"
	}
	return fmt.Sprintf("marker %#02x", m)
}

// Subsampling selects the chroma layout of color images.
type Subsampling int

const (
	// Sub420 halves chroma in both dimensions (2×2 luma factors), the
	// layout used by virtually all consumer JPEGs and the zero-value
	// default of Options.
	Sub420 Subsampling = iota
	// Sub444 keeps chroma at full resolution (1×1 sampling factors).
	Sub444
	// Sub422 halves chroma horizontally only (2×1 luma factors), the
	// layout video-derived JPEGs and many cameras emit.
	Sub422
	// Sub440 halves chroma vertically only (1×2 luma factors), 4:2:2
	// rotated a quarter turn.
	Sub440
	// Sub411 quarters chroma horizontally (4×1 luma factors), the DV/
	// NTSC-heritage layout.
	Sub411
	// SubOther marks a decoded stream whose (legal) sampling factors fall
	// outside the named matrix above — for example non-1×1 chroma
	// factors. It is a decode-side classification only, not an encode
	// option; Requantize handles such streams through their recorded
	// per-component factors.
	SubOther
)

func (s Subsampling) String() string {
	switch s {
	case Sub444:
		return "4:4:4"
	case Sub420:
		return "4:2:0"
	case Sub422:
		return "4:2:2"
	case Sub440:
		return "4:4:0"
	case Sub411:
		return "4:1:1"
	case SubOther:
		return "other"
	default:
		return "unknown"
	}
}

// factors returns the luma sampling factors a Subsampling encodes with
// (chroma is always 1×1); ok is false for values that are not encode
// options (SubOther and out-of-range).
func (s Subsampling) factors() (h, v int, ok bool) {
	switch s {
	case Sub444:
		return 1, 1, true
	case Sub420:
		return 2, 2, true
	case Sub422:
		return 2, 1, true
	case Sub440:
		return 1, 2, true
	case Sub411:
		return 4, 1, true
	}
	return 0, 0, false
}

// ParseSubsampling maps the conventional J:a:b digit notation onto a
// Subsampling value — the parser behind every `-subsampling`/
// `?subsampling=` surface.
func ParseSubsampling(v string) (Subsampling, error) {
	switch v {
	case "444":
		return Sub444, nil
	case "422":
		return Sub422, nil
	case "420":
		return Sub420, nil
	case "440":
		return Sub440, nil
	case "411":
		return Sub411, nil
	}
	return 0, fmt.Errorf("jpegcodec: unknown subsampling %q (want 444, 422, 420, 440 or 411)", v)
}

// MetaSegment is one APPn or COM marker segment: the marker code and the
// segment body (without the two length bytes). The decoder records them
// in stream order on Decoded.Metadata; the encoder re-emits them after
// SOI via Options.Metadata, preserving the payload bytes exactly.
type MetaSegment struct {
	Marker  byte // mAPP0..mAPP0+15 (0xE0–0xEF) or mCOM (0xFE)
	Payload []byte
}

// maxSegmentPayload is the largest body a marker segment can carry: the
// length field is 16-bit and counts itself.
const maxSegmentPayload = 0xFFFF - 2

// isJFIFAPP0 reports whether a segment is a JFIF APP0 — the segment the
// encoder otherwise writes itself, and the one metadata passthrough must
// not duplicate.
func isJFIFAPP0(seg MetaSegment) bool {
	return seg.Marker == mAPP0 && len(seg.Payload) >= 5 && string(seg.Payload[:5]) == "JFIF\x00"
}

// Options configures the encoder. The zero value encodes 4:2:0 color with
// the Annex-K tables at QF 50 and standard Huffman tables.
type Options struct {
	// LumaTable and ChromaTable are the quantization tables. Zero-valued
	// tables default to the Annex-K references.
	LumaTable   qtable.Table
	ChromaTable qtable.Table
	// Subsampling selects the chroma layout for color input: Sub420
	// (default), Sub444, Sub422, Sub440 or Sub411.
	Subsampling Subsampling
	// Metadata carries APPn/COM segments to emit after SOI, in order.
	// Requantize fills it with the source stream's recorded segments so
	// EXIF/ICC/comments survive transcoding byte-identical; encode
	// callers may attach their own. When none of the segments is a JFIF
	// APP0 the encoder also writes its canonical one (first, as JFIF
	// requires); when one is, the canonical segment is suppressed so the
	// output carries exactly one APP0.
	Metadata []MetaSegment
	// StripMetadata opts Requantize out of metadata passthrough: the
	// output carries only the canonical JFIF APP0, as encode does. It
	// does not suppress explicitly attached Metadata.
	StripMetadata bool
	// OptimizeHuffman derives per-image Huffman tables (two-pass encode),
	// matching libjpeg's -optimize flag.
	OptimizeHuffman bool
	// ZeroMask forces the marked coefficients to zero before entropy
	// coding (the RM-HF scheme). Applies to all components.
	ZeroMask *qtable.ZeroMask
	// RestartInterval inserts RSTn markers every n MCUs when > 0. The
	// valid range is [0, 65535]: the DRI payload is a 16-bit MCU count,
	// so larger values cannot be represented and are rejected. In
	// Requantize, 0 inherits the source stream's interval and a negative
	// value strips restart markers from the output.
	RestartInterval int
	// ShardWorkers overrides restart-interval sharding for tests and
	// measurement; no production code sets it. When RestartInterval > 0
	// every restart segment is independently codable (the DC predictor
	// resets at each RSTn and segments start byte-aligned), so a sharded
	// frame runs every stage on one worker pool — color conversion over
	// MCU-row bands, gather, forward DCT and quantize over block rows,
	// Huffman statistics gathering and scan emission over segments — and
	// the output stays byte-identical. 0 leaves the choice to the codec
	// (shard across GOMAXPROCS on frames of at least 1024 MCUs); 1 or
	// any negative value forces the sequential path, the reference the
	// shard-equivalence tests compare against; values ≥ 2 force that
	// many workers, capped at the segment count. Requantize computes its
	// coefficients sequentially and shards only the entropy coding.
	ShardWorkers int
}

// validateRestartInterval rejects intervals the DRI segment cannot
// represent: its payload is a 16-bit big-endian MCU count, so anything
// outside [0, 65535] would truncate silently (65536 would emit DRI=0)
// and produce a stream whose declared interval disagrees with the actual
// marker placement.
func validateRestartInterval(ri int) error {
	if ri < 0 || ri > 0xFFFF {
		return fmt.Errorf("jpegcodec: restart interval %d outside [0, 65535]", ri)
	}
	return nil
}

// withDefaults fills in zero-valued tables.
func (o Options) withDefaults() Options {
	var zero qtable.Table
	if o.LumaTable == zero {
		o.LumaTable = qtable.StdLuminance
	}
	if o.ChromaTable == zero {
		o.ChromaTable = qtable.StdChrominance
	}
	return o
}

// component describes one frame component during encoding or decoding.
type component struct {
	id     uint8 // component identifier as stored in SOF/SOS
	h, v   int   // sampling factors
	tq     int   // quantization table id
	td, ta int   // huffman table ids (DC, AC)

	w, hgt int     // plane dimensions in samples
	pix    []uint8 // source samples (encoder)

	blocksX, blocksY int         // MCU-padded block grid
	coefs            [][64]int32 // quantized coefficients per block, natural order
	// ext holds each block's extent beside coefs: a zigzag index past
	// which every coefficient of the block is zero. The decoder records
	// it at EOB (see Decoded.ext); the encoder's quantizer and Requantize
	// record the last nonzero index, and the Huffman emit stops there. A
	// component built without extents (nil) reads as extent 63.
	ext []uint8

	// Decoder per-frame scan state. scanned marks components that took
	// part in at least one scan; primed marks coefficient grids that hold
	// only this decode's data (pooled grids retain the previous image's
	// coefficients, so any scan that does not overwrite every block —
	// non-interleaved walks skip the MCU padding, progressive scans
	// accumulate — must zero the grid first).
	scanned bool
	primed  bool
}

// extent returns block k's extent: c.ext[k], or 63 when c carries no
// extents.
func (c *component) extent(k int) uint8 {
	if c.ext == nil {
		return 63
	}
	return c.ext[k]
}

// quantizeTieEps is the half-width of the rounding-boundary snap band in
// roundQuantized. The AAN butterflies and the folded divisors agree with the
// exact orthonormal DCT to ~1e-12 per coefficient, so any value within
// 1e-9 of a rounding boundary is treated as sitting exactly on it;
// without the snap, a coefficient whose exact value lands on a boundary
// (possible for the rational bands u,v ∈ {0,4}) could round below it and
// the emitted coefficients would no longer equal the quantized
// dct.ForwardReference transform the reference tests hold them to.
const quantizeTieEps = 1e-9

// bitCategory returns the JPEG magnitude category of v: the number of bits
// needed to represent |v| (0 for v == 0, 32 for math.MinInt32).
func bitCategory(v int32) int {
	u := uint32(v)
	if v < 0 {
		u = -u
	}
	return bits.Len32(u)
}

// Baseline Huffman coding carries DC differences of up to 11 magnitude
// bits and AC coefficients of up to 10 (T.81 F.1.2; libjpeg rejects
// larger ones with JERR_BAD_DCT_COEF). 8-bit samples stay inside them;
// a coefficient past them would spill into the run nibble of its AC
// symbol, or take a DC symbol no baseline decoder expects.
const (
	maxDCCategory = 11
	maxACCategory = 10
)

// coefRangeError reports a coefficient that baseline Huffman coding
// cannot carry.
func coefRangeError(what string, v int32, limit int) error {
	return fmt.Errorf("jpegcodec: %s %d needs %d magnitude bits, beyond the baseline limit of %d",
		what, v, bitCategory(v), limit)
}
