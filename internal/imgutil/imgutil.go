// Package imgutil provides the 8-bit image representations used throughout
// the DeepN-JPEG pipeline: interleaved RGB and single-plane grayscale
// images, JFIF YCbCr color conversion, chroma subsampling, block
// partitioning with edge replication, and quality metrics (MSE/PSNR).
package imgutil

import (
	"fmt"
	"image"
	"image/color"
	"math"
	"math/bits"
)

// Gray is a single-plane 8-bit image in row-major order.
type Gray struct {
	W, H int
	Pix  []uint8 // len == W*H
}

// RGB is an interleaved 8-bit color image (R,G,B triplets, row-major).
type RGB struct {
	W, H int
	Pix  []uint8 // len == 3*W*H
}

// NewGray allocates a zeroed w×h grayscale image.
func NewGray(w, h int) *Gray { return &Gray{W: w, H: h, Pix: make([]uint8, w*h)} }

// NewRGB allocates a zeroed w×h color image.
func NewRGB(w, h int) *RGB { return &RGB{W: w, H: h, Pix: make([]uint8, 3*w*h)} }

// At returns the sample at (x, y).
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// Set stores a sample at (x, y).
func (g *Gray) Set(x, y int, v uint8) { g.Pix[y*g.W+x] = v }

// At returns the (r, g, b) triplet at (x, y).
func (im *RGB) At(x, y int) (r, g, b uint8) {
	i := 3 * (y*im.W + x)
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set stores an (r, g, b) triplet at (x, y).
func (im *RGB) Set(x, y int, r, g, b uint8) {
	i := 3 * (y*im.W + x)
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// Clone returns a deep copy.
func (im *RGB) Clone() *RGB {
	out := NewRGB(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// clamp8 rounds and clamps a float to [0, 255].
func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Planes holds the three JFIF YCbCr planes of an image. Y is always at
// full resolution, W×H. Cb and Cr are full resolution after FromRGB and
// box-subsampled, at the size it returns, after FromRGBSubsampled with a
// box larger than 1×1.
type Planes struct {
	W, H      int
	Y, Cb, Cr []uint8
	Grayscale bool // true when the source had no chroma (Cb, Cr == nil)

	rows []uint8 // one box row of full-resolution chroma: ry Cb rows, then ry Cr rows
}

// FromRGB converts im into p at full resolution with the BT.601 matrix
// that JFIF 1.02 mandates, reusing p's plane buffers when their capacity
// suffices: FromRGBSubsampled with a 1×1 box.
func (p *Planes) FromRGB(im *RGB) { p.FromRGBSubsampled(im, 1, 1) }

// FromRGBSubsampled converts im into p with Cb and Cr box-averaged over
// rx×ry pixels, rounding half up, in one pass over the image, and returns
// the chroma planes' size. The planes equal FromRGB followed by
// DownsampleInto on each chroma plane, but full-resolution chroma never
// exists for a 2×2 box inside the image, and for any other box only for
// the ry rows of one box row. The box must hold a power of two
// n = rx·ry samples — the encoder's layouts 1×1, 2×2, 2×1, 1×2 and 4×1
// hold 1, 2 or 4 — so the average is (s + n/2) >> log₂n. p's buffers are
// reused when their capacity suffices.
func (p *Planes) FromRGBSubsampled(im *RGB, rx, ry int) (cw, ch int) {
	w, h := im.W, im.H
	cw, ch = (w+rx-1)/rx, (h+ry-1)/ry
	p.W, p.H, p.Grayscale = w, h, false
	p.Y = GrowBytes(p.Y, w*h)
	p.Cb = GrowBytes(p.Cb, cw*ch)
	p.Cr = GrowBytes(p.Cr, cw*ch)
	if rx == 1 && ry == 1 {
		convertRow(p.Y, p.Cb, p.Cr, im.Pix)
		return cw, ch
	}
	p.rows = GrowBytes(p.rows, 2*ry*w)
	cb, cr := p.rows[:ry*w], p.rows[ry*w:]
	for cy := range ch {
		sy0 := cy * ry
		// Every full 2×2 box of a box row inside the image converts and
		// averages in one step; a box that hangs past the right or bottom
		// margin, and every other box, converts its columns into the row
		// buffer and sums them there.
		x0 := 0
		if rx == 2 && ry == 2 && sy0+1 < h {
			x0 = w / 2
			o0, o1 := sy0*w, (sy0+1)*w
			convert420Row(p.Y[o0:o0+2*x0], p.Y[o1:o1+2*x0], p.Cb[cy*cw:cy*cw+x0], p.Cr[cy*cw:cy*cw+x0],
				im.Pix[3*o0:3*(o0+2*x0)], im.Pix[3*o1:3*(o1+2*x0)])
			if x0 == cw {
				continue
			}
		}
		sx := x0 * rx
		for dy := range ry {
			o := dy * w
			if sy := sy0 + dy; sy < h {
				convertRow(p.Y[sy*w+sx:sy*w+w], cb[o+sx:o+w], cr[o+sx:o+w], im.Pix[3*(sy*w+sx):3*(sy*w+w)])
			} else {
				// The box hangs past the image: replicate its last row.
				copy(cb[o+sx:o+w], cb[o-w+sx:o])
				copy(cr[o+sx:o+w], cr[o-w+sx:o])
			}
		}
		boxRow(p.Cb[cy*cw:cy*cw+cw], cb, x0, w, rx, ry)
		boxRow(p.Cr[cy*cw:cy*cw+cw], cr, x0, w, rx, ry)
	}
	return cw, ch
}

// The JFIF forward color transform
//
//	Y  =  0.299·R + 0.587·G + 0.114·B
//	Cb = −0.168736·R − 0.331264·G + 0.5·B + 128
//	Cr =  0.5·R − 0.418688·G − 0.081312·B + 128
//
// rounded half up and clamped to [0, 255] (clamp8), as float64 sums. Its
// coefficients are rational, so the kernels evaluate it in exact
// fixed point: one table entry per source channel and sample, each the
// channel's term rounded to nearest, Y in units of 2⁻¹⁶ and Cb, Cr in
// units of 2⁻¹⁸. The R entry also carries the ½ of the final rounding,
// the 128 of Cb and Cr, and an offset of 2 units, so a sample is the sum
// of three entries shifted right.
//
// The three rounded entries lie within 1.5 units of the exact scaled
// value, so the sum lies 0.5 to 3.5 units above it. 1000·Y is an
// integer, and every Cb or Cr numerator over 10⁶ is a multiple of 32, so
// a sample that is not exactly a half-integer lies at least
// 2¹⁶/1000 ≈ 65.5 units (Y) or 2¹⁸·32/10⁶ ≈ 8.4 units (Cb, Cr) from its
// rounding boundary: there the sum's fraction is 4 units or more, the
// shift rounds as the exact value does, and so does the float formula,
// whose error is about 1e-13. A sample on a tie has a fraction of 1 to 3
// units, so a fraction below 4 flags exactly the ties, and a flagged
// pixel runs the float formula, which settles the tie by its own
// rounding. Cb and Cr lie in [0.5, 255.5], and both ends are ties, so the
// fixed-point path needs no clamp.
//
// Cb and Cr share one uint64 sum, Cb in the low 32 bits and Cr in the
// high 32: each entry is cb + cr·2³² in two's complement, and both final
// lanes lie in [0, 2³²), so the packed sum is exact.
var (
	yR, yG, yB [256]uint32
	cR, cG, cB [256]uint64
)

const (
	yFrac = 1<<16 - 4 // a Y sum's fraction is below 4 units iff ys&yFrac == 0
	cFrac = 1<<18 - 4 // the same for a Cb or Cr lane
	// cInt keeps the sample bits of both chroma lanes, and cRound is
	// half of a four-sample box in both.
	cInt   = 0xFF<<18 | 0xFF<<50
	cRound = 2<<18 | 2<<50
)

// The float64 products the formula sums, one table per source channel in
// (Y, Cb, Cr) order: the tie fallback reads them, so it reproduces each
// multiply of the formula bit for bit and only the additions, in the
// formula's order, remain per pixel.
var rTerms, gTerms, bTerms [256][3]float64

func init() {
	lanes := func(cb, cr int32) uint64 { return uint64(int64(cb) + int64(cr)<<32) }
	const cOff = 128<<18 + 1<<17 + 2
	for c := range 256 {
		v := int64(c)
		yR[c] = uint32(roundRational(299*v<<16, 1000)) + 1<<15 + 2
		yG[c] = uint32(roundRational(587*v<<16, 1000))
		yB[c] = uint32(roundRational(114*v<<16, 1000))
		cR[c] = lanes(roundRational(-168736*v<<18, 1000000)+cOff, roundRational(500000*v<<18, 1000000)+cOff)
		cG[c] = lanes(roundRational(-331264*v<<18, 1000000), roundRational(-418688*v<<18, 1000000))
		cB[c] = lanes(roundRational(500000*v<<18, 1000000), roundRational(-81312*v<<18, 1000000))
		f := float64(c)
		rTerms[c] = [3]float64{0.299 * f, -0.168736 * f, 0.5 * f}
		gTerms[c] = [3]float64{0.587 * f, 0.331264 * f, 0.418688 * f}
		bTerms[c] = [3]float64{0.114 * f, 0.5 * f, 0.081312 * f}
	}
}

// ycc returns the fixed-point sums of one pixel: Y, and Cb and Cr packed
// in one word. Y is ys >> 16, Cb uint32(cs) >> 18 and Cr cs >> 50.
func ycc(r, g, b uint8) (ys uint32, cs uint64) {
	return yR[r] + yG[g] + yB[b], cR[r] + cG[g] + cB[b]
}

// tie reports whether any of a pixel's three sums has a fraction below 4
// units: the pixel has a sample on a rounding tie.
func tie(ys uint32, cs uint64) bool {
	return ys&yFrac == 0 || cs&cFrac == 0 || cs&(cFrac<<32) == 0
}

// luma returns the Y sample of one (R, G, B) pixel by the float formula.
func luma(r, g, b uint8) uint8 {
	return clamp8(rTerms[r][0] + gTerms[g][0] + bTerms[b][0])
}

// yccFloat returns the samples of one pixel by the float formula.
func yccFloat(r, g, b uint8) (y, cb, cr uint8) {
	rt, gt, bt := &rTerms[r], &gTerms[g], &bTerms[b]
	return luma(r, g, b), clamp8(rt[1] - gt[1] + bt[1] + 128), clamp8(rt[2] - gt[2] - bt[2] + 128)
}

// convertRow converts len(y) interleaved RGB pixels into luma and
// full-resolution chroma samples.
func convertRow(y, cb, cr, rgb []uint8) {
	n := len(y)
	cb, cr, rgb = cb[:n], cr[:n], rgb[:3*n]
	for x := range y {
		px := rgb[3*x : 3*x+3 : 3*x+3]
		ys, cs := ycc(px[0], px[1], px[2])
		y[x], cb[x], cr[x] = uint8(ys>>16), uint8(uint32(cs)>>18), uint8(cs>>50)
		if tie(ys, cs) {
			y[x], cb[x], cr[x] = yccFloat(px[0], px[1], px[2])
		}
	}
}

// convert420Row converts the len(cb) full 2×2 boxes at the start of two
// rows of interleaved RGB pixels, rgb0 over rgb1: four luma samples per
// box into y0 and y1, and the rounded average of the box's four Cb and
// four Cr samples into cb and cr. The four samples of a lane are summed
// packed, after their fractions are cleared. A box with a pixel on a
// rounding tie is converted again by tieBox.
func convert420Row(y0, y1, cb, cr, rgb0, rgb1 []uint8) {
	n := len(cb)
	y0, y1, cr = y0[:2*n], y1[:2*n], cr[:n]
	rgb0, rgb1 = rgb0[:6*n], rgb1[:6*n]
	for x := range cb {
		p0, p1 := (*[6]uint8)(rgb0[6*x:]), (*[6]uint8)(rgb1[6*x:])
		ya, sa := ycc(p0[0], p0[1], p0[2])
		yb, sb := ycc(p0[3], p0[4], p0[5])
		yc, sc := ycc(p1[0], p1[1], p1[2])
		yd, sd := ycc(p1[3], p1[4], p1[5])
		l0, l1 := (*[2]uint8)(y0[2*x:]), (*[2]uint8)(y1[2*x:])
		l0[0], l0[1], l1[0], l1[1] = uint8(ya>>16), uint8(yb>>16), uint8(yc>>16), uint8(yd>>16)
		s := sa&cInt + sb&cInt + sc&cInt + sd&cInt + cRound
		cb[x], cr[x] = uint8(uint32(s)>>20), uint8(s>>52)
		if tie(ya, sa) || tie(yb, sb) || tie(yc, sc) || tie(yd, sd) {
			cb[x], cr[x] = tieBox(l0, l1, p0, p1)
		}
	}
}

// tieBox converts one 2×2 box, pixels p0 over p1, pixel by pixel with
// convertRow, so only its samples on a tie run the float formula: its
// luma into l0 and l1, and the rounded averages of its Cb and Cr samples
// as the results.
func tieBox(l0, l1 *[2]uint8, p0, p1 *[6]uint8) (cb, cr uint8) {
	var c [8]uint8 // the box's four Cb samples, then its four Cr
	convertRow(l0[:], c[0:2], c[4:6], p0[:])
	convertRow(l1[:], c[2:4], c[6:8], p1[:])
	sb := uint(c[0]) + uint(c[1]) + uint(c[2]) + uint(c[3])
	sr := uint(c[4]) + uint(c[5]) + uint(c[6]) + uint(c[7])
	return uint8((sb + 2) >> 2), uint8((sr + 2) >> 2)
}

// boxRow averages ry buffered rows of w samples into dst[x0:], one sample
// per rx×ry box, with dst one row of ceil(w/rx) samples. A box that hangs
// past the right margin replicates column w−1.
func boxRow(dst, rows []uint8, x0, w, rx, ry int) {
	n := uint(rx * ry)
	shift := bits.TrailingZeros(n)
	for x := x0; x < len(dst); x++ {
		s := uint(0)
		for dy := range ry {
			for dx := range rx {
				s += uint(rows[dy*w+min(x*rx+dx, w-1)])
			}
		}
		dst[x] = uint8((s + n/2) >> shift)
	}
}

// GrowBytes returns a slice of length n, reusing b's backing array when
// it is large enough. The contents are unspecified; callers overwrite.
func GrowBytes(b []uint8, n int) []uint8 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]uint8, n)
}

// The JFIF inverse color transform
//
//	R = Y + 1.402·Cr'
//	G = Y − 0.344136·Cb' − 0.714136·Cr'
//	B = Y + 1.772·Cb'    (Cb' = Cb−128, Cr' = Cr−128)
//
// has rational coefficients, here numerators over colorDen. Y is an
// integer and every channel rounds half up, so a channel is Y plus its
// chroma term rounded half up, clamped to [0, 255]. The kernels read the
// rounded terms from tables and agree with the float formula on every
// (Y, Cb, Cr): a float product lies far closer to its exact term than
// the exact term lies to a rounding boundary, unless it sits on one. R
// and B take ⌊term + ½⌋; B's two terms on a boundary, ±221.5, are exact
// in float64 and round half up there too. G's term is a sum of two, in
// 16.16 fixed point, close enough to the exact sum to round as it does,
// except for the pairs whose exact sum is a half-integer. There the
// float formula's own rounding decides, depending on Y, so gTie names
// those pairs and they run the float formula.
const (
	crRNum   = 1402000 // 1.402
	cbGNum   = 344136  // 0.344136
	crGNum   = 714136  // 0.714136
	cbBNum   = 1772000 // 1.772
	colorDen = 1000000
)

var (
	rOff, bOff [256]int32 // ⌊1.402·Cr' + ½⌋ by Cr, ⌊1.772·Cb' + ½⌋ by Cb
	// G's terms in 16.16 fixed point, each rounded to nearest; gCr
	// carries the ½ of the final rounding, so (gCb[Cb]+gCr[Cr])>>16 is
	// G − Y rounded half up.
	gCb, gCr [256]int32
	// gTie[Cb] is the Cr whose (Cb, Cr) pair has a half-integer exact G
	// term, or −1; cbG and crG hold the float formula's G products,
	// 0.344136·Cb' and 0.714136·Cr', for those pairs.
	gTie     [256]int16
	cbG, crG [256]float64

	clip [1024]uint8 // clip[v+512] is v clamped to [0, 255]
)

// roundRational returns ⌊num/den + ½⌋ for den > 0.
func roundRational(num, den int64) int32 {
	n, d := 2*num+den, 2*den
	q := n / d
	if n%d < 0 {
		q--
	}
	return int32(q)
}

func init() {
	for i := range clip {
		clip[i] = uint8(min(max(i-512, 0), 255))
	}
	for c := range 256 {
		v := int64(c) - 128
		rOff[c] = roundRational(crRNum*v, colorDen)
		bOff[c] = roundRational(cbBNum*v, colorDen)
		gCb[c] = roundRational(-cbGNum*v<<16, colorDen)
		gCr[c] = roundRational(-crGNum*v<<16, colorDen) + 1<<15
		cbG[c] = 0.344136 * float64(v)
		crG[c] = 0.714136 * float64(v)
		gTie[c] = -1
		for r := range 256 {
			// The exact term is n/colorDen: a half-integer when n is an
			// odd multiple of colorDen/2.
			n := cbGNum*v + crGNum*(int64(r)-128)
			if n%(colorDen/2) == 0 && n%colorDen != 0 {
				gTie[c] = int16(r)
			}
		}
	}
}

// clip8 clamps an integer channel value to [0, 255] with one lookup in
// clip, as libjpeg's range_limit table does. A channel is Y plus one
// rounded term, −227 to 480, so the masked index is v+512 itself.
func clip8(v int32) uint8 {
	return clip[(v+512)&1023]
}

// putRGB writes the pixel of luma y whose chroma terms are ro, g and bo
// into px.
func putRGB(px *[3]uint8, y, ro, g, bo int32) {
	px[0] = clip8(y + ro)
	px[1] = clip8(y + g)
	px[2] = clip8(y + bo)
}

// tieG is G by the float formula, for a (Cb, Cr) pair that gTie names.
func tieG(y, b, r uint8) uint8 {
	return clamp8(float64(y) - cbG[b] - crG[r])
}

// YCbCrRowToRGB converts one row of JFIF YCbCr samples to interleaved
// RGB in dst, which must hold 3·len(y) bytes. Output pixel x takes luma
// y[x] and the chroma samples cb[cbX[x]] and cr[crX[x]]: the column maps
// carry any chroma upsampling, so a subsampled row converts without a
// separate upsampling pass.
func YCbCrRowToRGB(dst, y, cb, cr []uint8, cbX, crX []int32) {
	n := len(y)
	dst = dst[:3*n]
	cbX, crX = cbX[:n], crX[:n]
	for x, lum := range y {
		b, r := cb[cbX[x]], cr[crX[x]]
		px := (*[3]uint8)(dst[3*x:])
		putRGB(px, int32(lum), rOff[r], (gCb[b]+gCr[r])>>16, bOff[b])
		if gTie[b] == int16(r) {
			px[1] = tieG(lum, b, r)
		}
	}
}

// YCbCr420RowsToRGB converts two rows of JFIF YCbCr samples that share
// one row of 4:2:0 chroma to interleaved RGB in dst0 and dst1, each of
// which must hold 3·len(y0) bytes: pixel x of either row takes chroma
// sample x/2, so each chroma sample's terms are read once for its 2×2
// luma pixels, as libjpeg's merged h2v2 upsampler does. y1 must be as
// long as y0; for a frame's odd last row, pass that row as both rows.
func YCbCr420RowsToRGB(dst0, dst1, y0, y1, cb, cr []uint8) {
	w := len(y0)
	dst0, dst1, y1 = dst0[:3*w], dst1[:3*w], y1[:w]
	cb, cr = cb[:(w+1)/2], cr[:(w+1)/2]
	for cx := range w / 2 {
		b, r := cb[cx], cr[cx]
		ro, g, bo := rOff[r], (gCb[b]+gCr[r])>>16, bOff[b]
		l0, l1 := (*[2]uint8)(y0[2*cx:]), (*[2]uint8)(y1[2*cx:])
		p0, p1 := (*[6]uint8)(dst0[6*cx:]), (*[6]uint8)(dst1[6*cx:])
		putRGB((*[3]uint8)(p0[:3]), int32(l0[0]), ro, g, bo)
		putRGB((*[3]uint8)(p0[3:]), int32(l0[1]), ro, g, bo)
		putRGB((*[3]uint8)(p1[:3]), int32(l1[0]), ro, g, bo)
		putRGB((*[3]uint8)(p1[3:]), int32(l1[1]), ro, g, bo)
		if gTie[b] == int16(r) {
			p0[1], p0[4] = tieG(l0[0], b, r), tieG(l0[1], b, r)
			p1[1], p1[4] = tieG(l1[0], b, r), tieG(l1[1], b, r)
		}
	}
	if w%2 == 1 {
		// The last column's chroma sample covers one pixel per row.
		x := w - 1
		b, r := cb[x/2], cr[x/2]
		ro, g, bo := rOff[r], (gCb[b]+gCr[r])>>16, bOff[b]
		p0, p1 := (*[3]uint8)(dst0[3*x:]), (*[3]uint8)(dst1[3*x:])
		putRGB(p0, int32(y0[x]), ro, g, bo)
		putRGB(p1, int32(y1[x]), ro, g, bo)
		if gTie[b] == int16(r) {
			p0[1], p1[1] = tieG(y0[x], b, r), tieG(y1[x], b, r)
		}
	}
}

// ToGray extracts the luma plane as a grayscale image.
func (p *Planes) ToGray() *Gray {
	g := NewGray(p.W, p.H)
	copy(g.Pix, p.Y)
	return g
}

// DownsampleInto reduces a w×h plane by integer factors rx×ry with box
// averaging (rounding half up), the subsampling JPEG uses for chroma.
// The output is ceil(w/rx)×ceil(h/ry); boxes that hang past the plane
// replicate the final row/column, matching the 8×8 block edge-extension
// policy. dst's backing array is reused when its capacity suffices. It is
// the reference FromRGBSubsampled's fused averaging is held to.
func DownsampleInto(dst, pix []uint8, w, h, rx, ry int) (out []uint8, ow, oh int) {
	ow, oh = (w+rx-1)/rx, (h+ry-1)/ry
	out = GrowBytes(dst, ow*oh)
	n := rx * ry
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			s := 0
			for dy := 0; dy < ry; dy++ {
				row := pix[min(y*ry+dy, h-1)*w:]
				for dx := 0; dx < rx; dx++ {
					s += int(row[min(x*rx+dx, w-1)])
				}
			}
			out[y*ow+x] = uint8((s + n/2) / n)
		}
	}
	return out, ow, oh
}

// BlockGrid describes how a plane tiles into 8×8 blocks.
type BlockGrid struct {
	BlocksX, BlocksY int
}

// Blocks returns the total number of blocks.
func (g BlockGrid) Blocks() int { return g.BlocksX * g.BlocksY }

// GridFor computes the 8×8 block tiling of a w×h plane (ceil division).
func GridFor(w, h int) BlockGrid {
	return BlockGrid{BlocksX: (w + 7) / 8, BlocksY: (h + 7) / 8}
}

// ExtractBlock copies the 8×8 tile at block coordinates (bx, by) from a
// plane into dst, replicating edge samples when the plane does not divide
// evenly (the standard JPEG edge-extension policy).
func ExtractBlock(pix []uint8, w, h, bx, by int, dst *[64]uint8) {
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= h {
			sy = h - 1
		}
		row := pix[sy*w:]
		for x := 0; x < 8; x++ {
			sx := bx*8 + x
			if sx >= w {
				sx = w - 1
			}
			dst[y*8+x] = row[sx]
		}
	}
}

// StoreBlock writes an 8×8 tile back into a plane, discarding samples that
// fall outside the plane bounds.
func StoreBlock(pix []uint8, w, h, bx, by int, src *[64]uint8) {
	for y := 0; y < 8; y++ {
		sy := by*8 + y
		if sy >= h {
			break
		}
		for x := 0; x < 8; x++ {
			sx := bx*8 + x
			if sx >= w {
				break
			}
			pix[sy*w+sx] = src[y*8+x]
		}
	}
}

// MSE returns the mean squared error between two equally sized pixel
// buffers.
func MSE(a, b []uint8) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("imgutil: MSE length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		// The conversion rounds the product, so no compiler may fuse it
		// into the sum (arm64's would).
		s += float64(d * d)
	}
	return s / float64(len(a)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB between two equally
// sized pixel buffers. Identical buffers return +Inf.
func PSNR(a, b []uint8) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// FromImage converts any image.Image to an interleaved RGB image.
func FromImage(src image.Image) *RGB {
	b := src.Bounds()
	out := NewRGB(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, uint8(r>>8), uint8(g>>8), uint8(bl>>8))
		}
	}
	return out
}

// ToImage converts an RGB image to a stdlib *image.RGBA.
func (im *RGB) ToImage() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			out.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return out
}

// ToGray converts an RGB image to grayscale via the BT.601 luma weights:
// the Y plane FromRGB writes, from the same fixed-point tables and with
// the same tie fallback.
func (im *RGB) ToGray() *Gray {
	g := NewGray(im.W, im.H)
	for i := range g.Pix {
		px := im.Pix[3*i : 3*i+3 : 3*i+3]
		ys := yR[px[0]] + yG[px[1]] + yB[px[2]]
		g.Pix[i] = uint8(ys >> 16)
		if ys&yFrac == 0 {
			g.Pix[i] = luma(px[0], px[1], px[2])
		}
	}
	return g
}

// ToRGB replicates a grayscale image into three channels.
func (g *Gray) ToRGB() *RGB {
	im := NewRGB(g.W, g.H)
	for i, v := range g.Pix {
		im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = v, v, v
	}
	return im
}
