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

// Planes holds the three JFIF YCbCr planes of an image at full resolution.
type Planes struct {
	W, H      int
	Y, Cb, Cr []uint8
	Grayscale bool // true when the source had no chroma (Cb, Cr == nil)
}

// ToYCbCr converts an RGB image to full-resolution JFIF YCbCr planes using
// the BT.601 matrix (the one mandated by JFIF 1.02).
func ToYCbCr(im *RGB) *Planes {
	p := &Planes{}
	p.FromRGB(im)
	return p
}

// FromRGB converts im into p, reusing p's plane buffers when their
// capacity suffices — the allocation-free path pooled encoders rely on.
func (p *Planes) FromRGB(im *RGB) {
	n := im.W * im.H
	p.W, p.H, p.Grayscale = im.W, im.H, false
	p.Y = GrowBytes(p.Y, n)
	p.Cb = GrowBytes(p.Cb, n)
	p.Cr = GrowBytes(p.Cr, n)
	for i := 0; i < n; i++ {
		r := float64(im.Pix[3*i])
		g := float64(im.Pix[3*i+1])
		b := float64(im.Pix[3*i+2])
		p.Y[i] = clamp8(0.299*r + 0.587*g + 0.114*b)
		p.Cb[i] = clamp8(-0.168736*r - 0.331264*g + 0.5*b + 128)
		p.Cr[i] = clamp8(0.5*r - 0.418688*g - 0.081312*b + 128)
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

// The JFIF inverse color transform's chroma terms, one table per term:
// for every sample c, exactly the float64 product coefficient·(c−128)
// that the per-pixel formula
//
//	R = Y + 1.402·Cr'
//	G = Y − 0.344136·Cb' − 0.714136·Cr'
//	B = Y + 1.772·Cb'    (Cb' = Cb−128, Cr' = Cr−128)
//
// computes, so a table read reproduces the multiply bit for bit and only
// the additions remain per pixel.
var crR, cbG, crG, cbB [256]float64

func init() {
	for c := range 256 {
		v := float64(c) - 128
		crR[c] = 1.402 * v
		cbG[c] = 0.344136 * v
		crG[c] = 0.714136 * v
		cbB[c] = 1.772 * v
	}
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
		yv := float64(lum)
		b, r := cb[cbX[x]], cr[crX[x]]
		px := dst[3*x : 3*x+3 : 3*x+3]
		px[0] = clamp8(yv + crR[r])
		px[1] = clamp8(yv - cbG[b] - crG[r])
		px[2] = clamp8(yv + cbB[b])
	}
}

// ToGray extracts the luma plane as a grayscale image.
func (p *Planes) ToGray() *Gray {
	g := NewGray(p.W, p.H)
	copy(g.Pix, p.Y)
	return g
}

// Downsample2x2 reduces a plane by 2 in each dimension by box averaging,
// the subsampling JPEG uses for 4:2:0 chroma. Odd dimensions replicate the
// final row/column.
func Downsample2x2(pix []uint8, w, h int) (out []uint8, ow, oh int) {
	return DownsampleInto(nil, pix, w, h, 2, 2)
}

// Downsample2x2Into is Downsample2x2 writing into dst, reusing its
// backing array when the capacity suffices.
func Downsample2x2Into(dst, pix []uint8, w, h int) (out []uint8, ow, oh int) {
	return DownsampleInto(dst, pix, w, h, 2, 2)
}

// DownsampleInto reduces a w×h plane by integer factors rx×ry with box
// averaging (rounding half up), the subsampling JPEG uses for chroma.
// The output is ceil(w/rx)×ceil(h/ry); boxes that hang past the plane
// replicate the final row/column, matching the 8×8 block edge-extension
// policy. dst's backing array is reused when its capacity suffices.
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
		s += d * d
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

// ToGray converts an RGB image to grayscale via the BT.601 luma weights.
func (im *RGB) ToGray() *Gray {
	g := NewGray(im.W, im.H)
	n := im.W * im.H
	for i := 0; i < n; i++ {
		r := float64(im.Pix[3*i])
		gg := float64(im.Pix[3*i+1])
		b := float64(im.Pix[3*i+2])
		g.Pix[i] = clamp8(0.299*r + 0.587*gg + 0.114*b)
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
