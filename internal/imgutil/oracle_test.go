package imgutil

// Test oracles: the separate upsample pass and the per-pixel float color
// conversion the decoder ran before YCbCrRowToRGB fused them, and the
// per-pixel forward conversion the encoder ran before FromRGBSubsampled
// read product tables and averaged chroma boxes in the same pass, kept
// here so both kernels can be checked against the formulas they must
// reproduce bit for bit.

import (
	"bytes"
	"math/rand"
	"testing"
)

// fromRGBFormula converts im to full-resolution planes by evaluating the
// JFIF forward formula per pixel.
func fromRGBFormula(im *RGB) *Planes {
	n := im.W * im.H
	p := &Planes{W: im.W, H: im.H, Y: make([]uint8, n), Cb: make([]uint8, n), Cr: make([]uint8, n)}
	for i := 0; i < n; i++ {
		r := float64(im.Pix[3*i])
		g := float64(im.Pix[3*i+1])
		b := float64(im.Pix[3*i+2])
		p.Y[i] = clamp8(0.299*r + 0.587*g + 0.114*b)
		p.Cb[i] = clamp8(-0.168736*r - 0.331264*g + 0.5*b + 128)
		p.Cr[i] = clamp8(0.5*r - 0.418688*g - 0.081312*b + 128)
	}
	return p
}

// GrayPlanes wraps a grayscale image as a luma-only plane set.
func GrayPlanes(g *Gray) *Planes {
	return &Planes{W: g.W, H: g.H, Y: g.Pix, Grayscale: true}
}

// ToRGB converts YCbCr planes back to interleaved RGB. Grayscale plane sets
// replicate luma into all three channels.
func (p *Planes) ToRGB() *RGB {
	return p.ToRGBInto(nil)
}

// ToRGBInto is ToRGB writing into dst, reusing dst's pixel buffer when
// its capacity suffices.
func (p *Planes) ToRGBInto(dst *RGB) *RGB {
	im := dst
	if im == nil {
		im = &RGB{}
	}
	im.W, im.H = p.W, p.H
	im.Pix = GrowBytes(im.Pix, 3*p.W*p.H)
	n := p.W * p.H
	for i := 0; i < n; i++ {
		y := float64(p.Y[i])
		if p.Grayscale {
			v := clamp8(y)
			im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = v, v, v
			continue
		}
		cb := float64(p.Cb[i]) - 128
		cr := float64(p.Cr[i]) - 128
		im.Pix[3*i] = clamp8(y + 1.402*cr)
		im.Pix[3*i+1] = clamp8(y - 0.344136*cb - 0.714136*cr)
		im.Pix[3*i+2] = clamp8(y + 1.772*cb)
	}
	return im
}

// Upsample2x2 expands a plane by 2 in each dimension using sample
// replication (the baseline JPEG "box" upsampler).
func Upsample2x2(pix []uint8, w, h, ow, oh int) []uint8 {
	return UpsampleInto(nil, pix, w, h, ow, oh, 1, 2, 1, 2)
}

// UpsampleInto expands a subsampled w×h plane to ow×oh by nearest-sample
// replication: output pixel (x, y) reads source sample
// (x*hs/maxH, y*vs/maxV), clamped to the plane.
func UpsampleInto(dst, pix []uint8, w, h, ow, oh, hs, maxH, vs, maxV int) []uint8 {
	out := GrowBytes(dst, ow*oh)
	for y := 0; y < oh; y++ {
		sy := min(y*vs/maxV, h-1)
		srow := pix[sy*w : sy*w+w]
		drow := out[y*ow : y*ow+ow]
		if hs == maxH && w == ow {
			copy(drow, srow)
			continue
		}
		for x := 0; x < ow; x++ {
			drow[x] = srow[min(x*hs/maxH, w-1)]
		}
	}
	return out
}

// TestYCbCrRowToRGBOracle runs every (Y, Cb, Cr) triple through the
// row kernel and the per-pixel float formula. The kernel adds integer
// chroma terms to Y, each rounded half up from the exact rational
// coefficients, and falls back to the formula for the (Cb, Cr) pairs
// whose G term is a half-integer, so every output byte must agree.
func TestYCbCrRowToRGBOracle(t *testing.T) {
	const n = 1 << 16 // one row per luma value: all (Cb, Cr) pairs
	cb, cr := make([]uint8, n), make([]uint8, n)
	cbX, crX := make([]int32, n), make([]int32, n)
	ident := make([]uint8, 256)
	for i := range n {
		cb[i], cr[i] = uint8(i>>8), uint8(i)
		cbX[i], crX[i] = int32(i>>8), int32(i&0xFF)
	}
	for i := range ident {
		ident[i] = uint8(i)
	}
	lum := make([]uint8, n)
	got := make([]uint8, 3*n)
	var want *RGB
	for y := range 256 {
		for i := range lum {
			lum[i] = uint8(y)
		}
		YCbCrRowToRGB(got, lum, ident, ident, cbX, crX)
		want = (&Planes{W: n, H: 1, Y: lum, Cb: cb, Cr: cr}).ToRGBInto(want)
		if !bytes.Equal(got, want.Pix) {
			for i := range n {
				if !bytes.Equal(got[3*i:3*i+3], want.Pix[3*i:3*i+3]) {
					t.Fatalf("Y=%d Cb=%d Cr=%d: kernel %v, formula %v",
						y, cb[i], cr[i], got[3*i:3*i+3], want.Pix[3*i:3*i+3])
				}
			}
		}
	}
}

// TestYCbCr420RowsToRGBOracle runs every (Y, Cb, Cr) triple through the
// merged 4:2:0 kernel and the per-pixel formula. One chroma row holds
// all (Cb, Cr) pairs, the two half-integer G pairs among them, and each
// sample covers four luma values, one per pixel of its 2×2 box, so 64
// row pairs reach all 256 luma values. Every other row pair drops the
// last column, which leaves the last chroma sample one pixel per row.
func TestYCbCr420RowsToRGBOracle(t *testing.T) {
	const n = 1 << 16 // chroma samples per row: all (Cb, Cr) pairs
	cb, cr := make([]uint8, n), make([]uint8, n)
	for i := range n {
		cb[i], cr[i] = uint8(i>>8), uint8(i)
	}
	up := func(c []uint8) []uint8 { // the chroma row under each pixel
		out := make([]uint8, 2*n)
		for x := range out {
			out[x] = c[x/2]
		}
		return out
	}
	cbUp, crUp := up(cb), up(cr)
	y0, y1 := make([]uint8, 2*n), make([]uint8, 2*n)
	got0, got1 := make([]uint8, 6*n), make([]uint8, 6*n)
	var want *RGB
	for y := range 64 {
		for x := range y0 {
			y0[x] = uint8(y + 128*(x&1))
			y1[x] = uint8(y + 64 + 128*(x&1))
		}
		w := 2*n - y&1
		YCbCr420RowsToRGB(got0[:3*w], got1[:3*w], y0[:w], y1[:w], cb, cr)
		for row, got := range [][]uint8{got0[:3*w], got1[:3*w]} {
			lum := [][]uint8{y0, y1}[row][:w]
			want = (&Planes{W: w, H: 1, Y: lum, Cb: cbUp[:w], Cr: crUp[:w]}).ToRGBInto(want)
			if !bytes.Equal(got, want.Pix) {
				for x := range w {
					if !bytes.Equal(got[3*x:3*x+3], want.Pix[3*x:3*x+3]) {
						t.Fatalf("width %d row %d: Y=%d Cb=%d Cr=%d: kernel %v, formula %v",
							w, row, lum[x], cbUp[x], crUp[x], got[3*x:3*x+3], want.Pix[3*x:3*x+3])
					}
				}
			}
		}
	}
}

// TestFromRGBSubsampledOracle holds the table-driven one-pass conversion
// to the per-pixel formula. At 1×1 it runs every (R, G, B) triple
// through FromRGB and ToGray; for every encode layout it compares seeded
// random images, at sizes that leave partial boxes on either margin or
// are smaller than the box, against the formula followed by
// DownsampleInto. One Planes value is reused throughout, so stale pooled
// buffers would show.
func TestFromRGBSubsampledOracle(t *testing.T) {
	var p Planes
	const n = 1 << 16 // one row per R value: all (G, B) pairs
	im := NewRGB(n, 1)
	for r := range 256 {
		for i := range n {
			im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = uint8(r), uint8(i>>8), uint8(i)
		}
		p.FromRGB(im)
		want := fromRGBFormula(im)
		gray := im.ToGray()
		for i := range n {
			if p.Y[i] != want.Y[i] || p.Cb[i] != want.Cb[i] || p.Cr[i] != want.Cr[i] || gray.Pix[i] != want.Y[i] {
				t.Fatalf("RGB (%d,%d,%d): tables Y/Cb/Cr %d/%d/%d, ToGray %d, formula %d/%d/%d",
					r, i>>8, i&0xFF, p.Y[i], p.Cb[i], p.Cr[i], gray.Pix[i], want.Y[i], want.Cb[i], want.Cr[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(71))
	sizes := [][2]int{{1, 1}, {2, 1}, {1, 2}, {3, 1}, {2, 2}, {3, 3}, {5, 4}, {7, 5}, {8, 8}, {9, 7}, {17, 9}, {31, 33}, {64, 48}}
	for _, box := range [][2]int{{1, 1}, {2, 2}, {2, 1}, {1, 2}, {4, 1}} {
		rx, ry := box[0], box[1]
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			im := randRGB(rng, w, h)
			gotW, gotH := p.FromRGBSubsampled(im, rx, ry)
			want := fromRGBFormula(im)
			cb, cw, ch := DownsampleInto(nil, want.Cb, w, h, rx, ry)
			cr, _, _ := DownsampleInto(nil, want.Cr, w, h, rx, ry)
			if p.W != w || p.H != h || gotW != cw || gotH != ch {
				t.Fatalf("%dx%d box %dx%d: planes %dx%d chroma %dx%d, want %dx%d chroma %dx%d",
					w, h, rx, ry, p.W, p.H, gotW, gotH, w, h, cw, ch)
			}
			if !bytes.Equal(p.Y, want.Y) || !bytes.Equal(p.Cb, cb) || !bytes.Equal(p.Cr, cr) {
				t.Fatalf("%dx%d box %dx%d: one pass Y %v Cb %v Cr %v, formula+DownsampleInto %v %v %v",
					w, h, rx, ry, p.Y, p.Cb, p.Cr, want.Y, cb, cr)
			}
		}
	}
}
