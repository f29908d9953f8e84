package imgutil

// Test oracles: the separate upsample pass and the per-pixel float color
// conversion the decoder ran before YCbCrRowToRGB fused them, kept here
// so the kernel can be checked against the formula it must reproduce
// bit for bit.

import (
	"bytes"
	"testing"
)

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
// table-driven kernel and the per-pixel formula: the tables must hold
// exactly the products the formula computes, so every output byte
// agrees.
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
