package imgutil

// Test oracles: the separate upsample pass and the per-pixel float color
// conversion the decoder ran before YCbCrRowToRGB fused them, and the
// per-pixel forward conversion the encoder ran before FromRGBSubsampled
// converted in fixed point and averaged chroma boxes in the same pass, kept
// here so both kernels can be checked against the formulas they must
// reproduce bit for bit.

import (
	"bytes"
	"fmt"
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

// exactTie reports whether the exact Y, Cb or Cr of (r, g, b) is a
// half-integer, computed in integers from the formula's rational
// coefficients: 1000·Y and 10⁶·(Cb − 128), 10⁶·(Cr − 128).
func exactTie(r, g, b int) bool {
	half := func(n, den int) bool { return ((n%den)+den)%den == den/2 }
	return half(299*r+587*g+114*b, 1000) ||
		half(-168736*r-331264*g+500000*b, 1000000) ||
		half(500000*r-418688*g-81312*b, 1000000)
}

// check420 converts im, two rows high, at 4:2:0 into p and holds it to
// the per-pixel formula followed by DownsampleInto.
func check420(t *testing.T, p *Planes, im *RGB, what string) {
	t.Helper()
	p.FromRGBSubsampled(im, 2, 2)
	want := fromRGBFormula(im)
	cb, _, _ := DownsampleInto(nil, want.Cb, im.W, im.H, 2, 2)
	cr, _, _ := DownsampleInto(nil, want.Cr, im.W, im.H, 2, 2)
	if bytes.Equal(p.Y, want.Y) && bytes.Equal(p.Cb, cb) && bytes.Equal(p.Cr, cr) {
		return
	}
	for x := range cb {
		var px [4][3]uint8
		for i := range px {
			px[i][0], px[i][1], px[i][2] = im.At(2*x+i%2, i/2)
		}
		ys := []uint8{p.Y[2*x], p.Y[2*x+1], p.Y[im.W+2*x], p.Y[im.W+2*x+1]}
		wys := []uint8{want.Y[2*x], want.Y[2*x+1], want.Y[im.W+2*x], want.Y[im.W+2*x+1]}
		if !bytes.Equal(ys, wys) || p.Cb[x] != cb[x] || p.Cr[x] != cr[x] {
			t.Fatalf("%s: box %d of pixels %v: kernel Y %v Cb %d Cr %d, formula+DownsampleInto Y %v Cb %d Cr %d",
				what, x, px, ys, p.Cb[x], p.Cr[x], wys, cb[x], cr[x])
		}
	}
}

// TestFromRGBSubsampled420Oracle holds the fused 4:2:0 kernel to the
// per-pixel formula followed by DownsampleInto. Every (R, G, B) triple
// goes through the kernel once, four distinct triples per 2×2 box, and a
// triple's position in its box rotates with the box. Then every triple
// with a Y, Cb or Cr on a rounding tie goes in at each of the four
// positions, beside three random pixels, so the kernel's box fallback
// must catch a tie at each position. The same pass holds the kernels' tie flag, a
// fraction below 4 units, to the exact ties: it fires on every tie and on
// nothing else.
func TestFromRGBSubsampled420Oracle(t *testing.T) {
	var p Planes
	const boxes = 1 << 14 // per image: one row pair, 1<<16 triples
	im := NewRGB(2*boxes, 2)
	for base := 0; base < 1<<24; base += 4 * boxes {
		for k := range 4 * boxes {
			tri, box, pos := base+k, k/4, (k+k/4)%4
			im.Set(2*box+pos%2, pos/2, uint8(tri>>16), uint8(tri>>8), uint8(tri))
		}
		check420(t, &p, im, fmt.Sprintf("triples %#x..", base))
	}

	var ties [][3]uint8
	for tri := range 1 << 24 {
		r, g, b := tri>>16, tri>>8&0xFF, tri&0xFF
		exact := exactTie(r, g, b)
		if flag := tie(ycc(uint8(r), uint8(g), uint8(b))); flag != exact {
			t.Fatalf("RGB (%d,%d,%d): tie flag %v, exact half-integer %v", r, g, b, flag, exact)
		}
		if exact {
			ties = append(ties, [3]uint8{uint8(r), uint8(g), uint8(b)})
		}
	}
	rng := rand.New(rand.NewSource(73))
	for base := 0; base < 4*len(ties); base += boxes {
		rng.Read(im.Pix)
		for box := range min(boxes, 4*len(ties)-base) {
			k := base + box
			tp, pos := ties[k/4], k%4
			im.Set(2*box+pos%2, pos/2, tp[0], tp[1], tp[2])
		}
		check420(t, &p, im, fmt.Sprintf("ties %d..", base/4))
	}
}

// TestFromRGBSubsampledEdges holds the conversion to literal samples on
// the edges of the fixed-point path: Cb and Cr of exactly 0.5 and 255.5,
// where the float formula rounds up or clamps, Y ties the formula rounds
// up and down, a chroma tie, and gray pixels, which never tie. tie says
// whether the pixel sits on a rounding tie, which the kernels' flag must
// match. Each pixel fills images of every width and height 1–5 under
// every encode layout, whose planes must hold only want; it then sits at
// each position of the same sizes over random pixels, held to the
// per-pixel formula followed by DownsampleInto, and RGB.ToGray must give
// the same Y.
func TestFromRGBSubsampledEdges(t *testing.T) {
	tests := []struct {
		name  string
		input [3]uint8 // R, G, B
		want  [3]uint8 // Y, Cb, Cr
		tie   bool
	}{
		{name: "Cb 0.5", input: [3]uint8{255, 255, 0}, want: [3]uint8{226, 1, 149}, tie: true},
		{name: "Cb 255.5", input: [3]uint8{0, 0, 255}, want: [3]uint8{29, 255, 107}, tie: true},
		{name: "Cr 0.5", input: [3]uint8{0, 255, 255}, want: [3]uint8{179, 171, 1}, tie: true},
		{name: "Cr 255.5", input: [3]uint8{255, 0, 0}, want: [3]uint8{76, 85, 255}, tie: true},
		{name: "Cr 128.5", input: [3]uint8{1, 0, 0}, want: [3]uint8{0, 128, 129}, tie: true},
		{name: "Y 28.5 rounds up", input: [3]uint8{0, 0, 250}, want: [3]uint8{29, 253, 108}, tie: true},
		{name: "Y 22.5 rounds down", input: [3]uint8{0, 36, 12}, want: [3]uint8{22, 122, 112}, tie: true},
		{name: "gray 0", input: [3]uint8{0, 0, 0}, want: [3]uint8{0, 128, 128}},
		{name: "gray 1", input: [3]uint8{1, 1, 1}, want: [3]uint8{1, 128, 128}},
		{name: "gray 128", input: [3]uint8{128, 128, 128}, want: [3]uint8{128, 128, 128}},
		{name: "gray 254", input: [3]uint8{254, 254, 254}, want: [3]uint8{254, 128, 128}},
		{name: "gray 255", input: [3]uint8{255, 255, 255}, want: [3]uint8{255, 128, 128}},
	}
	for c := range 256 {
		if tie(ycc(uint8(c), uint8(c), uint8(c))) {
			t.Errorf("gray %d flags a tie", c)
		}
	}
	rng := rand.New(rand.NewSource(79))
	var p Planes
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, g, b := tt.input[0], tt.input[1], tt.input[2]
			if got := tie(ycc(r, g, b)); got != tt.tie {
				t.Errorf("tie flag %v, want %v", got, tt.tie)
			}
			for _, box := range [][2]int{{1, 1}, {2, 2}, {2, 1}, {1, 2}, {4, 1}} {
				rx, ry := box[0], box[1]
				for w := 1; w <= 5; w++ {
					for h := 1; h <= 5; h++ {
						im := NewRGB(w, h)
						for i := range w * h {
							im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = r, g, b
						}
						p.FromRGBSubsampled(im, rx, ry)
						for i, plane := range [][]uint8{p.Y, p.Cb, p.Cr} {
							if bytes.Count(plane, []uint8{tt.want[i]}) != len(plane) {
								t.Fatalf("%dx%d box %dx%d: plane %d is %v, want all %d", w, h, rx, ry, i, plane, tt.want[i])
							}
						}
						if gray := im.ToGray(); bytes.Count(gray.Pix, []uint8{tt.want[0]}) != w*h {
							t.Fatalf("%dx%d: ToGray %v, want all %d", w, h, gray.Pix, tt.want[0])
						}
						for at := range w * h {
							rng.Read(im.Pix)
							im.Pix[3*at], im.Pix[3*at+1], im.Pix[3*at+2] = r, g, b
							p.FromRGBSubsampled(im, rx, ry)
							want := fromRGBFormula(im)
							cb, _, _ := DownsampleInto(nil, want.Cb, w, h, rx, ry)
							cr, _, _ := DownsampleInto(nil, want.Cr, w, h, rx, ry)
							if !bytes.Equal(p.Y, want.Y) || !bytes.Equal(p.Cb, cb) || !bytes.Equal(p.Cr, cr) {
								t.Fatalf("%dx%d box %dx%d, pixel %d of %v: Y %v Cb %v Cr %v, formula+DownsampleInto %v %v %v",
									w, h, rx, ry, at, im.Pix, p.Y, p.Cb, p.Cr, want.Y, cb, cr)
							}
							if gray := im.ToGray(); !bytes.Equal(gray.Pix, want.Y) {
								t.Fatalf("%dx%d, pixel %d of %v: ToGray %v, formula %v", w, h, at, im.Pix, gray.Pix, want.Y)
							}
						}
					}
				}
			}
		})
	}
}
