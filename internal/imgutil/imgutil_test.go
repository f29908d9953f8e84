package imgutil

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randRGB(rng *rand.Rand, w, h int) *RGB {
	im := NewRGB(w, h)
	rng.Read(im.Pix)
	return im
}

func randGray(rng *rand.Rand, w, h int) *Gray {
	g := NewGray(w, h)
	rng.Read(g.Pix)
	return g
}

func TestSetAt(t *testing.T) {
	im := NewRGB(4, 3)
	im.Set(2, 1, 10, 20, 30)
	r, g, b := im.At(2, 1)
	if r != 10 || g != 20 || b != 30 {
		t.Fatalf("got (%d,%d,%d)", r, g, b)
	}
}

// TestYCbCrRoundTrip verifies RGB→YCbCr→RGB is near-lossless (8-bit
// quantization allows a couple of counts of error).
func TestYCbCrRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	im := randRGB(rng, 16, 16)
	var p Planes
	p.FromRGB(im)
	back := p.ToRGB()
	maxErr := 0
	for i := range im.Pix {
		d := int(im.Pix[i]) - int(back.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > maxErr {
			maxErr = d
		}
	}
	if maxErr > 3 {
		t.Fatalf("YCbCr round trip max error %d > 3", maxErr)
	}
}

// TestYCbCrKnownValues checks primary colors against the JFIF matrix.
func TestYCbCrKnownValues(t *testing.T) {
	cases := []struct {
		r, g, b   uint8
		y, cb, cr uint8
		name      string
	}{
		{255, 255, 255, 255, 128, 128, "white"},
		{0, 0, 0, 0, 128, 128, "black"},
		{128, 128, 128, 128, 128, 128, "gray"},
		{255, 0, 0, 76, 85, 255, "red"},
	}
	for _, c := range cases {
		im := NewRGB(1, 1)
		im.Set(0, 0, c.r, c.g, c.b)
		var p Planes
		p.FromRGB(im)
		if p.Y[0] != c.y || p.Cb[0] != c.cb || p.Cr[0] != c.cr {
			t.Errorf("%s: got Y=%d Cb=%d Cr=%d, want %d/%d/%d",
				c.name, p.Y[0], p.Cb[0], p.Cr[0], c.y, c.cb, c.cr)
		}
	}
}

func TestGrayPlanesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randGray(rng, 9, 7)
	p := GrayPlanes(g)
	if !p.Grayscale {
		t.Fatal("expected grayscale plane set")
	}
	back := p.ToRGB()
	for i, v := range g.Pix {
		if back.Pix[3*i] != v || back.Pix[3*i+1] != v || back.Pix[3*i+2] != v {
			t.Fatalf("pixel %d: luma %d not replicated", i, v)
		}
	}
	if !bytes.Equal(p.Y, g.Pix) {
		t.Fatal("luma plane is not the original image")
	}
}

func TestDownsampleUpsampleShapes(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {9, 7}, {1, 1}, {16, 2}, {3, 3}} {
		w, h := dims[0], dims[1]
		pix := make([]uint8, w*h)
		down, dw, dh := DownsampleInto(nil, pix, w, h, 2, 2)
		if dw != (w+1)/2 || dh != (h+1)/2 {
			t.Fatalf("%dx%d: downsampled to %dx%d", w, h, dw, dh)
		}
		up := Upsample2x2(down, dw, dh, w, h)
		if len(up) != w*h {
			t.Fatalf("%dx%d: upsampled length %d", w, h, len(up))
		}
	}
}

func TestDownsampleAveragesBox(t *testing.T) {
	// 2x2 plane with values 10,20,30,40 → single sample (10+20+30+40+2)/4 = 25.
	pix := []uint8{10, 20, 30, 40}
	out, w, h := DownsampleInto(nil, pix, 2, 2, 2, 2)
	if w != 1 || h != 1 || out[0] != 25 {
		t.Fatalf("got %v (%dx%d), want [25] 1x1", out, w, h)
	}
}

func TestDownsampleConstantIsIdentity(t *testing.T) {
	f := func(v uint8) bool {
		pix := make([]uint8, 16*16)
		for i := range pix {
			pix[i] = v
		}
		out, _, _ := DownsampleInto(nil, pix, 16, 16, 2, 2)
		for _, o := range out {
			if o != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridFor(t *testing.T) {
	cases := []struct{ w, h, bx, by int }{
		{8, 8, 1, 1}, {9, 8, 2, 1}, {32, 32, 4, 4}, {1, 1, 1, 1}, {17, 25, 3, 4},
	}
	for _, c := range cases {
		g := GridFor(c.w, c.h)
		if g.BlocksX != c.bx || g.BlocksY != c.by {
			t.Errorf("GridFor(%d,%d) = %+v, want %dx%d", c.w, c.h, g, c.bx, c.by)
		}
	}
}

func TestExtractStoreBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGray(rng, 16, 16)
	var blk [64]uint8
	ExtractBlock(g.Pix, 16, 16, 1, 1, &blk)
	out := NewGray(16, 16)
	copy(out.Pix, g.Pix)
	StoreBlock(out.Pix, 16, 16, 1, 1, &blk)
	if !bytes.Equal(out.Pix, g.Pix) {
		t.Fatal("extract/store round trip altered plane")
	}
}

func TestExtractBlockEdgeReplication(t *testing.T) {
	// 10x10 plane: block (1,1) covers x,y in [8,16), outside replicates the
	// last row/column.
	g := NewGray(10, 10)
	for i := range g.Pix {
		g.Pix[i] = uint8(i) // 10*y + x
	}
	at := func(x, y int) uint8 { return g.Pix[y*g.W+x] }
	var blk [64]uint8
	ExtractBlock(g.Pix, 10, 10, 1, 1, &blk)
	// In-bounds corner.
	if blk[0] != at(8, 8) {
		t.Fatalf("blk[0] = %d, want %d", blk[0], at(8, 8))
	}
	// x beyond width replicates column 9.
	if blk[3] != at(9, 8) {
		t.Fatalf("blk[3] = %d, want %d", blk[3], at(9, 8))
	}
	// y beyond height replicates row 9.
	if blk[5*8+0] != at(8, 9) {
		t.Fatalf("blk[40] = %d, want %d", blk[40], at(8, 9))
	}
	// Far corner replicates (9,9).
	if blk[63] != at(9, 9) {
		t.Fatalf("blk[63] = %d, want %d", blk[63], at(9, 9))
	}
}

func TestStoreBlockDiscardsOutOfBounds(t *testing.T) {
	g := NewGray(10, 10)
	var blk [64]uint8
	for i := range blk {
		blk[i] = 255
	}
	StoreBlock(g.Pix, 10, 10, 1, 1, &blk) // covers [8,16) — only 2x2 lands
	count := 0
	for _, v := range g.Pix {
		if v == 255 {
			count++
		}
	}
	if count != 4 {
		t.Fatalf("stored %d samples, want 4", count)
	}
}

func TestMSEPSNR(t *testing.T) {
	a := []uint8{0, 0, 0, 0}
	b := []uint8{10, 10, 10, 10}
	mse, err := MSE(a, b)
	if err != nil || mse != 100 {
		t.Fatalf("MSE = %v, %v", mse, err)
	}
	psnr, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Log10(255*255/100.0)
	if math.Abs(psnr-want) > 1e-9 {
		t.Fatalf("PSNR = %g, want %g", psnr, want)
	}
	if p, _ := PSNR(a, a); !math.IsInf(p, 1) {
		t.Fatalf("identical PSNR = %g, want +Inf", p)
	}
	if _, err := MSE(a, b[:2]); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestGrayRGBConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randGray(rng, 8, 8)
	rgb := g.ToRGB()
	back := rgb.ToGray()
	if !bytes.Equal(back.Pix, g.Pix) {
		t.Fatal("gray→rgb→gray should be the identity")
	}
}

func TestFromToImage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	im := randRGB(rng, 7, 5)
	back := FromImage(im.ToImage())
	if !bytes.Equal(back.Pix, im.Pix) {
		t.Fatal("image.Image round trip altered pixels")
	}
}
