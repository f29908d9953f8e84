package jpegcodec

import (
	"bytes"
	"fmt"
	"image/jpeg"
	"strings"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/qtable"
)

func TestRequantizeBasics(t *testing.T) {
	img := testImageRGB(64, 48, 30)
	src := encodeToBytes(t, img, &Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 95),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 95),
	})
	dec, err := Decode(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	newLuma := qtable.MustScale(qtable.StdLuminance, 60)
	newChroma := qtable.MustScale(qtable.StdChrominance, 60)
	if err := Requantize(&out, dec, newLuma, newChroma, nil); err != nil {
		t.Fatal(err)
	}
	if out.Len() >= len(src) {
		t.Fatalf("requantized %d bytes not smaller than source %d", out.Len(), len(src))
	}
	dec2, err := Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatalf("cannot decode requantized stream: %v", err)
	}
	if dec2.QuantTables[0] != newLuma {
		t.Fatal("new luma table not embedded")
	}
	if dec2.W != 64 || dec2.H != 48 || dec2.Sampling != dec.Sampling {
		t.Fatalf("geometry changed: %dx%d %v", dec2.W, dec2.H, dec2.Sampling)
	}
	// The result is standard JFIF.
	if _, err := jpeg.Decode(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("stdlib rejects requantized stream: %v", err)
	}
	// Quality stays reasonable.
	psnr, err := imgutil.PSNR(img.Pix, dec2.RGB().Pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 20 {
		t.Fatalf("requantized PSNR %.1f too low", psnr)
	}
}

// TestRequantizeIdentityIsLossless: requantizing with the same tables must
// reproduce the exact coefficients (and therefore identical pixels).
func TestRequantizeIdentityIsLossless(t *testing.T) {
	img := testImageRGB(48, 40, 31)
	luma := qtable.MustScale(qtable.StdLuminance, 80)
	chroma := qtable.MustScale(qtable.StdChrominance, 80)
	src := encodeToBytes(t, img, &Options{LumaTable: luma, ChromaTable: chroma})
	dec, err := Decode(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Requantize(&out, dec, luma, chroma, nil); err != nil {
		t.Fatal(err)
	}
	dec2, err := Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.RGB().Pix, dec2.RGB().Pix) {
		t.Fatal("identity requantization changed pixels")
	}
}

// TestRequantizeBeatsPixelTranscode: coefficient-domain transcoding must
// not lose more quality than decode→re-encode through pixels.
func TestRequantizeBeatsPixelTranscode(t *testing.T) {
	img := testImageRGB(64, 64, 32)
	srcOpts := &Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 90),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 90),
	}
	src := encodeToBytes(t, img, srcOpts)
	dec, err := Decode(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	newLuma := qtable.MustScale(qtable.StdLuminance, 70)
	newChroma := qtable.MustScale(qtable.StdChrominance, 70)

	var coefDomain bytes.Buffer
	if err := Requantize(&coefDomain, dec, newLuma, newChroma, nil); err != nil {
		t.Fatal(err)
	}
	pixDomain := encodeToBytes(t, dec.RGB(), &Options{LumaTable: newLuma, ChromaTable: newChroma})

	decCoef, err := Decode(bytes.NewReader(coefDomain.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decPix, err := Decode(bytes.NewReader(pixDomain))
	if err != nil {
		t.Fatal(err)
	}
	psnrCoef, err := imgutil.PSNR(img.Pix, decCoef.RGB().Pix)
	if err != nil {
		t.Fatal(err)
	}
	psnrPix, err := imgutil.PSNR(img.Pix, decPix.RGB().Pix)
	if err != nil {
		t.Fatal(err)
	}
	// Allow a hair of slack: the comparison is statistical, but coefficient
	// domain must not be clearly worse.
	if psnrCoef < psnrPix-0.3 {
		t.Fatalf("coefficient-domain %.2f dB below pixel-domain %.2f dB", psnrCoef, psnrPix)
	}
}

func TestRequantizeWithMaskAndOptimize(t *testing.T) {
	img := testImageGray(56, 56, 33)
	var src bytes.Buffer
	if err := EncodeGray(&src, img, &Options{LumaTable: qtable.MustScale(qtable.StdLuminance, 95)}); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(src.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mask := qtable.TopZigZag(9)
	var out bytes.Buffer
	opts := &Options{ZeroMask: &mask, OptimizeHuffman: true}
	if err := Requantize(&out, dec, qtable.MustScale(qtable.StdLuminance, 95), qtable.StdChrominance, opts); err != nil {
		t.Fatal(err)
	}
	dec2, err := Decode(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, _ := dec2.Coefficients(0)
	for _, blk := range blocks {
		for n := 0; n < 64; n++ {
			if mask[n] && blk[n] != 0 {
				t.Fatalf("masked band %d nonzero after requantize", n)
			}
		}
	}
	if out.Len() >= src.Len() {
		t.Fatalf("masked+optimized %d not smaller than source %d", out.Len(), src.Len())
	}
}

func TestRequantizeRejectsBadTables(t *testing.T) {
	img := testImageGray(16, 16, 34)
	var src bytes.Buffer
	if err := EncodeGray(&src, img, nil); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(src.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var bad qtable.Table // all zeros
	if err := Requantize(&bytes.Buffer{}, dec, bad, qtable.StdChrominance, nil); err == nil {
		t.Fatal("invalid table accepted")
	}
}

func BenchmarkRequantize(b *testing.B) {
	img := testImageRGB(128, 128, 35)
	var src bytes.Buffer
	if err := EncodeRGB(&src, img, nil); err != nil {
		b.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(src.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	luma := qtable.MustScale(qtable.StdLuminance, 60)
	chroma := qtable.MustScale(qtable.StdChrominance, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out bytes.Buffer
		if err := Requantize(&out, dec, luma, chroma, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRequantizeRejectsOutOfRangeCoefficients holds Requantize to the
// baseline magnitude categories: at most 10 bits for an AC coefficient
// and 11 for a DC difference, the bounds libjpeg enforces with
// JERR_BAD_DCT_COEF. The first case is a stream it used to write wrong:
// luma block 0 of a flat 16×16 frame holds 32767 at coefficient 1 under
// source step 255 and is requantized onto step 1 there with optimized
// tables. The product, 8,355,585, needs 23 magnitude bits; the category
// spilled into the run nibble of its AC symbol, and the 343-byte result
// decoded coefficient 1 as 0 and coefficient 8 as 127. Each rejection
// must hold with standard and optimized tables; the largest values that
// fit must decode back exactly.
func TestRequantizeRejectsOutOfRangeCoefficients(t *testing.T) {
	flat := imgutil.NewRGB(16, 16)
	for i := range flat.Pix {
		flat.Pix[i] = 128 // every AC coefficient and every DC is 0
	}
	src := encodeToBytes(t, flat, nil)
	for _, tc := range []struct {
		name     string
		k        int   // natural-order index in luma block 0
		v        int32 // its coefficient
		from, to uint16
		want     int32  // requantized value, when it fits
		wantErr  string // error substring, when it does not
	}{
		{name: "AC 23 bits", k: 1, v: 32767, from: 255, to: 1, wantErr: "AC coefficient 8355585 needs 23 magnitude bits"},
		{name: "AC 11 bits", k: 1, v: 1024, from: 1, to: 1, wantErr: "AC coefficient 1024 needs 11"},
		{name: "AC -11 bits", k: 9, v: -1024, from: 1, to: 1, wantErr: "AC coefficient -1024 needs 11"},
		{name: "AC 10 bits", k: 1, v: 1023, from: 1, to: 1, want: 1023},
		{name: "AC -10 bits", k: 63, v: -1023, from: 1, to: 1, want: -1023},
		{name: "DC 12 bits", k: 0, v: 2048, from: 1, to: 1, wantErr: "DC difference 2048 needs 12"},
		{name: "DC 11 bits", k: 0, v: -2047, from: 1, to: 1, want: -2047},
	} {
		for _, optimize := range []bool{false, true} {
			name := fmt.Sprintf("%s/optimize=%v", tc.name, optimize)
			dec, err := Decode(bytes.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			tq := dec.planes[0].tq
			from := dec.QuantTables[tq]
			from[tc.k] = tc.from
			dec.QuantTables[tq] = from
			to := from
			to[tc.k] = tc.to
			// The block decoded DC-only: a write past its recorded extent
			// must raise the extent, or Requantize never reads it.
			dec.coefs[0][0][tc.k] = tc.v
			dec.ext[0][0] = 63
			var out bytes.Buffer
			err = Requantize(&out, dec, to, qtable.MustScale(qtable.StdChrominance, 50), &Options{OptimizeHuffman: optimize})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("%s: Requantize wrote %d bytes, err %v; want an error containing %q", name, out.Len(), err, tc.wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			back, err := Decode(bytes.NewReader(out.Bytes()))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var want [64]int32
			want[tc.k] = tc.want
			if got := back.coefs[0][0]; got != want {
				t.Fatalf("%s: luma block 0 decodes as %v, want %v", name, got, want)
			}
		}
	}
}
