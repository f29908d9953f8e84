package jpegcodec

import (
	"bytes"
	"image"
	"image/jpeg"
	"math"
	"math/rand"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// testImageRGB builds a structured color image: smooth gradients plus a
// textured region, so that both low and high frequencies carry energy.
func testImageRGB(w, h int, seed int64) *imgutil.RGB {
	rng := rand.New(rand.NewSource(seed))
	im := imgutil.NewRGB(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := uint8((x * 255) / max(w-1, 1))
			g := uint8((y * 255) / max(h-1, 1))
			b := uint8(128 + 100*math.Sin(float64(x)*0.9)*math.Cos(float64(y)*0.7))
			// Sprinkle noise to exercise high-frequency coding paths.
			if rng.Intn(4) == 0 {
				r = uint8(int(r) ^ 0x1F)
			}
			im.Set(x, y, r, g, b)
		}
	}
	return im
}

func testImageGray(w, h int, seed int64) *imgutil.Gray {
	return testImageRGB(w, h, seed).ToGray()
}

func encodeToBytes(t *testing.T, img *imgutil.RGB, opts *Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, img, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func psnrRGB(t *testing.T, a, b *imgutil.RGB) float64 {
	t.Helper()
	v, err := imgutil.PSNR(a.Pix, b.Pix)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestGrayRoundTripHighQuality(t *testing.T) {
	img := testImageGray(64, 48, 1)
	var buf bytes.Buffer
	opts := &Options{LumaTable: qtable.MustScale(qtable.StdLuminance, 100)}
	if err := EncodeGray(&buf, img, opts); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Components != 1 || dec.W != 64 || dec.H != 48 {
		t.Fatalf("decoded metadata %+v", dec)
	}
	got := dec.Gray()
	psnr, err := imgutil.PSNR(img.Pix, got.Pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 50 {
		t.Fatalf("QF100 gray PSNR = %.1f dB, want ≥ 50", psnr)
	}
}

func TestColorRoundTrip444(t *testing.T) {
	img := testImageRGB(64, 64, 2)
	data := encodeToBytes(t, img, &Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 95),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 95),
		Subsampling: Sub444,
	})
	dec, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Components != 3 || dec.Sampling != Sub444 {
		t.Fatalf("metadata %+v", dec)
	}
	if psnr := psnrRGB(t, img, dec.RGB()); psnr < 33 {
		t.Fatalf("444 PSNR = %.1f dB, want ≥ 33", psnr)
	}
}

func TestColorRoundTrip420(t *testing.T) {
	img := testImageRGB(64, 64, 3)
	data := encodeToBytes(t, img, &Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 95),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 95),
		Subsampling: Sub420,
	})
	dec, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Sampling != Sub420 {
		t.Fatalf("sampling = %v, want 4:2:0", dec.Sampling)
	}
	// The test image carries per-pixel chroma noise, which 4:2:0 is
	// designed to discard; ~24 dB is what libjpeg produces here too.
	if psnr := psnrRGB(t, img, dec.RGB()); psnr < 22 {
		t.Fatalf("420 PSNR = %.1f dB, want ≥ 22", psnr)
	}
}

func TestOddDimensions(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {7, 5}, {8, 8}, {9, 9}, {17, 23}, {16, 17}, {33, 31}} {
		w, h := dims[0], dims[1]
		img := testImageRGB(w, h, 4)
		for _, sub := range []Subsampling{Sub444, Sub420} {
			data := encodeToBytes(t, img, &Options{Subsampling: sub})
			dec, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%dx%d %v: %v", w, h, sub, err)
			}
			if dec.W != w || dec.H != h {
				t.Fatalf("%dx%d %v: decoded %dx%d", w, h, sub, dec.W, dec.H)
			}
			out := dec.RGB()
			if out.W != w || out.H != h {
				t.Fatalf("%dx%d %v: RGB() %dx%d", w, h, sub, out.W, out.H)
			}
		}
	}
}

func TestQualityMonotonicity(t *testing.T) {
	img := testImageRGB(96, 96, 5)
	var prevSize int
	var prevPSNR float64
	for i, qf := range []int{10, 30, 50, 75, 95} {
		data := encodeToBytes(t, img, &Options{
			LumaTable:   qtable.MustScale(qtable.StdLuminance, qf),
			ChromaTable: qtable.MustScale(qtable.StdChrominance, qf),
		})
		dec, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		psnr := psnrRGB(t, img, dec.RGB())
		if i > 0 {
			if len(data) <= prevSize {
				t.Fatalf("QF %d produced %d bytes, not larger than %d", qf, len(data), prevSize)
			}
			if psnr <= prevPSNR {
				t.Fatalf("QF %d PSNR %.2f not above %.2f", qf, psnr, prevPSNR)
			}
		}
		prevSize, prevPSNR = len(data), psnr
	}
}

// TestStdlibDecodesOurOutput is the key interoperability check: Go's
// image/jpeg must decode our streams to nearly the same pixels our decoder
// produces.
func TestStdlibDecodesOurOutput(t *testing.T) {
	img := testImageRGB(64, 48, 6)
	for _, sub := range []Subsampling{Sub444, Sub420} {
		for _, optimize := range []bool{false, true} {
			data := encodeToBytes(t, img, &Options{
				LumaTable:       qtable.MustScale(qtable.StdLuminance, 90),
				ChromaTable:     qtable.MustScale(qtable.StdChrominance, 90),
				Subsampling:     sub,
				OptimizeHuffman: optimize,
			})
			stdImg, err := jpeg.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("stdlib rejects our %v optimize=%v stream: %v", sub, optimize, err)
			}
			std := imgutil.FromImage(stdImg.(image.RGBA64Image))
			ours, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			mse, err := imgutil.MSE(std.Pix, ours.RGB().Pix)
			if err != nil {
				t.Fatal(err)
			}
			// Different IDCT and upsampling implementations allow small
			// deviations, not structural ones.
			if mse > 12 {
				t.Fatalf("%v optimize=%v: stdlib and our decoder disagree, MSE %.2f", sub, optimize, mse)
			}
		}
	}
}

// TestWeDecodeStdlibOutput checks the reverse direction.
func TestWeDecodeStdlibOutput(t *testing.T) {
	img := testImageRGB(60, 44, 7)
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, img.ToImage(), &jpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("cannot decode stdlib stream: %v", err)
	}
	stdImg, err := jpeg.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	std := imgutil.FromImage(stdImg.(image.RGBA64Image))
	mse, err := imgutil.MSE(std.Pix, dec.RGB().Pix)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 12 {
		t.Fatalf("decoders disagree on stdlib stream, MSE %.2f", mse)
	}
}

func TestWeDecodeStdlibGray(t *testing.T) {
	gray := testImageGray(40, 40, 8)
	gimg := image.NewGray(image.Rect(0, 0, 40, 40))
	copy(gimg.Pix, gray.Pix)
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, gimg, &jpeg.Options{Quality: 92}); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Components != 1 {
		t.Fatalf("components = %d, want 1", dec.Components)
	}
	psnr, err := imgutil.PSNR(gray.Pix, dec.Gray().Pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 30 {
		t.Fatalf("gray stdlib PSNR = %.1f", psnr)
	}
}

// TestOptimizedHuffmanLosslessAndSmaller: optimized entropy coding must
// not change decoded pixels and should not grow realistic files.
func TestOptimizedHuffmanLosslessAndSmaller(t *testing.T) {
	img := testImageRGB(96, 96, 9)
	opts := Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 80),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 80),
	}
	std := encodeToBytes(t, img, &opts)
	optsOpt := opts
	optsOpt.OptimizeHuffman = true
	opt := encodeToBytes(t, img, &optsOpt)
	if len(opt) >= len(std) {
		t.Fatalf("optimized %d bytes, standard %d bytes", len(opt), len(std))
	}
	d1, err := Decode(bytes.NewReader(std))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(bytes.NewReader(opt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.RGB().Pix, d2.RGB().Pix) {
		t.Fatal("optimized Huffman changed decoded pixels")
	}
}

func TestZeroMaskDropsCoefficients(t *testing.T) {
	img := testImageGray(64, 64, 10)
	mask := qtable.TopZigZag(10)
	var buf bytes.Buffer
	opts := &Options{
		LumaTable: qtable.MustScale(qtable.StdLuminance, 100),
		ZeroMask:  &mask,
	}
	if err := EncodeGray(&buf, img, opts); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, _ := dec.Coefficients(0)
	if len(blocks) == 0 {
		t.Fatal("no coefficients recorded")
	}
	for bi, blk := range blocks {
		for n := 0; n < 64; n++ {
			if mask[n] && blk[n] != 0 {
				t.Fatalf("block %d coefficient %d = %d, masked band must be zero", bi, n, blk[n])
			}
		}
	}
	// Also verify the mask actually shrinks the stream.
	var plain bytes.Buffer
	if err := EncodeGray(&plain, img, &Options{LumaTable: qtable.MustScale(qtable.StdLuminance, 100)}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= plain.Len() {
		t.Fatalf("masked stream %d bytes not smaller than plain %d", buf.Len(), plain.Len())
	}
}

func TestRestartIntervalRoundTrip(t *testing.T) {
	img := testImageRGB(80, 64, 11)
	for _, ri := range []int{1, 2, 5} {
		data := encodeToBytes(t, img, &Options{
			RestartInterval: ri,
			LumaTable:       qtable.MustScale(qtable.StdLuminance, 90),
			ChromaTable:     qtable.MustScale(qtable.StdChrominance, 90),
		})
		dec, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ri=%d: %v", ri, err)
		}
		if dec.RestartInterval != ri {
			t.Fatalf("ri=%d: parsed %d", ri, dec.RestartInterval)
		}
		// Default 4:2:0 discards this image's per-pixel chroma noise, so
		// ~24 dB is the expected fidelity here.
		if psnr := psnrRGB(t, img, dec.RGB()); psnr < 22 {
			t.Fatalf("ri=%d: PSNR %.1f", ri, psnr)
		}
		// stdlib must also handle our restart markers.
		if _, err := jpeg.Decode(bytes.NewReader(data)); err != nil {
			t.Fatalf("ri=%d: stdlib rejects: %v", ri, err)
		}
	}
}

func TestDecodedCoefficientsMatchEncoderInput(t *testing.T) {
	// With QF=100 (all steps 1) and a DC-only image, coefficients decode to
	// exactly what the encoder computed.
	img := imgutil.NewGray(16, 16)
	for i := range img.Pix {
		img.Pix[i] = 200
	}
	var buf bytes.Buffer
	opts := &Options{LumaTable: qtable.MustScale(qtable.StdLuminance, 100)}
	if err := EncodeGray(&buf, img, opts); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	blocks, bx, by := dec.Coefficients(0)
	if bx != 2 || by != 2 || len(blocks) != 4 {
		t.Fatalf("grid %dx%d len %d", bx, by, len(blocks))
	}
	for _, blk := range blocks {
		if blk[0] != 576 { // (200-128)*8 = 576 for a flat block
			t.Fatalf("DC = %d, want 576", blk[0])
		}
		for i := 1; i < 64; i++ {
			if blk[i] != 0 {
				t.Fatalf("AC[%d] = %d, want 0", i, blk[i])
			}
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	if err := EncodeRGB(&bytes.Buffer{}, imgutil.NewRGB(0, 5), nil); err == nil {
		t.Error("empty image accepted")
	}
	if err := EncodeGray(&bytes.Buffer{}, imgutil.NewGray(0, 0), nil); err == nil {
		t.Error("empty gray image accepted")
	}
	bad := Options{LumaTable: qtable.Table{}}
	bad.LumaTable[0] = 1 // rest zero → invalid
	if err := EncodeGray(&bytes.Buffer{}, imgutil.NewGray(8, 8), &bad); err == nil {
		t.Error("invalid table accepted")
	}
}

// TestEncodePixelBufferSize holds EncodeRGB and EncodeGray to their
// images' documented buffer sizes, 3·W·H and W·H: a short buffer is an
// error rather than an index panic, and a long one is an error rather
// than silently encoding a prefix. The 65535² rows would need a buffer
// of about 12 GB; the size is computed in int64, so they are rejected
// where int is 32 bits as well.
func TestEncodePixelBufferSize(t *testing.T) {
	rgb := func(w, h, n int) *imgutil.RGB { return &imgutil.RGB{W: w, H: h, Pix: make([]uint8, n)} }
	gray := func(w, h, n int) *imgutil.Gray { return &imgutil.Gray{W: w, H: h, Pix: make([]uint8, n)} }
	cases := []struct {
		name    string
		image   any
		wantErr bool
	}{
		{"rgb exact", rgb(9, 7, 3*9*7), false},
		{"rgb short", rgb(9, 7, 3*9*7-1), true},
		{"rgb long", rgb(9, 7, 3*9*7+1), true},
		{"rgb nil", &imgutil.RGB{W: 9, H: 7}, true},
		{"rgb gray-sized", rgb(9, 7, 9*7), true},
		{"rgb 65535 square", rgb(0xFFFF, 0xFFFF, 64), true},
		{"gray exact", gray(9, 7, 9*7), false},
		{"gray short", gray(9, 7, 9*7-1), true},
		{"gray long", gray(9, 7, 9*7+1), true},
		{"gray nil", &imgutil.Gray{W: 9, H: 7}, true},
		{"gray rgb-sized", gray(9, 7, 3*9*7), true},
		{"gray 65535 square", gray(0xFFFF, 0xFFFF, 64), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			var err error
			switch im := tc.image.(type) {
			case *imgutil.RGB:
				err = EncodeRGB(&buf, im, nil)
			case *imgutil.Gray:
				err = EncodeGray(&buf, im, nil)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if err != nil && buf.Len() != 0 {
				t.Fatalf("rejected image wrote %d bytes", buf.Len())
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"not a jpeg":  {0x00, 0x01, 0x02},
		"SOI only":    {0xFF, 0xD8},
		"EOI first":   {0xFF, 0xD8, 0xFF, 0xD9},
		"progressive": {0xFF, 0xD8, 0xFF, 0xC2, 0x00, 0x0B, 8, 0, 16, 0, 16, 1, 1, 0x11, 0},
	}
	for name, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: decode succeeded unexpectedly", name)
		}
	}
}

func TestDecodeTruncatedScan(t *testing.T) {
	img := testImageGray(32, 32, 12)
	var buf bytes.Buffer
	if err := EncodeGray(&buf, img, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Decode(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated stream decoded without error")
	}
}

func TestDQTRoundTripThroughStream(t *testing.T) {
	// The decoder must recover exactly the tables the encoder wrote.
	luma := qtable.MustScale(qtable.StdLuminance, 37)
	chroma := qtable.MustScale(qtable.StdChrominance, 37)
	img := testImageRGB(16, 16, 13)
	data := encodeToBytes(t, img, &Options{LumaTable: luma, ChromaTable: chroma})
	dec, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if dec.QuantTables[0] != luma {
		t.Fatal("luma table mismatch")
	}
	if dec.QuantTables[1] != chroma {
		t.Fatal("chroma table mismatch")
	}
}

func TestFlatImageCompressesTiny(t *testing.T) {
	img := imgutil.NewRGB(128, 128)
	for i := range img.Pix {
		img.Pix[i] = 77
	}
	data := encodeToBytes(t, img, nil)
	if len(data) > 2500 {
		t.Fatalf("flat 128x128 image took %d bytes", len(data))
	}
}

func BenchmarkEncodeRGB420(b *testing.B) {
	img := testImageRGB(256, 256, 20)
	opts := &Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 85),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 85),
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(img.Pix)))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := EncodeRGB(&buf, img, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRGB420(b *testing.B) {
	img := testImageRGB(256, 256, 21)
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, img, nil); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(img.Pix)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeOptimizedHuffman(b *testing.B) {
	img := testImageRGB(256, 256, 22)
	opts := &Options{OptimizeHuffman: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := EncodeRGB(&buf, img, opts); err != nil {
			b.Fatal(err)
		}
	}
}
