package deepnjpeg

// Interop golden tests: every stream this framework emits must be plain
// baseline JFIF that the Go standard library decodes, and conversely
// stdlib-encoded JPEGs must decode through deepnjpeg.Decode. Fidelity is
// bounded with PSNR against the source image; agreement between the two
// decoders on the same stream is bounded much tighter (they differ only
// in IDCT rounding and color-conversion arithmetic).

import (
	"bytes"
	"image"
	"image/jpeg"
	"testing"

	"repro/internal/imgutil"
)

// stdlibToRGB flattens any stdlib-decoded image to our representation.
func stdlibToRGB(t *testing.T, img image.Image) *Image {
	t.Helper()
	out := NewImage(img.Bounds().Dx(), img.Bounds().Dy())
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, b, _ := img.At(img.Bounds().Min.X+x, img.Bounds().Min.Y+y).RGBA()
			i := 3 * (y*out.W + x)
			out.Pix[i], out.Pix[i+1], out.Pix[i+2] = uint8(r>>8), uint8(g>>8), uint8(b>>8)
		}
	}
	return out
}

func psnrOrDie(t *testing.T, a, b *Image) float64 {
	t.Helper()
	v, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestStdlibDecodesEveryEncodePath(t *testing.T) {
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	src := images[0]

	cases := []struct {
		name        string
		encode      func() ([]byte, error)
		minFidelity float64 // dB vs source
	}{
		{"Codec.Encode", func() ([]byte, error) { return codec.Encode(src) }, 15},
		{"EncodeJPEG-qf85", func() ([]byte, error) { return EncodeJPEG(src, 85) }, 22},
		{"EncodeJPEG-qf100", func() ([]byte, error) { return EncodeJPEG(src, 100) }, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := tc.encode()
			if err != nil {
				t.Fatal(err)
			}
			stdImg, err := jpeg.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("stdlib cannot decode the stream: %v", err)
			}
			if stdImg.Bounds().Dx() != src.W || stdImg.Bounds().Dy() != src.H {
				t.Fatalf("stdlib decoded %dx%d, want %dx%d",
					stdImg.Bounds().Dx(), stdImg.Bounds().Dy(), src.W, src.H)
			}
			std := stdlibToRGB(t, stdImg)
			if got := psnrOrDie(t, src, std); got < tc.minFidelity {
				t.Fatalf("stdlib round-trip PSNR %.1f dB < %.1f dB", got, tc.minFidelity)
			}
			// Both decoders read the same stream: they must agree closely.
			ours, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := psnrOrDie(t, ours, std); got < 30 {
				t.Fatalf("our decoder and stdlib disagree: %.1f dB", got)
			}
		})
	}
}

// TestSubsamplingMatrixInterop drives the full chroma matrix through
// the public encode API: every layout must emit plain baseline JFIF
// that stdlib decodes at the right geometry, and the two decoders must
// agree closely on the same stream — the property the 4:2:2-family
// upsampling bug silently broke.
func TestSubsamplingMatrixInterop(t *testing.T) {
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	src := images[0]
	for _, sub := range []Subsampling{Sub444, Sub420, Sub422, Sub440, Sub411} {
		t.Run(sub.String(), func(t *testing.T) {
			data, err := codec.EncodeWith(src, EncodeOptions{Subsampling: sub})
			if err != nil {
				t.Fatal(err)
			}
			stdImg, err := jpeg.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("stdlib cannot decode the %v stream: %v", sub, err)
			}
			if stdImg.Bounds().Dx() != src.W || stdImg.Bounds().Dy() != src.H {
				t.Fatalf("stdlib decoded %dx%d, want %dx%d",
					stdImg.Bounds().Dx(), stdImg.Bounds().Dy(), src.W, src.H)
			}
			ours, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := psnrOrDie(t, ours, stdlibToRGB(t, stdImg)); got < 30 {
				t.Fatalf("our decoder and stdlib disagree on the %v stream: %.1f dB", sub, got)
			}
			// The layout must survive coefficient-domain requantization.
			requant, err := codec.Requantize(data, RequantizeOptions{})
			if err != nil {
				t.Fatalf("requantize of the %v stream: %v", sub, err)
			}
			if _, err := jpeg.Decode(bytes.NewReader(requant)); err != nil {
				t.Fatalf("stdlib rejects the requantized %v stream: %v", sub, err)
			}
		})
	}
}

func TestStdlibDecodesGrayStream(t *testing.T) {
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := toGray(images[0])
	data, err := codec.EncodeGray(g)
	if err != nil {
		t.Fatal(err)
	}
	stdImg, err := jpeg.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stdlib cannot decode the grayscale stream: %v", err)
	}
	if _, ok := stdImg.(*image.Gray); !ok {
		t.Fatalf("stdlib decoded %T, want *image.Gray", stdImg)
	}
	if stdImg.Bounds().Dx() != g.W || stdImg.Bounds().Dy() != g.H {
		t.Fatalf("stdlib decoded %dx%d, want %dx%d", stdImg.Bounds().Dx(), stdImg.Bounds().Dy(), g.W, g.H)
	}
	ours, err := DecodeGray(data)
	if err != nil {
		t.Fatal(err)
	}
	var worst int
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			sr, _, _, _ := stdImg.At(x, y).RGBA()
			d := int(uint8(sr>>8)) - int(ours.Pix[y*ours.W+x])
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	// Same stream, same quantized coefficients: only IDCT rounding differs.
	if worst > 2 {
		t.Fatalf("decoders disagree by up to %d grey levels on the same stream", worst)
	}
}

func TestDecodeStdlibEncodedStreams(t *testing.T) {
	images, _ := calibrationSet(t)
	src := images[0]

	for _, ratio := range []struct {
		name    string
		quality int
		minDB   float64
	}{
		{"q90", 90, 22},
		{"q60", 60, 18},
	} {
		t.Run(ratio.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := jpeg.Encode(&buf, src.ToImage(), &jpeg.Options{Quality: ratio.quality}); err != nil {
				t.Fatal(err)
			}
			back, err := Decode(buf.Bytes())
			if err != nil {
				t.Fatalf("cannot decode a stdlib-encoded JPEG: %v", err)
			}
			if back.W != src.W || back.H != src.H {
				t.Fatalf("decoded %dx%d, want %dx%d", back.W, back.H, src.W, src.H)
			}
			if got := psnrOrDie(t, src, back); got < ratio.minDB {
				t.Fatalf("round-trip PSNR %.1f dB < %.1f dB", got, ratio.minDB)
			}
			// Cross-check against the stdlib's own reading of its stream.
			stdImg, err := jpeg.Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := psnrOrDie(t, back, stdlibToRGB(t, stdImg)); got < 30 {
				t.Fatalf("our decoder disagrees with stdlib on its own stream: %.1f dB", got)
			}
		})
	}

	t.Run("gray", func(t *testing.T) {
		g := toGray(src)
		gray := image.NewGray(image.Rect(0, 0, g.W, g.H))
		copy(gray.Pix, g.Pix) // stride == width for a fresh image.Gray
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, gray, &jpeg.Options{Quality: 90}); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeGray(buf.Bytes())
		if err != nil {
			t.Fatalf("cannot decode a stdlib-encoded grayscale JPEG: %v", err)
		}
		if back.W != g.W || back.H != g.H {
			t.Fatalf("decoded %dx%d, want %dx%d", back.W, back.H, g.W, g.H)
		}
		v, err := imgutil.PSNR(g.Pix, back.Pix)
		if err != nil {
			t.Fatal(err)
		}
		if v < 22 {
			t.Fatalf("gray round-trip PSNR %.1f dB", v)
		}
	})
}
