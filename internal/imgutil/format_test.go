package imgutil

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestPPMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	im := randRGB(rng, 13, 9)
	var buf bytes.Buffer
	if err := EncodeImage(&buf, im, "ppm"); err != nil {
		t.Fatal(err)
	}
	const header = "P6\n13 9\n255\n"
	data := buf.Bytes()
	if !bytes.Equal(data, append([]byte(header), im.Pix...)) {
		t.Fatalf("PPM body starts %q, want %q and the pixels", data[:len(header)], header)
	}
	back, err := DecodeImage(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != im.W || back.H != im.H || !bytes.Equal(back.Pix, im.Pix) {
		t.Fatal("PPM round trip mismatch")
	}
	if &back.Pix[0] != &data[len(header)] || cap(back.Pix) != len(im.Pix) {
		t.Fatal("decoded PPM pixels do not alias the body")
	}
}

func TestPGMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randGray(rng, 5, 11)
	var buf bytes.Buffer
	if err := EncodeImage(&buf, g.ToRGB(), "pgm"); err != nil {
		t.Fatal(err)
	}
	const header = "P5\n5 11\n255\n"
	if !bytes.Equal(buf.Bytes(), append([]byte(header), g.Pix...)) {
		t.Fatalf("PGM body starts %q, want %q and the pixels", buf.Bytes()[:len(header)], header)
	}
	back, err := DecodeImage(buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != g.W || back.H != g.H || !bytes.Equal(back.Pix, g.ToRGB().Pix) {
		t.Fatal("PGM round trip mismatch")
	}
}

func TestPNMHeaderComments(t *testing.T) {
	data := "P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04"
	im, err := DecodeImage([]byte(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 2 || im.H != 2 || im.Pix[9] != 4 {
		t.Fatalf("parsed %+v", im)
	}
}

func TestPNMBadInputs(t *testing.T) {
	bad := []string{
		"P5\n0 2\n255\n",         // zero width
		"P5\n2 2\n65535\n",       // wrong maxval
		"P6\n2 2\n255\nxx",       // short pixels
		"P7\n2 2\n255\n\x00\x00", // bad magic
	}
	for i, s := range bad {
		if _, err := DecodeImage([]byte(s), 0); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestExceedsPixelCapOverflowSafe(t *testing.T) {
	// The division form must be exact at the boundary and immune to
	// overflow even when both dimensions and the cap are at the int
	// range's edge.
	cases := []struct {
		w, h, cap int
		want      bool
	}{
		{100, 100, 10000, false},
		{100, 101, 10000, true},
		{1, 10000, 10000, false},
		{0, 5, 10000, true},
		{5, -1, 10000, true},
		{math.MaxInt, math.MaxInt, math.MaxInt, true},
		{math.MaxInt, 1, math.MaxInt, false},
		{1 << 16, 1 << 16, 1 << 24, true},
	}
	for _, tc := range cases {
		if got := ExceedsPixelCap(tc.w, tc.h, tc.cap); got != tc.want {
			t.Errorf("ExceedsPixelCap(%d, %d, %d) = %v, want %v", tc.w, tc.h, tc.cap, got, tc.want)
		}
	}
}

// errKind names a DecodeImage error's class the way the server maps it
// onto its error codes.
func errKind(err error) string {
	var tooLarge *TooLargeError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrUnsupportedImage):
		return "unsupported"
	case errors.As(err, &tooLarge):
		return "too large"
	}
	return "bad"
}

type decodeCase struct {
	name      string
	input     []byte
	maxPixels int // ≤ 0: no cap
	want      *RGB
	wantErr   string // an errKind; "" = accept
}

// appendPNGChunk appends one PNG chunk: length, type, data and CRC.
func appendPNGChunk(b []byte, typ string, data []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	start := len(b)
	b = append(append(b, typ...), data...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// emptyIDATPNG is a 68-byte PNG whose IHDR declares a 4096×4096 8-bit
// RGBA image and whose one IDAT holds a zlib stream of no bytes.
func emptyIDATPNG() []byte {
	var z bytes.Buffer
	zlib.NewWriter(&z).Close()
	ihdr := binary.BigEndian.AppendUint32(nil, 4096)
	ihdr = binary.BigEndian.AppendUint32(ihdr, 4096)
	ihdr = append(ihdr, 8, 6, 0, 0, 0) // depth, color type RGBA, compression, filter, interlace
	b := appendPNGChunk([]byte("\x89PNG\r\n\x1a\n"), "IHDR", ihdr)
	b = appendPNGChunk(b, "IDAT", z.Bytes())
	return appendPNGChunk(b, "IEND", nil)
}

// decodeCases are TestDecodeImage's rows and FuzzDecodeImage's seeds.
func decodeCases(tb testing.TB) []decodeCase {
	tb.Helper()
	rgb := &RGB{W: 2, H: 1, Pix: []uint8{1, 2, 3, 4, 5, 6}}
	var pngBody bytes.Buffer
	if err := png.Encode(&pngBody, rgb.ToImage()); err != nil {
		tb.Fatal(err)
	}
	// A two-color palette encodes at one bit per pixel, so its rows of
	// zeros deflate far below an 8-bit image's minimum.
	const sparseSide = 512
	var sparseBody bytes.Buffer
	sparse := image.NewPaletted(image.Rect(0, 0, sparseSide, sparseSide), color.Palette{color.Black, color.White})
	if err := png.Encode(&sparseBody, sparse); err != nil {
		tb.Fatal(err)
	}
	if sparseBody.Len() > sparseSide*(1+sparseSide)/deflateMaxRatio {
		tb.Fatalf("the %d-byte 1-bit PNG would fit an 8-bit bound; it tests nothing", sparseBody.Len())
	}
	gray := &RGB{W: 2, H: 1, Pix: []uint8{'A', 'A', 'A', 'B', 'B', 'B'}}
	return []decodeCase{
		{name: "ppm", input: []byte("P6\n2 1\n255\n\x01\x02\x03\x04\x05\x06"), want: rgb},
		{name: "pgm", input: []byte("P5\n2 1\n255\nAB"), want: gray},
		{name: "png", input: pngBody.Bytes(), want: rgb},
		{name: "png-over-cap", input: pngBody.Bytes(), maxPixels: 1, wantErr: "too large"},
		{name: "png-truncated", input: pngBody.Bytes()[:40], wantErr: "bad"},
		// png.Decode allocated 64.1 MiB for this body before it failed on
		// the missing pixel data; 68 bytes inflate to at most 70,176.
		{name: "png-empty-idat-4096x4096", input: emptyIDATPNG(), wantErr: "bad"},
		{name: "png-empty-idat-4096x4096-capped", input: emptyIDATPNG(), maxPixels: 1 << 24, wantErr: "bad"},
		{name: "png-1-bit-sparse", input: sparseBody.Bytes(), want: NewRGB(sparseSide, sparseSide)},
		{name: "at-cap", input: []byte("P5\n2 1\n255\nAB"), maxPixels: 2, want: gray},
		{name: "pixel-bytes-past-the-image-ignored", input: []byte("P5\n2 1\n255\nABCD"), want: gray},
		// A comment is whitespace, wherever it sits: it ends a number's
		// digits and never joins two numbers into one.
		{name: "comments-between-tokens", input: []byte("P5#m\n2#w\n#x\r1 # h\n255\nAB"), want: gray},
		// The width ends at the comment, so these are 1×1 images with an
		// unsupported maxval. A second header parser that joined the
		// numbers around the comment read 11×10¹⁴ and panicked in
		// makeslice, or 11×2·10⁶ and allocated 66 MB.
		{name: "comment-after-width-capped", input: []byte("P6\n1#\n1 100000000000000\n255\n"), maxPixels: 1 << 20, wantErr: "bad"},
		{name: "comment-after-width-uncapped", input: []byte("P6\n1#\n1 100000000000000\n255\n"), wantErr: "bad"},
		{name: "comment-after-width-2m-capped", input: []byte("P6\n1#\n1 2000000\n255\n"), maxPixels: 1 << 20, wantErr: "bad"},
		{name: "comment-after-width-2m-uncapped", input: []byte("P6\n1#\n1 2000000\n255\n"), wantErr: "bad"},
		{name: "int32-dims-uncapped", input: []byte("P6\n2147483647 2147483647\n255\n"), wantErr: "bad"},
		{name: "int32-dims-capped", input: []byte("P6\n2147483647 2147483647\n255\n"), maxPixels: 1 << 24, wantErr: "too large"},
		{name: "saturating-width", input: []byte("P6\n184467440737095516160000 2\n255\n"), maxPixels: math.MaxInt, wantErr: "too large"},
		{name: "saturating-width-uncapped", input: []byte("P6\n184467440737095516160000 2\n255\n"), wantErr: "bad"},
		{name: "saturating-maxval", input: []byte("P5\n1 1\n18446744073709551616255\nA"), wantErr: "bad"},
		{name: "maxval-65535", input: []byte("P5\n1 1\n65535\nAA"), wantErr: "bad"},
		{name: "maxval-1", input: []byte("P5\n1 1\n1\nA"), wantErr: "bad"},
		{name: "zero-width-capped", input: []byte("P5\n0 1\n255\n"), maxPixels: 100, wantErr: "too large"},
		{name: "zero-height-uncapped", input: []byte("P5\n1 0\n255\n"), wantErr: "bad"},
		{name: "missing-terminator", input: []byte("P5\n1 1\n255"), wantErr: "bad"},
		{name: "comment-for-terminator", input: []byte("P5\n1 1\n255#\nA"), wantErr: "bad"},
		{name: "short-payload", input: []byte("P6\n2 1\n255\n\x01\x02\x03\x04\x05"), wantErr: "bad"},
		{name: "truncated-header", input: []byte("P6\n16"), wantErr: "bad"},
		{name: "garbage-token", input: []byte("P6\nxy 16\n255\n"), wantErr: "bad"},
		{name: "bad-magic", input: []byte("P3\n1 1\n255\n0 0 0\n"), wantErr: "unsupported"},
		{name: "gif", input: []byte("GIF89a nonsense"), wantErr: "unsupported"},
		{name: "empty", input: nil, wantErr: "unsupported"},
	}
}

func TestDecodeImage(t *testing.T) {
	for _, tt := range decodeCases(t) {
		t.Run(tt.name, func(t *testing.T) {
			got, err := DecodeImage(tt.input, tt.maxPixels)
			if kind := errKind(err); kind != tt.wantErr {
				t.Fatalf("DecodeImage() error = %v (%q), want %q", err, kind, tt.wantErr)
			}
			if tt.wantErr != "" {
				return
			}
			if got.W != tt.want.W || got.H != tt.want.H || !bytes.Equal(got.Pix, tt.want.Pix) {
				t.Errorf("DecodeImage() = %dx%d %v, want %dx%d %v", got.W, got.H, got.Pix, tt.want.W, tt.want.H, tt.want.Pix)
			}
		})
	}
}

// FuzzDecodeImage checks DecodeImage on any body under a 1<<16-pixel
// cap: it never panics; an accepted image is within the cap; an accepted
// PNM holds every pixel byte of its header, and an accepted PNG at most
// 8·1032 pixels per body byte, so the body bounds what it allocates; and
// a PNG that the inflate bound rejects is one png.Decode rejects too.
func FuzzDecodeImage(f *testing.F) {
	for _, tc := range decodeCases(f) {
		f.Add(tc.input)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPixels = 1 << 16
		img, err := DecodeImage(data, maxPixels)
		if err != nil {
			// png.Decode allocates from the header before it fails, so the
			// bound is checked against it on headers of up to 1<<20 pixels.
			if cfg, cerr := png.DecodeConfig(bytes.NewReader(data)); cerr == nil &&
				!ExceedsPixelCap(cfg.Width, cfg.Height, 1<<20) && pngExceedsBody(data, cfg.Width, cfg.Height) {
				if _, perr := png.Decode(bytes.NewReader(data)); perr == nil {
					t.Fatalf("inflate bound rejected a %dx%d PNG of %d bytes that png.Decode accepts", cfg.Width, cfg.Height, len(data))
				}
			}
			return
		}
		if ExceedsPixelCap(img.W, img.H, maxPixels) || len(img.Pix) != 3*img.W*img.H {
			t.Fatalf("accepted %dx%d image with %d pixel bytes under a %d-pixel cap", img.W, img.H, len(img.Pix), maxPixels)
		}
		var pnmBytes int
		switch string(data[:2]) {
		case "P6":
			pnmBytes = len(img.Pix)
		case "P5":
			pnmBytes = img.W * img.H
		}
		if pnmBytes > len(data) {
			t.Fatalf("accepted %s with %d pixel bytes from a %d-byte body", data[:2], pnmBytes, len(data))
		}
		if bytes.HasPrefix(data, pngMagic) && img.W*img.H > 8*deflateMaxRatio*len(data) {
			t.Fatalf("accepted a %dx%d PNG from a %d-byte body", img.W, img.H, len(data))
		}
	})
}

// TestDecodeImageAllocs pins DecodeImage on a 256×256 RGBA PNG to a
// fixed count of allocations, which png.Decode makes: FromImage reads
// each pixel through RGBA64At, where At boxed one color per pixel
// (65,557 allocations). It also pins the bytes the 68-byte
// emptyIDATPNG costs to a few KiB, where png.Decode allocated 64.1 MiB.
func TestDecodeImageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(12))
	var body bytes.Buffer
	if err := png.Encode(&body, randRGB(rng, 256, 256).ToImage()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeImage(body.Bytes(), 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeImage, 256×256 RGBA PNG: %.0f allocs/op", allocs)
	if allocs > 32 {
		t.Fatalf("DecodeImage makes %.0f allocs/op on a 256×256 PNG, want at most 32", allocs)
	}

	hostile := emptyIDATPNG()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeImage(hostile, 0)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a PNG with no pixel data")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("rejecting the %d-byte PNG allocated %d bytes, want at most 64 KiB", len(hostile), n)
	}
}
