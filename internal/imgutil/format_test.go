package imgutil

import (
	"bytes"
	"errors"
	"image/png"
	"math"
	"math/rand"
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

// decodeCases are TestDecodeImage's rows and FuzzDecodeImage's seeds.
func decodeCases(tb testing.TB) []decodeCase {
	tb.Helper()
	rgb := &RGB{W: 2, H: 1, Pix: []uint8{1, 2, 3, 4, 5, 6}}
	var pngBody bytes.Buffer
	if err := png.Encode(&pngBody, rgb.ToImage()); err != nil {
		tb.Fatal(err)
	}
	gray := &RGB{W: 2, H: 1, Pix: []uint8{'A', 'A', 'A', 'B', 'B', 'B'}}
	return []decodeCase{
		{name: "ppm", input: []byte("P6\n2 1\n255\n\x01\x02\x03\x04\x05\x06"), want: rgb},
		{name: "pgm", input: []byte("P5\n2 1\n255\nAB"), want: gray},
		{name: "png", input: pngBody.Bytes(), want: rgb},
		{name: "png-over-cap", input: pngBody.Bytes(), maxPixels: 1, wantErr: "too large"},
		{name: "png-truncated", input: pngBody.Bytes()[:40], wantErr: "bad"},
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
// cap: it never panics; an accepted image is within the cap; and an
// accepted PNM holds every pixel byte of its header, so the body bounds
// what it allocates.
func FuzzDecodeImage(f *testing.F) {
	for _, tc := range decodeCases(f) {
		f.Add(tc.input)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPixels = 1 << 16
		img, err := DecodeImage(data, maxPixels)
		if err != nil {
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
	})
}
