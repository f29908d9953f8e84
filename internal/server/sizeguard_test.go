package server

// Regression tests for the image-size guard that stands between hostile
// request bodies and header-sized allocations: imgutil.DecodeImage's
// pixel cap, which parseImage maps onto the image_too_large code. The
// guard has had real bugs: the PNG check computed width×height in int
// (overflowing on 32-bit platforms for dimensions a PNG header can
// legally declare), the PNM digit loop stopped mid-token once the
// running value passed the cap, handing the remaining digits of the SAME
// number to the next field — and, with a cap near MaxInt, silently
// wrapped on overflow so a 20-digit width could masquerade as a tiny
// in-bounds one — and the guard once tokenized a PNM header differently
// from the reader behind it. The tests below pin the outcome of
// parseImage, where the error code (not just the HTTP status) is visible.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"strings"
	"testing"
)

// rgbPixels is the pixel payload of an n-pixel PPM.
func rgbPixels(n int) string { return strings.Repeat("\x80\x40\x20", n) }

func guardServer(tb testing.TB, maxPixels int) *Server {
	tb.Helper()
	s, err := New(Options{Framework: testFramework(), MaxPixels: maxPixels})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// wantGuardError asserts an apiError with the given machine code (empty
// code means "no error").
func wantGuardError(tb testing.TB, err error, code string) {
	tb.Helper()
	if code == "" {
		if err != nil {
			tb.Fatalf("unexpected error: %v", err)
		}
		return
	}
	var ae *apiError
	if !errors.As(err, &ae) {
		tb.Fatalf("error %v (%T), want *apiError %q", err, err, code)
	}
	if ae.code != code {
		tb.Fatalf("error code %q (%v), want %q", ae.code, err, code)
	}
}

// pngHeader builds the 8-byte signature plus a CRC-valid IHDR chunk
// declaring the given dimensions — enough for png.DecodeConfig, which is
// all the guard reads. The body is deliberately truncated after IHDR: if
// the guard ever let these dimensions through to png.Decode, the error
// would classify as bad_image instead of image_too_large.
func pngHeader(width, height uint32) []byte {
	var b bytes.Buffer
	b.Write([]byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1A, '\n'})
	ihdr := make([]byte, 0, 17)
	ihdr = append(ihdr, 'I', 'H', 'D', 'R')
	ihdr = binary.BigEndian.AppendUint32(ihdr, width)
	ihdr = binary.BigEndian.AppendUint32(ihdr, height)
	ihdr = append(ihdr, 8, 2, 0, 0, 0) // 8-bit RGB, default methods
	binary.Write(&b, binary.BigEndian, uint32(13))
	b.Write(ihdr)
	binary.Write(&b, binary.BigEndian, crc32.ChecksumIEEE(ihdr))
	return b.Bytes()
}

func TestPNGPixelCapAdversarialHeaders(t *testing.T) {
	s := guardServer(t, 1<<24)
	cases := []struct {
		name          string
		width, height uint32
		code          string
	}{
		// 2^16 × 2^16 pixels: the product is exactly 2^32, which wraps
		// to 0 in 32-bit int arithmetic — the overflow that let a tiny
		// body through the old w*h > MaxPixels comparison on 32-bit
		// platforms.
		{"wrap-2pow32", 1 << 16, 1 << 16, "image_too_large"},
		// 92682² = 8589953124, which wraps to 18532 in 32-bit int — a
		// value comfortably under the cap, so the old comparison would
		// have accepted ~8.6 gigapixels on a 32-bit platform.
		{"wrap-to-small", 92682, 92682, "image_too_large"},
		// A single hostile dimension with the other at 1: caught by the
		// per-dimension bound before any product is formed.
		{"huge-width", 1<<31 - 1, 1, "image_too_large"},
		{"huge-height", 1, 1<<31 - 1, "image_too_large"},
		// One pixel over the cap through a skinny layout.
		{"just-over", 1<<24 + 1, 1, "image_too_large"},
		// In-bounds dimensions sail past the guard and fail later, on
		// the truncated pixel data — proving the guard, not a parse
		// error, produced the rejections above.
		{"in-bounds", 64, 64, "bad_image"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.parseImage(pngHeader(tc.width, tc.height))
			wantGuardError(t, err, tc.code)
		})
	}
}

func TestCheckPNMDimsTokenParsing(t *testing.T) {
	cases := []struct {
		name      string
		maxPixels int
		header    string
		code      string // "" = accept
	}{
		// The original bug: the digit loop broke as soon as the running
		// value passed the cap, so the tail of the width token was
		// re-parsed as the height and the real height was never read.
		// The whole token must be consumed and the header rejected for
		// its size.
		{"oversized-width-token", 100, "P6\n4294967296 2\n255\n", "image_too_large"},
		{"oversized-height-token", 100, "P6\n2 4294967296\n255\n", "image_too_large"},
		// With the cap at MaxInt the old loop never hit its early break,
		// so v*10 wrapped: 2^64+4 parsed as width 4 and the guard
		// accepted 4×4 for a 20-digit dimension. Saturation keeps the
		// rejection.
		{"overflow-wraps-to-small", math.MaxInt, "P6\n18446744073709551620 4\n255\n", "image_too_large"},
		{"overflow-wraps-to-zero", math.MaxInt, "P6\n18446744073709551616 4\n255\n", "image_too_large"},
		// Comments may interleave the tokens arbitrarily.
		{"comment-laden", 10000, "P6\n# a comment\n63 # split\n# more\n63\n255\n" + rgbPixels(63*63), ""},
		{"comment-before-magic-space", 10000, "P6 # c\n8 8\n255\n" + rgbPixels(8*8), ""},
		// Oversized-by-product with individually sane tokens.
		{"product-over-cap", 1000, "P6\n100 11\n255\n", "image_too_large"},
		{"boundary-exact", 1000, "P6\n100 10\n255\n" + rgbPixels(100*10), ""},
		{"zero-width", 1000, "P6\n0 5\n255\n", "image_too_large"},
		// Truncation and garbage still classify as malformed, not as a
		// size rejection.
		{"truncated-one-field", 1000, "P6\n16", "bad_image"},
		{"truncated-empty", 1000, "P6\n", "bad_image"},
		{"garbage", 1000, "P6\nxy 16\n255\n", "bad_image"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := guardServer(t, tc.maxPixels)
			_, err := s.parseImage([]byte(tc.header))
			wantGuardError(t, err, tc.code)
		})
	}
}

// TestBatchPNMCommentBomb posts a 28-byte PPM as a /v1/batch part. Its
// width ends at a comment, so it declares 1×1 with maxval 10¹⁴; when the
// size guard and the reader tokenized headers apart, the reader took it
// for 11×10¹⁴ pixels and panicked in makeslice on a pipeline worker,
// where nothing recovers, and the whole process died. It must fail as
// one item.
func TestBatchPNMCommentBomb(t *testing.T) {
	_, ts := newTestServer(t, Options{BatchWorkers: 2})
	items := [][]byte{ppmBody(t, testImages(t, 1)[0]), []byte("P6\n1#\n1 100000000000000\n255\n")}
	body, ct := buildMultipart(t, items)
	resp, respBody := post(t, ts.URL+"/v1/batch?op=encode", ct, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, respBody)
	}
	if got := resp.Header.Get("X-Batch-Failed"); got != "1" {
		t.Fatalf("X-Batch-Failed %q, want 1", got)
	}
	parts := readMultipart(t, resp, respBody)
	if len(parts) != 2 || parts[0].isError || !parts[1].isError {
		t.Fatalf("%d parts; want the second, alone, failed", len(parts))
	}
}
