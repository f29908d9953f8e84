package jpegcodec

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// TestLazyPixelsOnReusedDecoded pins the lazy-pixel contract: DecodeInto
// stops at the coefficients, Requantize reads only those, and the first
// pixel read reconstructs. A fresh Decoded that only requantizes never
// even allocates its pixel planes. Then one Decoded goes through the
// three ways a batch worker uses it — pixels read, requantize only,
// every pixel reader in turn — and each read is checked against a fresh
// decode. Streams A and C share their geometry, so pixels left over
// from A would fit C's planes exactly; B is a differently sized gray
// frame whose pixels are never read. The sharded leg decodes with a
// restart fan-out, which reconstruction reuses. Last, a flat frame of
// C's geometry, every block DC-only, leaves extent 0 on every block
// before a progressive and a non-interleaved stream of C's
// coefficients decode into the same Decoded, and each must read as C:
// a stale extent would reconstruct their blocks as DC-only.
func TestLazyPixelsOnReusedDecoded(t *testing.T) {
	var gray bytes.Buffer
	if err := EncodeGray(&gray, testImageGray(40, 24, 72), &Options{RestartInterval: 1}); err != nil {
		t.Fatal(err)
	}
	a := encodeToBytes(t, testImageRGB(64, 48, 73), &Options{RestartInterval: 2})
	b := gray.Bytes()
	c := encodeToBytes(t, testImageRGB(64, 48, 74), &Options{RestartInterval: 2})
	flatImg := imgutil.NewRGB(64, 48)
	for i := range flatImg.Pix {
		flatImg.Pix[i] = uint8(40 + 70*(i%3))
	}
	flat := encodeToBytes(t, flatImg, &Options{RestartInterval: 2})
	decC, err := Decode(bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	cProg := progEncode(t, decC, stdProgressionScript, 0)
	cNonInterleaved := encodeNonInterleaved(t, decC, 0)
	for name, opts := range map[string]*DecodeOptions{
		"sequential": nil,
		"sharded":    {ShardWorkers: 2},
	} {
		var dec Decoded
		decode := func(stream []byte) {
			t.Helper()
			if err := DecodeInto(bytes.NewReader(stream), &dec, opts); err != nil {
				t.Fatal(err)
			}
		}
		requantizeOnly := func(what string) {
			t.Helper()
			var out bytes.Buffer
			if err := Requantize(&out, &dec, qtable.MustScale(qtable.StdLuminance, 50),
				qtable.MustScale(qtable.StdChrominance, 50), nil); err != nil {
				t.Fatal(err)
			}
			if !dec.pixPending {
				t.Fatalf("%s: DecodeInto+Requantize of %s reconstructed pixels", name, what)
			}
		}
		decode(b)
		requantizeOnly("B on a fresh Decoded")
		if n := cap(dec.planes[0].pix); n != 0 {
			t.Fatalf("%s: pixel plane allocated (%d bytes) without a pixel read", name, n)
		}
		decode(a)
		dec.RGBInto(nil)
		decode(b)
		requantizeOnly("B after A")
		decode(c)
		if opts != nil && dec.reconWorkers != 2 {
			t.Fatalf("%s: C decoded with fan-out %d, want 2", name, dec.reconWorkers)
		}
		fresh, err := Decode(bytes.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		wantGray, wantRGB := fresh.Gray().Pix, fresh.RGB().Pix
		if got := dec.GrayInto(nil).Pix; !bytes.Equal(got, wantGray) {
			t.Fatalf("%s: GrayInto of C differs from a fresh decode of C", name)
		}
		for i := range 2 {
			if got := dec.RGBInto(nil).Pix; !bytes.Equal(got, wantRGB) {
				t.Fatalf("%s: RGBInto #%d of C differs from a fresh decode of C", name, i+1)
			}
		}
		for what, stream := range map[string][]byte{"progressive": cProg, "non-interleaved": cNonInterleaved} {
			decode(flat)
			for i := range dec.Components {
				if slices.Max(dec.ext[i]) != 0 {
					t.Fatalf("%s: the flat frame has a block that is not DC-only", name)
				}
			}
			dec.RGBInto(nil)
			decode(stream)
			// The stream carries C's coefficients, so it must read as C.
			if got := dec.RGBInto(nil).Pix; !bytes.Equal(got, wantRGB) {
				t.Fatalf("%s: RGBInto of the %s stream after a flat frame differs from a fresh decode of C", name, what)
			}
		}
	}
}
