package jpegcodec

// Reference equivalence: the codec's one transform engine — the AAN
// butterflies, with their scale factors folded into the quantization
// divisors — must emit exactly the coefficients, and so exactly the
// streams, that quantizing the textbook DCT (dct.ForwardReference) by
// the raw integer steps produces. The two differ by ~1e-12 per
// coefficient before rounding, and the tie-snapping quantizer rounds
// both sides of that difference to the same integer. Decode
// reconstructs pixels with no quantizer downstream, so there the engine
// may differ from the textbook inverse by one grey level.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/qtable"
)

// randTile fills an 8×8 sample tile with uniform noise — the worst case
// for knife-edge quantizer ties, since integer-valued inputs make the
// rational DCT bands (u,v ∈ {0,4}) land on exact multiples of 1/8.
func randTile(rng *rand.Rand) [64]uint8 {
	var tile [64]uint8
	for i := range tile {
		tile[i] = uint8(rng.Intn(256))
	}
	return tile
}

func TestBlockCoefficientsEngineEquivalence(t *testing.T) {
	tables := []qtable.Table{
		qtable.StdLuminance,
		qtable.StdChrominance,
		qtable.MustScale(qtable.StdLuminance, 100), // all-ones: maximal tie exposure
		qtable.Uniform(16),
	}
	rng := rand.New(rand.NewSource(31))
	var fwd qtable.FwdScaled
	for trial := 0; trial < 2000; trial++ {
		tile := randTile(rng)
		tbl := tables[trial%len(tables)]
		tbl.FwdScaledInto(&fwd)
		got := blockCoefficients(&tile, &fwd, nil)
		want := referenceCoefficients(&tile, &tbl, nil)
		if got != want {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: band %d quantizes to %d, reference DCT gives %d",
						trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEncodeEngineStreamEquivalence(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"defaults-420", Options{}},
		{"444", Options{Subsampling: Sub444}},
		{"optimized-huffman", Options{OptimizeHuffman: true}},
		{"restart", Options{RestartInterval: 2}},
		{"qf100", Options{
			LumaTable:   qtable.MustScale(qtable.StdLuminance, 100),
			ChromaTable: qtable.MustScale(qtable.StdChrominance, 100),
		}},
	}
	sizes := []struct{ w, h int }{{64, 64}, {17, 9}, {8, 8}, {33, 40}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for si, sz := range sizes {
				img := testImageRGB(sz.w, sz.h, int64(100+si))
				got := encodeToBytes(t, img, &tc.opts)
				want := referenceEncodeRGB(t, img, &tc.opts)
				if !bytes.Equal(got, want) {
					t.Fatalf("%dx%d: stream differs from the reference-DCT stream (%d vs %d bytes)",
						sz.w, sz.h, len(got), len(want))
				}
			}
		})
	}
}

func TestEncodeGrayEngineStreamEquivalence(t *testing.T) {
	img := testImageGray(48, 31, 7)
	var got bytes.Buffer
	if err := EncodeGray(&got, img, nil); err != nil {
		t.Fatal(err)
	}
	if want := referenceEncodeGray(t, img, nil); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("gray stream differs from the reference-DCT stream (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestRequantizeEngineStreamEquivalence holds requantization to its
// definition: every coefficient of the output stream is the source
// coefficient dequantized by the coded step and requantized by the new
// one — no transform runs on this path.
func TestRequantizeEngineStreamEquivalence(t *testing.T) {
	img := testImageRGB(40, 40, 9)
	src, err := Decode(bytes.NewReader(encodeToBytes(t, img, &Options{})))
	if err != nil {
		t.Fatal(err)
	}
	newLuma := qtable.MustScale(qtable.StdLuminance, 40)
	newChroma := qtable.MustScale(qtable.StdChrominance, 40)
	var buf bytes.Buffer
	if err := Requantize(&buf, src, newLuma, newChroma, &Options{OptimizeHuffman: true}); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < src.Components; ci++ {
		oldTbl, newTbl := src.QuantTables[src.planes[ci].tq], newLuma
		if ci > 0 {
			newTbl = newChroma
		}
		srcCoefs, _, _ := src.Coefficients(ci)
		outCoefs, _, _ := out.Coefficients(ci)
		for bi := range srcCoefs {
			for i, c := range srcCoefs[bi] {
				want := quantize(float64(c)*float64(oldTbl[i]), float64(newTbl[i]))
				if outCoefs[bi][i] != want {
					t.Fatalf("component %d block %d band %d: requantized to %d, want %d",
						ci, bi, i, outCoefs[bi][i], want)
				}
			}
		}
	}
}

// TestDecodeEngineAgreement bounds the decode side: every component
// plane the engine reconstructs may differ from the textbook inverse DCT
// of the same coefficients only by the one grey level rounding can move.
func TestDecodeEngineAgreement(t *testing.T) {
	var gray bytes.Buffer
	if err := EncodeGray(&gray, testImageGray(41, 23, 12), nil); err != nil {
		t.Fatal(err)
	}
	streams := map[string][]byte{
		"420":  encodeToBytes(t, testImageRGB(56, 35, 13), &Options{}),
		"444":  encodeToBytes(t, testImageRGB(24, 17, 14), &Options{Subsampling: Sub444}),
		"gray": gray.Bytes(),
	}
	for name, stream := range streams {
		var dec Decoded
		if err := DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
			t.Fatal(err)
		}
		dec.reconstruct() // the planes are read directly below
		for ci := 0; ci < dec.Components; ci++ {
			want := referencePlane(t, &dec, ci)
			if worst := maxPixelDelta(t, dec.planes[ci].pix, want); worst > 1 {
				t.Fatalf("%s component %d: decode differs from the reference IDCT by up to %d grey levels",
					name, ci, worst)
			}
		}
	}
}

// TestDecodeIntoReuseMatchesFreshDecode drives one Decoded through a
// sequence of different streams (shrinking and growing, color and gray)
// and checks every reused decode against a fresh one.
func TestDecodeIntoReuseMatchesFreshDecode(t *testing.T) {
	streams := [][]byte{
		encodeToBytes(t, testImageRGB(64, 48, 1), &Options{}),
		encodeToBytes(t, testImageRGB(16, 16, 2), &Options{Subsampling: Sub444}),
		encodeToBytes(t, testImageRGB(80, 24, 3), &Options{OptimizeHuffman: true}),
	}
	{
		var buf bytes.Buffer
		if err := EncodeGray(&buf, testImageGray(33, 57, 4), nil); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, buf.Bytes())
	}

	var reused Decoded
	for round := 0; round < 2; round++ {
		for si, stream := range streams {
			if err := DecodeInto(bytes.NewReader(stream), &reused, nil); err != nil {
				t.Fatalf("round %d stream %d: %v", round, si, err)
			}
			fresh, err := Decode(bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			if reused.W != fresh.W || reused.H != fresh.H || reused.Components != fresh.Components {
				t.Fatalf("round %d stream %d: metadata %dx%d/%d, want %dx%d/%d",
					round, si, reused.W, reused.H, reused.Components, fresh.W, fresh.H, fresh.Components)
			}
			if !bytes.Equal(reused.RGB().Pix, fresh.RGB().Pix) {
				t.Fatalf("round %d stream %d: reused decode diverges from fresh decode", round, si)
			}
			for ci := 0; ci < fresh.Components; ci++ {
				rc, rx, ry := reused.Coefficients(ci)
				fc, fx, fy := fresh.Coefficients(ci)
				if rx != fx || ry != fy || len(rc) != len(fc) {
					t.Fatalf("round %d stream %d comp %d: grid %dx%d/%d, want %dx%d/%d",
						round, si, ci, rx, ry, len(rc), fx, fy, len(fc))
				}
				for bi := range fc {
					if rc[bi] != fc[bi] {
						t.Fatalf("round %d stream %d comp %d block %d: coefficients diverge", round, si, ci, bi)
					}
				}
			}
		}
	}
}

// TestDecodeIntoRejectsBadInput covers the new API's argument checks.
func TestDecodeIntoRejectsBadInput(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(8, 8, 5), nil)
	if err := DecodeInto(bytes.NewReader(stream), nil, nil); err == nil {
		t.Fatal("nil destination must be rejected")
	}
}

// TestDecodedReset verifies Reset clears content but keeps capacity.
func TestDecodedReset(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(32, 32, 8), nil)
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
		t.Fatal(err)
	}
	dec.RGB() // pixels reconstruct on first read; grow the planes
	pixCap := cap(dec.planes[0].pix)
	if pixCap == 0 {
		t.Fatal("RGB left the luma plane unallocated")
	}
	dec.Reset()
	if dec.W != 0 || dec.H != 0 || dec.Components != 0 || len(dec.QuantTables) != 0 {
		t.Fatalf("Reset left metadata behind: %+v", dec)
	}
	if len(dec.planes[0].pix) != 0 || cap(dec.planes[0].pix) != pixCap {
		t.Fatalf("Reset must keep buffer capacity (len=%d cap=%d, want 0/%d)",
			len(dec.planes[0].pix), cap(dec.planes[0].pix), pixCap)
	}
}
