package deepnjpeg

// Public-surface tests for the block transform and the decode reuse
// APIs: calibration and encode must agree with the textbook DCT
// (dct.ForwardReference) on the interop images — the same tables, the
// same quantized coefficients — and the Into-variants must reproduce
// their allocating counterparts exactly.

import (
	"bytes"
	"context"
	"image/jpeg"
	"math"
	"testing"

	"repro/internal/dct"
	"repro/internal/freqstat"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/plm"
)

// transformCodec calibrates a chroma-calibrated codec on the interop
// images.
func transformCodec(t *testing.T) (*Codec, []*Image) {
	t.Helper()
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	return codec, images
}

// referenceBlock is the textbook forward DCT of the level-shifted 8×8
// block (bx, by) of a sample plane, edge-replicated.
func referenceBlock(pix []uint8, w, h, bx, by int) dct.Block {
	var tile [64]uint8
	var blk dct.Block
	imgutil.ExtractBlock(pix, w, h, bx, by, &tile)
	dct.LevelShift(tile[:], &blk)
	dct.ForwardReference(&blk)
	return blk
}

// TestTransformEnginesShareCalibratedTables holds calibration to the
// textbook DCT: statistics accumulated from dct.ForwardReference
// coefficients, fed through the same segmentation and mapping, must
// yield exactly the tables Calibrate derives with the codec's engine.
func TestTransformEnginesShareCalibratedTables(t *testing.T) {
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	luma, chroma := freqstat.NewAccumulator(), freqstat.NewAccumulator()
	add := func(acc *freqstat.Accumulator, pix []uint8, w, h int) {
		g := imgutil.GridFor(w, h)
		for by := 0; by < g.BlocksY; by++ {
			for bx := 0; bx < g.BlocksX; bx++ {
				blk := referenceBlock(pix, w, h, bx, by)
				acc.AddBlock(&blk)
			}
		}
	}
	for _, i := range freqstat.StratifiedIndices(labels, 0) {
		im := images[i]
		var p imgutil.Planes
		p.FromRGB(im)
		add(luma, p.Y, im.W, im.H)
		add(chroma, p.Cb, im.W, im.H)
		add(chroma, p.Cr, im.W, im.H)
	}
	lumaStats, err := luma.Stats()
	if err != nil {
		t.Fatal(err)
	}
	chromaStats, err := chroma.Stats()
	if err != nil {
		t.Fatal(err)
	}
	seg := freqstat.SegmentByMagnitude(lumaStats)
	params, err := plm.Fit(plm.PaperAnchors(), seg.T1, seg.T2, lumaStats.MaxStd())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		stats *freqstat.Stats
		got   QuantTable
	}{{"luma", lumaStats, codec.LumaTable()}, {"chroma", chromaStats, codec.ChromaTable()}} {
		want, err := params.Table(tc.stats)
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != want {
			t.Fatalf("%s table differs from the one the reference-DCT statistics give:\n%v\nwant\n%v", tc.name, tc.got, want)
		}
	}
}

// quantizeReference rounds c/q half away from zero — the T.81
// quantizer — treating values within 1e-9 of a half as exact halves, so
// the textbook transform's own rounding error cannot flip a tie.
func quantizeReference(c, q float64) int32 {
	v := math.Abs(c / q)
	m := math.Floor(v + 0.5)
	if v+0.5-m > 1-1e-9 {
		m++
	}
	return int32(math.Copysign(m, c))
}

// requireReferenceCoefficients decodes stream and checks every
// quantized coefficient of every component against quantizeReference of
// the textbook DCT of the encoder's input plane for that component.
func requireReferenceCoefficients(t *testing.T, name string, stream []byte, planes [][]uint8, dims [][2]int, tables []QuantTable) {
	t.Helper()
	dec, err := jpegcodec.Decode(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	for ci, pix := range planes {
		coefs, blocksX, blocksY := dec.Coefficients(ci)
		for by := 0; by < blocksY; by++ {
			for bx := 0; bx < blocksX; bx++ {
				ref := referenceBlock(pix, dims[ci][0], dims[ci][1], bx, by)
				got := &coefs[by*blocksX+bx]
				for i := range ref {
					if want := quantizeReference(ref[i], float64(tables[ci][i])); got[i] != want {
						t.Fatalf("%s component %d block (%d,%d) band %d: coded %d, reference DCT gives %d",
							name, ci, bx, by, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestTransformEquivalenceOnInteropImages is the golden-image half of
// the reference property: every stream the interop suite validates
// against the stdlib decoder carries exactly the quantized textbook-DCT
// coefficients of its input, for color (4:2:0) and grayscale encodes.
// With the AAN scale factors folded into the quantization tables, this
// corpus also pins that the fused one-pass hot loop cannot be told apart
// from the two-pass textbook formulation by a single coefficient — and
// that its output remains plain baseline JFIF to the stdlib decoder.
func TestTransformEquivalenceOnInteropImages(t *testing.T) {
	codec, images := transformCodec(t)
	luma, chroma := codec.LumaTable(), codec.ChromaTable()
	for i, img := range images {
		stream, err := codec.Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jpeg.Decode(bytes.NewReader(stream)); err != nil {
			t.Fatalf("image %d: stdlib cannot decode the stream: %v", i, err)
		}
		var p imgutil.Planes
		p.FromRGB(img)
		cb, cw, ch := imgutil.DownsampleInto(nil, p.Cb, img.W, img.H, 2, 2)
		cr, _, _ := imgutil.DownsampleInto(nil, p.Cr, img.W, img.H, 2, 2)
		requireReferenceCoefficients(t, "color", stream, [][]uint8{p.Y, cb, cr},
			[][2]int{{img.W, img.H}, {cw, ch}, {cw, ch}}, []QuantTable{luma, chroma, chroma})

		g := img.ToGray()
		gs, err := codec.EncodeGray(g)
		if err != nil {
			t.Fatal(err)
		}
		requireReferenceCoefficients(t, "gray", gs, [][]uint8{g.Pix}, [][2]int{{g.W, g.H}}, []QuantTable{luma})
	}
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	codec, images := transformCodec(t)
	stream, err := codec.Encode(images[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh (nil dst) and reused decodes of the same stream.
	got, err := DecodeInto(nil, stream, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("DecodeInto(nil) diverges from Decode")
	}
	reuse := NewImage(1, 1) // deliberately too small; must grow
	got2, err := DecodeInto(reuse, stream, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got2 != reuse {
		t.Fatal("DecodeInto must return the reuse buffer it filled")
	}
	if !bytes.Equal(got2.Pix, want.Pix) {
		t.Fatal("DecodeInto(reuse) diverges from Decode")
	}
}

func TestDecodeBatchIntoMatchesDecodeBatch(t *testing.T) {
	codec, images := transformCodec(t)
	streams, err := codec.EncodeBatch(context.Background(), images, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeBatch(context.Background(), streams, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// nil dst allocates, non-nil dst is reused and returned.
	got, err := DecodeBatchInto(context.Background(), streams, nil, BatchOptions{}, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]*Image, len(streams))
	for i := range dst {
		dst[i] = NewImage(1, 1)
	}
	reused, err := DecodeBatchInto(context.Background(), streams, dst, BatchOptions{Workers: 2}, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(reused) != len(want) {
		t.Fatalf("batch lengths diverge: %d/%d/%d", len(got), len(reused), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Pix, want[i].Pix) {
			t.Fatalf("item %d: DecodeBatchInto(nil dst) diverges from DecodeBatch", i)
		}
		if reused[i] != dst[i] {
			t.Fatalf("item %d: DecodeBatchInto must fill the provided buffers", i)
		}
		if !bytes.Equal(reused[i].Pix, want[i].Pix) {
			t.Fatalf("item %d: DecodeBatchInto(reused dst) diverges from DecodeBatch", i)
		}
	}
	// Mismatched reuse-slice length is an error, not a silent reallocation.
	if _, err := DecodeBatchInto(context.Background(), streams, dst[:1], BatchOptions{}, DecodeOptions{}); err == nil {
		t.Fatal("short dst slice must be rejected")
	}
}
