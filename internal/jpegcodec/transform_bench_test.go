package jpegcodec

// Benchmarks for the full encode and decode pipelines on one 256×256
// frame, for the pooled decode path and for the encode, decode and
// requantize stages. Run with:
//
//	go test ./internal/jpegcodec -run XXX -bench 'Transform|DecodePooled|EncodeStages|DecodeStages|RequantizeStages' -benchmem
//
// EncodeTransform/DecodeTransform time the whole pipeline around the
// block transform; DecodePooled isolates output-buffer reuse;
// EncodeStages, DecodeStages and RequantizeStages report the encode
// write path, the decode read path and the archive requantize stage by
// stage.

import (
	"bytes"
	"image/jpeg"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dct"
	"repro/internal/imgutil"
	"repro/internal/qtable"
)

func benchStream(b *testing.B, w, h int) []byte {
	b.Helper()
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, testImageRGB(w, h, 23), nil); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkEncodeTransform times the full encode pipeline (color
// conversion, DCT, quantization, entropy coding).
func BenchmarkEncodeTransform(b *testing.B) {
	img := testImageRGB(256, 256, 20)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(int64(len(img.Pix)))
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := EncodeRGB(&buf, img, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTransform times the full decode pipeline with pooled
// output, so the IDCT is a large share.
func BenchmarkDecodeTransform(b *testing.B) {
	stream := benchStream(b, 256, 256)
	var dec Decoded
	r := bytes.NewReader(stream)
	b.ReportAllocs()
	b.SetBytes(int64(3 * 256 * 256))
	for i := 0; i < b.N; i++ {
		r.Reset(stream)
		if err := DecodeInto(r, &dec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePooled isolates the output-buffer strategy: a fresh
// Decoded per call (the escape-heavy path Decode takes) against one
// reused through DecodeInto.
func BenchmarkDecodePooled(b *testing.B) {
	stream := benchStream(b, 256, 256)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(3 * 256 * 256))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(bytes.NewReader(stream)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var dec Decoded
		r := bytes.NewReader(stream)
		b.ReportAllocs()
		b.SetBytes(int64(3 * 256 * 256))
		for i := 0; i < b.N; i++ {
			r.Reset(stream)
			if err := DecodeInto(r, &dec, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransformAANFullLoop measures the paper-relevant training-loop
// shape: decode to pixels and re-encode, everything pooled.
func BenchmarkTransformAANFullLoop(b *testing.B) {
	stream := benchStream(b, 128, 128)
	var dec Decoded
	r := bytes.NewReader(stream)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(stream)
		if err := DecodeInto(r, &dec, nil); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if err := EncodeRGB(&buf, dec.RGB(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// synthFrame256 is the stage benchmarks' input: one 256×256 color
// SynthNet frame.
func synthFrame256(b *testing.B) *imgutil.RGB {
	b.Helper()
	train, _, err := dataset.Generate(dataset.Config{
		Classes: 2, Size: 256, TrainPerClass: 1, TestPerClass: 1, Color: true, NoiseStd: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return train.Images[0]
}

// perPixel reports a stage benchmark's mean time per pixel of a frame of
// px pixels.
func perPixel(b *testing.B, px float64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/px, "ns/px")
}

// BenchmarkEncodeStages splits EncodeRGB into its stages on one 256×256
// 4:2:0 SynthNet frame, each reported in ns/px:
//
//   - color: the one-pass color conversion and chroma subsampling;
//   - transform: gather, forward DCT and quantize for every component;
//   - emit: encodeTail — Huffman emit and markers.
//
// The three rows sum to roughly one EncodeRGB. They run on two table
// sets: std, the default Annex-K QF-50 tables, and dense, Annex-K QF 95,
// whose small steps leave most luma blocks nonzero far down the zigzag.
// Every row also reports zero/coef, the share of coefficients below
// their band's zero threshold, which the quantizer writes as 0 without
// dividing, and ext/block, the mean block extent, where the emit stops.
// The color rows report tie/box, the share of 2×2 boxes that hold a
// pixel on a rounding tie, which the color kernel converts by the float
// formula. The SynthNet frame has none, so one more row, tie/color,
// converts a frame with ties in 12% of its boxes (tieFrame256).
func BenchmarkEncodeStages(b *testing.B) {
	img := synthFrame256(b)
	for _, in := range []struct {
		name string
		opts Options
	}{
		{"std", Options{Subsampling: Sub420}},
		{"dense", Options{Subsampling: Sub420,
			LumaTable:   qtable.MustScale(qtable.StdLuminance, 95),
			ChromaTable: qtable.MustScale(qtable.StdChrominance, 95)}},
	} {
		o := in.opts.withDefaults()
		h, v, _ := o.Subsampling.factors()
		s := getEncScratch()
		comps := s.rgbComponents(img, h, v)
		mcusX, mcusY := transformComponents(img.W, img.H, comps, &o, s)
		zero, ext := encodeSparsity(comps, s)
		ties := tieBoxShare(img)
		px := float64(img.W * img.H)
		report := func(b *testing.B) {
			perPixel(b, px)
			b.ReportMetric(zero, "zero/coef")
			b.ReportMetric(ext, "ext/block")
		}
		b.Run(in.name+"/color", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.rgbComponents(img, h, v)
			}
			report(b)
			b.ReportMetric(ties, "tie/box")
		})
		b.Run(in.name+"/transform", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				transformComponents(img.W, img.H, comps, &o, s)
			}
			report(b)
		})
		b.Run(in.name+"/emit", func(b *testing.B) {
			var out bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out.Reset()
				if err := encodeTail(&out, img.W, img.H, comps, mcusX, mcusY, &o); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		putEncScratch(s)
	}
	tied := tieFrame256(b)
	s := getEncScratch()
	b.Run("tie/color", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.rgbComponents(tied, 2, 2)
		}
		perPixel(b, float64(tied.W*tied.H))
		b.ReportMetric(tieBoxShare(tied), "tie/box")
	})
	putEncScratch(s)
}

// tieFrame256 is one 256×256 color SynthNet frame whose tint puts a
// pixel on a rounding tie in 12% of its 2×2 boxes: the frame of class 2
// in a seed-1 set of eight classes, the set ingest-encode draws its
// frames from at seed 1.
func tieFrame256(b *testing.B) *imgutil.RGB {
	b.Helper()
	train, _, err := dataset.Generate(dataset.Config{
		Classes: 8, Size: 256, TrainPerClass: 1, TestPerClass: 1, Color: true, NoiseStd: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return train.Images[2]
}

// encodeSparsity returns, over the transformed components comps, the
// share of coefficients below their band's zero threshold and the mean
// block extent. It reruns the forward transform of each block row to
// see the coefficients before quantization.
func encodeSparsity(comps []*component, s *encScratch) (zero, ext float64) {
	var below, coefs, extSum int
	for _, c := range comps {
		run := c.blocksX * 64
		plane := make([]float64, run)
		sq := &s.thr[c.tq]
		for by := 0; by < c.blocksY; by++ {
			gatherBlockRow(plane, c.pix, c.w, c.hgt, by, c.blocksX)
			dct.ForwardAANRawBatch(plane)
			for i, v := range plane {
				if v*v < sq[i%64] {
					below++
				}
			}
		}
		coefs += len(c.coefs) * 64
		for _, e := range c.ext {
			extSum += int(e)
		}
	}
	return float64(below) / float64(coefs), float64(extSum) / float64(coefs/64)
}

// tieBoxShare returns the share of img's full 2×2 boxes that hold a
// pixel whose exact Y, Cb or Cr is a half-integer, computed in integers
// from the formula's rational coefficients. Those are the boxes the
// fused 4:2:0 color kernel converts by the float formula: its tie flag
// fires on exactly those pixels (TestFromRGBSubsampled420Oracle).
func tieBoxShare(img *imgutil.RGB) float64 {
	half := func(n, den int) bool { return ((n%den)+den)%den == den/2 }
	tie := func(x, y int) bool {
		r8, g8, b8 := img.At(x, y)
		r, g, b := int(r8), int(g8), int(b8)
		return half(299*r+587*g+114*b, 1000) ||
			half(-168736*r-331264*g+500000*b, 1000000) ||
			half(500000*r-418688*g-81312*b, 1000000)
	}
	ties, boxes := 0, 0
	for y := 0; y+1 < img.H; y += 2 {
		for x := 0; x+1 < img.W; x += 2 {
			boxes++
			if tie(x, y) || tie(x+1, y) || tie(x, y+1) || tie(x+1, y+1) {
				ties++
			}
		}
	}
	return float64(ties) / float64(boxes)
}

// BenchmarkDecodeStages splits the decode read path into its stages on
// one 256×256 4:2:0 SynthNet frame, each reported in ns/px:
//
//   - decode: DecodeInto — marker parse and entropy decode; it stops at
//     the coefficients;
//   - reconstruct: what the first pixel read after a decode runs —
//     dequantize, inverse DCT and pixel store over every component;
//   - rgb: RGBInto on reconstructed planes — chroma upsampling and
//     color conversion.
//
// The three rows sum to DecodeInto followed by its first RGBInto. They
// run on two streams of the frame: std, the default tables, and rmhf,
// the paper's RM-HF scheme, which keeps the 16 lowest zigzag bands
// (ZeroMask TopZigZag(48)). Every row also reports dconly/block, the
// share of DC-only blocks, which reconstruct fills without an inverse
// DCT.
func BenchmarkDecodeStages(b *testing.B) {
	frame := synthFrame256(b)
	rmhf := qtable.TopZigZag(48)
	for _, in := range []struct {
		name string
		opts Options
	}{
		{"std", Options{Subsampling: Sub420}},
		{"rmhf", Options{Subsampling: Sub420, ZeroMask: &rmhf}},
	} {
		var buf bytes.Buffer
		if err := EncodeRGB(&buf, frame, &in.opts); err != nil {
			b.Fatal(err)
		}
		stream := buf.Bytes()
		var dec Decoded
		if err := DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
			b.Fatal(err)
		}
		px := float64(dec.W * dec.H)
		dcOnly, blocks := 0, 0
		for i := range dec.Components {
			for _, e := range dec.ext[i] {
				if e == 0 {
					dcOnly++
				}
			}
			blocks += len(dec.ext[i])
		}
		report := func(b *testing.B) {
			perPixel(b, px)
			b.ReportMetric(float64(dcOnly)/float64(blocks), "dconly/block")
		}
		b.Run(in.name+"/decode", func(b *testing.B) {
			var dst Decoded
			r := bytes.NewReader(stream)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Reset(stream)
				if err := DecodeInto(r, &dst, nil); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		b.Run(in.name+"/reconstruct", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec.pixPending = true
				dec.reconstruct()
			}
			report(b)
		})
		b.Run(in.name+"/rgb", func(b *testing.B) {
			rgb := dec.RGBInto(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rgb = dec.RGBInto(rgb)
			}
			report(b)
		})
	}
}

// BenchmarkRequantizeStages splits a coefficient-domain requantize into
// its stages, each reported in ns/px. The source is the archive case:
// one 256×256 SynthNet frame written by stdlib image/jpeg at quality 90
// (4:2:0), requantized onto the QF-50 standard tables.
//
//   - decode: DecodeInto — marker parse and entropy decode;
//   - requant: the integer requantize pass alone, over every component;
//   - requantize: Requantize — that pass plus the Huffman emit.
//
// decode + requantize is one archive requantize; no pixel is
// reconstructed on the way. Every row also reports ext/block, the mean
// extent the decode recorded per source block, where the requantize
// walk stops.
func BenchmarkRequantizeStages(b *testing.B) {
	var src bytes.Buffer
	if err := jpeg.Encode(&src, synthFrame256(b).ToImage(), &jpeg.Options{Quality: 90}); err != nil {
		b.Fatal(err)
	}
	stream := src.Bytes()
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
		b.Fatal(err)
	}
	luma := qtable.MustScale(qtable.StdLuminance, 50)
	chroma := qtable.MustScale(qtable.StdChrominance, 50)
	px := float64(dec.W * dec.H)
	extSum, blocks := 0, 0
	for i := range dec.Components {
		for _, e := range dec.ext[i] {
			extSum += int(e)
		}
		blocks += len(dec.ext[i])
	}
	report := func(b *testing.B) {
		perPixel(b, px)
		b.ReportMetric(float64(extSum)/float64(blocks), "ext/block")
	}
	b.Run("decode", func(b *testing.B) {
		var dst Decoded
		r := bytes.NewReader(stream)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Reset(stream)
			if err := DecodeInto(r, &dst, nil); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("requant", func(b *testing.B) {
		var dst [3][][64]int32
		var ext [3][]uint8
		for ci := range dec.Components {
			dst[ci] = make([][64]int32, len(dec.coefs[ci]))
			ext[ci] = make([]uint8, len(dec.coefs[ci]))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ci := range dec.Components {
				old, to := dec.QuantTables[dec.planes[ci].tq], &luma
				if ci > 0 {
					to = &chroma
				}
				requantizeBlocks(dst[ci], dec.coefs[ci], ext[ci], dec.ext[ci], &old, to, nil)
			}
		}
		report(b)
	})
	b.Run("requantize", func(b *testing.B) {
		var out bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := Requantize(&out, &dec, luma, chroma, nil); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
}
