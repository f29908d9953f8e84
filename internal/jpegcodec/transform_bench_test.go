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
// The three rows sum to roughly one EncodeRGB.
func BenchmarkEncodeStages(b *testing.B) {
	img := synthFrame256(b)
	o := Options{Subsampling: Sub420}.withDefaults()
	h, v, _ := o.Subsampling.factors()
	s := getEncScratch()
	defer putEncScratch(s)
	comps := s.rgbComponents(img, h, v)
	mcusX, mcusY := transformComponents(img.W, img.H, comps, &o, s)
	px := float64(img.W * img.H)
	b.Run("color", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.rgbComponents(img, h, v)
		}
		perPixel(b, px)
	})
	b.Run("transform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			transformComponents(img.W, img.H, comps, &o, s)
		}
		perPixel(b, px)
	})
	b.Run("emit", func(b *testing.B) {
		var out bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := encodeTail(&out, img.W, img.H, comps, mcusX, mcusY, &o); err != nil {
				b.Fatal(err)
			}
		}
		perPixel(b, px)
	})
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
// reconstructed on the way.
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
		perPixel(b, px)
	})
	b.Run("requant", func(b *testing.B) {
		var dst [3][][64]int32
		for ci := range dec.Components {
			dst[ci] = make([][64]int32, len(dec.coefs[ci]))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ci := range dec.Components {
				old, to := dec.QuantTables[dec.planes[ci].tq], &luma
				if ci > 0 {
					to = &chroma
				}
				requantizeBlocks(dst[ci], dec.coefs[ci], &old, to, nil)
			}
		}
		perPixel(b, px)
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
		perPixel(b, px)
	})
}
