package jpegcodec

// Benchmarks for the full encode and decode pipelines on one 256×256
// frame, for the pooled decode path and for the decode stages. Run with:
//
//	go test ./internal/jpegcodec -run XXX -bench 'Transform|DecodePooled|DecodeStages' -benchmem
//
// EncodeTransform/DecodeTransform time the whole pipeline around the
// block transform; DecodePooled isolates output-buffer reuse;
// DecodeStages reports the decode read path stage by stage.

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
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

// BenchmarkDecodeStages splits the decode read path into its stages on
// one 256×256 4:2:0 SynthNet frame, each reported in ns/px:
//
//   - decode: the whole DecodeInto — marker parse, entropy decode and
//     reconstruction;
//   - reconstruct: the reconstruction alone — dequantize, inverse DCT and
//     pixel store over every component;
//   - rgb: RGBInto — chroma upsampling and color conversion.
//
// decode − reconstruct is parse plus entropy decode.
func BenchmarkDecodeStages(b *testing.B) {
	train, _, err := dataset.Generate(dataset.Config{
		Classes: 2, Size: 256, TrainPerClass: 1, TestPerClass: 1, Color: true, NoiseStd: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, train.Images[0], &Options{Subsampling: Sub420}); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
		b.Fatal(err)
	}
	px := float64(dec.W * dec.H)
	perPixel := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/px, "ns/px")
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
		perPixel(b)
	})
	b.Run("reconstruct", func(b *testing.B) {
		comps := make([]component, dec.Components)
		for i := range comps {
			c, p := &comps[i], &dec.planes[i]
			c.w, c.hgt, c.pix = p.w, p.h, make([]uint8, p.w*p.h)
			c.coefs, c.blocksX, c.blocksY = dec.coefs[i], dec.blocksX[i], dec.blocksY[i]
			dec.QuantTables[p.tq].InvScaledInto(&c.inv)
		}
		var plane []float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ci := range comps {
				c := &comps[ci]
				plane = growFloats(plane, c.blocksX*64)
				for by := 0; by < c.blocksY; by++ {
					reconstructBlockRow(c, by, plane)
				}
			}
		}
		perPixel(b)
	})
	b.Run("rgb", func(b *testing.B) {
		rgb := dec.RGBInto(nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rgb = dec.RGBInto(rgb)
		}
		perPixel(b)
	})
}
