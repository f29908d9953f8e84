package jpegcodec

// Benchmarks for the full encode and decode pipelines on one 256×256
// frame and for the pooled decode path. Run with:
//
//	go test ./internal/jpegcodec -run XXX -bench 'Transform|DecodePooled' -benchmem
//
// EncodeTransform/DecodeTransform time the whole pipeline around the
// block transform; DecodePooled isolates output-buffer reuse.

import (
	"bytes"
	"testing"
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
