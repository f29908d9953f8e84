package deepnjpeg

// Public-API coverage for restart intervals and single-image sharded
// entropy coding: EncodeWith/EncodeGrayWith stream shaping, the
// codec's automatic sharding on large restart-interval frames, and the
// restart semantics of Requantize (inherit by default, strip on
// negative, replace on positive). The byte-level matrix lives in
// internal/jpegcodec; this file pins the exported surface.

import (
	"bytes"
	"image/jpeg"
	"runtime"
	"testing"

	"repro/internal/jpegcodec"
)

// driValue walks the marker segments before SOS and returns the DRI
// restart interval, or 0 when the stream declares none.
func driValue(t *testing.T, stream []byte) int {
	t.Helper()
	if len(stream) < 4 || stream[0] != 0xFF || stream[1] != 0xD8 {
		t.Fatalf("not a JPEG stream: % X", stream[:min(4, len(stream))])
	}
	i := 2
	for i+4 <= len(stream) {
		if stream[i] != 0xFF {
			t.Fatalf("expected marker at offset %d, found %#02x", i, stream[i])
		}
		m := stream[i+1]
		if m == 0xDA { // SOS: entropy data follows, no DRI seen
			return 0
		}
		ln := int(stream[i+2])<<8 | int(stream[i+3])
		if m == 0xDD {
			return int(stream[i+4])<<8 | int(stream[i+5])
		}
		i += 2 + ln
	}
	t.Fatal("no SOS marker in stream")
	return 0
}

func pixelsEqual(t *testing.T, want, got *Image, label string) {
	t.Helper()
	if want.W != got.W || want.H != got.H {
		t.Fatalf("%s: geometry %dx%d vs %dx%d", label, want.W, want.H, got.W, got.H)
	}
	if !bytes.Equal(want.Pix, got.Pix) {
		t.Fatalf("%s: pixel data differs", label)
	}
}

func TestEncodeWithRestartInterval(t *testing.T) {
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	img := images[0]

	plain, err := codec.Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := codec.EncodeWith(img, EncodeOptions{RestartInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := driValue(t, restarted); got != 2 {
		t.Fatalf("DRI = %d, want 2", got)
	}
	if got := driValue(t, plain); got != 0 {
		t.Fatalf("default encode carries DRI %d, want none", got)
	}

	// Restart markers change the stream structure, not the image.
	wantImg, err := Decode(plain)
	if err != nil {
		t.Fatal(err)
	}
	gotImg, err := Decode(restarted)
	if err != nil {
		t.Fatal(err)
	}
	pixelsEqual(t, wantImg, gotImg, "restart-vs-plain")

	// The restarted stream is still standard JFIF.
	if _, err := jpeg.Decode(bytes.NewReader(restarted)); err != nil {
		t.Fatalf("stdlib cannot decode restarted stream: %v", err)
	}

	grayStream, err := codec.EncodeGrayWith(img.ToGray(), EncodeOptions{RestartInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := driValue(t, grayStream); got != 2 {
		t.Fatalf("gray DRI = %d, want 2", got)
	}

	// The 16-bit DRI bound is enforced at the public surface.
	if _, err := codec.EncodeWith(img, EncodeOptions{RestartInterval: 65536}); err == nil {
		t.Fatal("RestartInterval 65536 accepted")
	}
}

func TestRequantizeRestartSemantics(t *testing.T) {
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := codec.EncodeWith(images[0], EncodeOptions{RestartInterval: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Default: transcoding preserves the source's restart structure.
	inherited, err := codec.Requantize(src, RequantizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := driValue(t, inherited); got != 2 {
		t.Fatalf("inherited DRI = %d, want 2", got)
	}

	// A positive value replaces the interval, a negative one strips it.
	replaced, err := codec.Requantize(src, RequantizeOptions{RestartInterval: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := driValue(t, replaced); got != 3 {
		t.Fatalf("replaced DRI = %d, want 3", got)
	}
	stripped, err := codec.Requantize(src, RequantizeOptions{RestartInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := driValue(t, stripped); got != 0 {
		t.Fatalf("stripped stream carries DRI %d", got)
	}

	// Out-of-range replacement intervals are rejected.
	if _, err := codec.Requantize(src, RequantizeOptions{RestartInterval: 65536}); err == nil {
		t.Fatal("RestartInterval 65536 accepted by Requantize")
	}
}

// TestPublicRestartShardingAuto pins the public surface's only sharding
// mode, the codec's own rule. On a frame where it engages — 512×512
// 4:2:0 is 1024 MCUs, and RestartInterval 4 splits it into 256
// segments — with GOMAXPROCS 4, EncodeWith, DecodeInto and Requantize
// must match the sequential jpegcodec path (ShardWorkers 1) byte for
// byte and pixel for pixel, with standard and optimized Huffman tables.
func TestPublicRestartShardingAuto(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	images, labels := calibrationSet(t)
	codec, err := Calibrate(images, labels, CalibrateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const ri = 4
	img := gradientImage(512, 512)
	var src bytes.Buffer // an Annex-K source frame for Requantize
	if err := jpegcodec.EncodeRGB(&src, img, &jpegcodec.Options{RestartInterval: ri, ShardWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	var srcDec jpegcodec.Decoded
	if err := jpegcodec.DecodeInto(bytes.NewReader(src.Bytes()), &srcDec, &jpegcodec.DecodeOptions{ShardWorkers: 1}); err != nil {
		t.Fatal(err)
	}

	for _, optimize := range []bool{false, true} {
		seq := jpegcodec.Options{
			LumaTable:       codec.LumaTable(),
			ChromaTable:     codec.ChromaTable(),
			RestartInterval: ri,
			OptimizeHuffman: optimize,
			ShardWorkers:    1,
		}
		stream, err := codec.EncodeWith(img, EncodeOptions{RestartInterval: ri, OptimizeHuffman: optimize})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := jpegcodec.EncodeRGB(&want, img, &seq); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream, want.Bytes()) {
			t.Fatalf("optimize=%v: EncodeWith differs from the sequential encode", optimize)
		}

		got, err := DecodeInto(nil, stream, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var dec jpegcodec.Decoded
		if err := jpegcodec.DecodeInto(bytes.NewReader(stream), &dec, &jpegcodec.DecodeOptions{ShardWorkers: 1}); err != nil {
			t.Fatal(err)
		}
		pixelsEqual(t, dec.RGBInto(nil), got, "DecodeInto vs sequential decode")

		requant, err := codec.Requantize(src.Bytes(), RequantizeOptions{OptimizeHuffman: optimize})
		if err != nil {
			t.Fatal(err)
		}
		want.Reset()
		seq.RestartInterval = 0 // inherit the source's, as the public call does
		if err := jpegcodec.Requantize(&want, &srcDec, codec.LumaTable(), codec.ChromaTable(), &seq); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(requant, want.Bytes()) {
			t.Fatalf("optimize=%v: Requantize differs from the sequential requantize", optimize)
		}
	}
}
