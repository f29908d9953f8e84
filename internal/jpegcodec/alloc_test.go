package jpegcodec

// Allocation-regression tests for the pooled encode and decode paths.
// Before the sync.Pool scratch landed, every encode allocated its YCbCr
// planes, subsampled chroma, per-component coefficient grids and entropy
// buffers — hundreds of allocations and ~100 KB per 64×64 image — and
// every decode re-allocated its parse state and output working set. The
// pooled steady states of encode, requantize and decode into a reused
// Decoded make no allocation at all: headers go straight into the pooled
// buffered writer. AllocsPerRun reports the mean rounded down, so a
// pool the garbage collector empties now and then does not trip the
// zero bounds; a lost pool, or an allocation per call, does. The fresh
// Decode bound is deliberately loose (~2× observed).

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/qtable"
)

func allocTestImage() *imgutil.RGB {
	im := imgutil.NewRGB(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			im.Set(x, y, uint8(x*4), uint8(y*4), uint8((x+y)*2))
		}
	}
	return im
}

func TestEncodeRGBAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	img := allocTestImage()
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := EncodeRGB(&buf, img, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		encode() // warm the scratch pools and the cached Huffman tables
	}
	allocs := testing.AllocsPerRun(100, encode)
	t.Logf("pooled EncodeRGB: %.1f allocs/op", allocs)
	if allocs > 0 {
		t.Fatalf("steady-state EncodeRGB makes %.1f allocs/op, want 0 (pooling regressed)", allocs)
	}
}

func TestEncodeGrayAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	img := allocTestImage().ToGray()
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := EncodeGray(&buf, img, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		encode()
	}
	allocs := testing.AllocsPerRun(100, encode)
	t.Logf("pooled EncodeGray: %.1f allocs/op", allocs)
	if allocs > 0 {
		t.Fatalf("steady-state EncodeGray makes %.1f allocs/op, want 0 (pooling regressed)", allocs)
	}
}

// TestRequantizeAllocsSteadyState pins the archive transcode's emit half:
// Requantize of one decoded stream into a reused buffer draws its
// descriptors, coefficient grids and writers from the pools and writes
// its headers without temporaries, so it allocates nothing.
func TestRequantizeAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var src bytes.Buffer
	if err := EncodeRGB(&src, allocTestImage(), &Options{OptimizeHuffman: true}); err != nil {
		t.Fatal(err)
	}
	var dec Decoded
	if err := DecodeBytes(src.Bytes(), &dec, nil); err != nil {
		t.Fatal(err)
	}
	luma := qtable.MustScale(qtable.StdLuminance, 50)
	chroma := qtable.MustScale(qtable.StdChrominance, 50)
	var out bytes.Buffer
	requantize := func() {
		out.Reset()
		if err := Requantize(&out, &dec, luma, chroma, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		requantize()
	}
	allocs := testing.AllocsPerRun(100, requantize)
	t.Logf("pooled Requantize: %.1f allocs/op", allocs)
	if allocs > 0 {
		t.Fatalf("steady-state Requantize makes %.1f allocs/op, want 0 (pooling regressed)", allocs)
	}
}

// TestDecodeAllocsBounded keeps the fresh-decode path honest: its output
// (planes, coefficient grids, the Decoded itself) must be allocated
// fresh — it escapes to the caller — but with the decoder parse state
// pooled, that output is all that remains. Before the pooled decoder the
// same loop made ~100 allocs/op; it now makes ~10.
func TestDecodeAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, allocTestImage(), nil); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	decode := func() {
		if _, err := Decode(bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		decode()
	}
	allocs := testing.AllocsPerRun(50, decode)
	t.Logf("Decode: %.1f allocs/op", allocs)
	if allocs > 24 {
		t.Fatalf("Decode makes %.1f allocs/op, want ≤ 24 (decoder pooling regressed)", allocs)
	}
}

// TestDecodeIntoAllocsSteadyState mirrors the encode bounds for the
// pooled decode path: with the destination's planes, coefficient grids
// and table map reused and the decoder parse state drawn from the pool,
// a steady-state DecodeInto must make no allocations at all (observed
// 0.0; the bound leaves room for allocator noise only).
func TestDecodeIntoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, allocTestImage(), nil); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	var dec Decoded
	r := bytes.NewReader(stream)
	decode := func() {
		r.Reset(stream)
		if err := DecodeInto(r, &dec, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		decode() // warm the destination buffers and the decoder pool
	}
	allocs := testing.AllocsPerRun(100, decode)
	t.Logf("pooled DecodeInto: %.1f allocs/op", allocs)
	if allocs > 4 {
		t.Fatalf("steady-state DecodeInto makes %.1f allocs/op, want ≤ 4 (decode pooling regressed)", allocs)
	}
}

// TestDecodeIntoRGBIntoAllocsSteadyState extends the bound across pixel
// reconstruction: reusing both the Decoded and the output image keeps
// the full stream→RGB loop allocation-free at steady state.
func TestDecodeIntoRGBIntoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var buf bytes.Buffer
	if err := EncodeRGB(&buf, allocTestImage(), nil); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	var dec Decoded
	img := &imgutil.RGB{}
	r := bytes.NewReader(stream)
	decode := func() {
		r.Reset(stream)
		if err := DecodeInto(r, &dec, nil); err != nil {
			t.Fatal(err)
		}
		img = dec.RGBInto(img)
	}
	for i := 0; i < 8; i++ {
		decode()
	}
	allocs := testing.AllocsPerRun(100, decode)
	t.Logf("pooled DecodeInto+RGBInto: %.1f allocs/op", allocs)
	if allocs > 4 {
		t.Fatalf("steady-state DecodeInto+RGBInto makes %.1f allocs/op, want ≤ 4", allocs)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean number of heap
// bytes one call of f allocates over runs calls, measured, as
// AllocsPerRun measures, at GOMAXPROCS 1 after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m)
	return (m.TotalAlloc - before) / uint64(runs)
}

// shardedBytesBound bounds the bytes per call of the sharded pins below.
// What remains is each fan-out's goroutines, closures and per-worker
// slices: about 1.4 KiB for three fan-outs. A pooled buffer allocated
// per call would pass it: one worker's box-row scratch of a 1024-wide
// frame at 4:2:0 is 4 KiB, the scan writer's segment table 1.5 KiB, one
// block-row plane 64 KiB and the frame's restart segments about
// 100 KiB.
const shardedBytesBound = 2 << 10

// TestEncodeShardedAllocsSteadyState pins the sharded encode of a 1024²
// restart-64 frame on two workers — color conversion, forward stage and
// scan writer on the fan-out — to the fan-out's own small allocations:
// the workers' planes, row scratch, bit writers and segment table come
// from pools.
func TestEncodeShardedAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	img := testImageRGB(1024, 1024, 31)
	opts := &Options{RestartInterval: 64, ShardWorkers: 2}
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := EncodeRGB(&buf, img, opts); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		encode()
	}
	n := bytesPerRun(20, encode)
	t.Logf("sharded EncodeRGB 1024² ri=64: %d B/op", n)
	if n > shardedBytesBound {
		t.Fatalf("steady-state sharded EncodeRGB allocates %d B/op, want ≤ %d (a per-call buffer survived)", n, shardedBytesBound)
	}
}

// TestDecodeShardedRGBIntoAllocsSteadyState is the read side's pin:
// DecodeInto with two shard workers, then RGBInto into a reused image,
// with entropy decode, reconstruction and color conversion on the
// fan-out.
func TestDecodeShardedRGBIntoAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	var src bytes.Buffer
	if err := EncodeRGB(&src, testImageRGB(1024, 1024, 31), &Options{RestartInterval: 64}); err != nil {
		t.Fatal(err)
	}
	stream := src.Bytes()
	opts := &DecodeOptions{ShardWorkers: 2}
	var dec Decoded
	img := &imgutil.RGB{}
	r := bytes.NewReader(stream)
	decode := func() {
		r.Reset(stream)
		if err := DecodeInto(r, &dec, opts); err != nil {
			t.Fatal(err)
		}
		img = dec.RGBInto(img)
	}
	for range 4 {
		decode()
	}
	n := bytesPerRun(20, decode)
	t.Logf("sharded DecodeInto+RGBInto 1024² ri=64: %d B/op", n)
	if n > shardedBytesBound {
		t.Fatalf("steady-state sharded DecodeInto+RGBInto allocates %d B/op, want ≤ %d (a per-call buffer survived)", n, shardedBytesBound)
	}
}
