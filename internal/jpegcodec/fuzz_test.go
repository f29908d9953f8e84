package jpegcodec

// Native fuzz targets for the decoder and the coefficient-domain
// requantizer: whatever bytes arrive off the wire, neither may panic.
// Seeds cover every encode path the codec emits (the interop corpus
// shape: gray and the full chroma matrix 420/444/422/440/411, optimized
// Huffman, restart intervals, APPn/COM-laden streams) plus truncations
// and bit flips of each; regression inputs
// live in testdata/fuzz and are regenerated by TestWriteFuzzSeeds.
//
// Both targets decode with a MaxPixels bound, exactly as a server must:
// without it a 30-byte input can declare a multi-gigabyte frame and the
// fuzzer "finds" an OOM instead of logic bugs.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// fuzzMaxPixels bounds declared frame sizes during fuzzing.
const fuzzMaxPixels = 1 << 20

// seedStreams encodes one small image through every stream-shaping
// option combination the encoder supports.
func seedStreams(tb testing.TB) map[string][]byte {
	img := imgutil.NewRGB(21, 13) // non-multiple-of-8 on purpose
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			img.Set(x, y, uint8(11*x+3*y), uint8(7*x), uint8(5*y+x*x))
		}
	}
	gray := img.ToGray()

	seeds := make(map[string][]byte)
	add := func(name string, opts Options, grayInput bool) {
		var buf bytes.Buffer
		var err error
		if grayInput {
			err = EncodeGray(&buf, gray, &opts)
		} else {
			err = EncodeRGB(&buf, img, &opts)
		}
		if err != nil {
			tb.Fatalf("seed %s: %v", name, err)
		}
		seeds[name] = buf.Bytes()
	}
	add("gray", Options{}, true)
	add("rgb420", Options{Subsampling: Sub420}, false)
	add("rgb444", Options{Subsampling: Sub444}, false)
	add("rgb422", Options{Subsampling: Sub422}, false)
	add("rgb440", Options{Subsampling: Sub440}, false)
	add("rgb411", Options{Subsampling: Sub411}, false)
	add("metadata", Options{Subsampling: Sub422, Metadata: []MetaSegment{
		{Marker: mAPP0 + 1, Payload: []byte("Exif\x00\x00MM\x00\x2a\x00\x00\x00\x08")},
		{Marker: mAPP0 + 2, Payload: append([]byte("ICC_PROFILE\x00\x01\x01"), make([]byte, 16)...)},
		{Marker: mCOM, Payload: []byte("fuzz comment")},
	}}, false)
	add("optimized", Options{OptimizeHuffman: true}, false)
	add("restart", Options{RestartInterval: 2}, false)
	add("restart-ri1", Options{RestartInterval: 1}, false)
	add("restart-sharded", Options{RestartInterval: 1, ShardWorkers: 4, OptimizeHuffman: true}, false)
	add("gray-restart", Options{RestartInterval: 3}, true)
	add("lowq", Options{LumaTable: qtable.MustScale(qtable.StdLuminance, 5),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 5)}, false)

	// Damaged variants: truncations at marker-ish offsets and a bit flip
	// in the entropy-coded tail.
	base := seeds["rgb420"]
	seeds["truncated-header"] = base[:min(20, len(base))]
	seeds["truncated-scan"] = base[:len(base)/2]
	flipped := bytes.Clone(base)
	flipped[len(flipped)-10] ^= 0x40
	seeds["bitflip"] = flipped

	// Adversarial restart variants: an out-of-sequence RSTn index and a
	// DRI value that disagrees with the markers actually in the scan —
	// both decode paths must reject them identically without panicking.
	rseed := seeds["restart-ri1"]
	if i := bytes.Index(rseed, []byte{0xFF, 0xD0}); i >= 0 {
		bad := bytes.Clone(rseed)
		bad[i+1] = 0xD5
		seeds["restart-badindex"] = bad
	}
	if i := bytes.Index(rseed, []byte{0xFF, 0xDD}); i >= 0 && i+5 < len(rseed) {
		bad := bytes.Clone(rseed)
		bad[i+4], bad[i+5] = 0xFF, 0xFF // Lr stays 4; interval becomes 65535
		seeds["restart-baddri"] = bad
	}
	return seeds
}

// checkExtents holds an accepted decode to the invariant reconstruction
// and Requantize rely on: every coefficient past a block's recorded
// extent is zero.
func checkExtents(t *testing.T, dec *Decoded, label string) {
	t.Helper()
	for i := range dec.Components {
		checkBlockExtents(t, dec.coefs[i], dec.ext[i], false, fmt.Sprintf("%s: component %d", label, i))
	}
}

// checkBlockExtents holds a coefficient grid to its extents: every
// coefficient past a block's extent is zero and, when exact, the extent
// is the zigzag index of the block's last nonzero coefficient (0 for a
// block with none), as the encoder's quantizer and Requantize record it.
func checkBlockExtents(t *testing.T, coefs [][64]int32, ext []uint8, exact bool, label string) {
	t.Helper()
	if len(ext) != len(coefs) {
		t.Fatalf("%s: %d extents for %d blocks", label, len(ext), len(coefs))
	}
	for k := range coefs {
		last := lastNonzero(&coefs[k])
		if last > ext[k] {
			t.Fatalf("%s: block %d: coefficient %d at zigzag %d, past the recorded extent %d",
				label, k, coefs[k][qtable.ZigZagOrder[last]], last, ext[k])
		}
		if exact && last != ext[k] {
			t.Fatalf("%s: block %d: extent %d, last nonzero zigzag index %d", label, k, ext[k], last)
		}
	}
}

func FuzzDecode(f *testing.F) {
	for _, data := range seedStreams(f) {
		f.Add(data)
	}
	f.Add([]byte{0xFF, 0xD8, 0xFF, 0xD9}) // SOI+EOI, nothing else
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoded
		opts := DecodeOptions{MaxPixels: fuzzMaxPixels}
		if err := DecodeInto(bytes.NewReader(data), &dec, &opts); err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		checkExtents(t, &dec, "decode")
		// A stream the decoder accepts must reconstruct to its declared
		// geometry through both output paths.
		if dec.W <= 0 || dec.H <= 0 || dec.W*dec.H > fuzzMaxPixels {
			t.Fatalf("accepted frame with bad dimensions %dx%d", dec.W, dec.H)
		}
		img := dec.RGB()
		if img.W != dec.W || img.H != dec.H || len(img.Pix) != 3*dec.W*dec.H {
			t.Fatalf("RGB output %dx%d (%d bytes) for a %dx%d frame",
				img.W, img.H, len(img.Pix), dec.W, dec.H)
		}
		_ = dec.Gray()
	})
}

// FuzzDecodeSharded holds the sharded decode path to the sequential
// path's verdict on arbitrary bytes: both must agree on accept/reject,
// and on accept must produce identical frames. This is the fuzz form of
// the acceptance-equivalence contract documented in shard.go.
func FuzzDecodeSharded(f *testing.F) {
	for _, data := range seedStreams(f) {
		f.Add(data)
	}
	f.Add([]byte{0xFF, 0xD8, 0xFF, 0xD9})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := DecodeOptions{MaxPixels: fuzzMaxPixels, ShardWorkers: 1}
		var want Decoded
		seqErr := DecodeInto(bytes.NewReader(data), &want, &seq)
		shard := DecodeOptions{MaxPixels: fuzzMaxPixels, ShardWorkers: 4}
		var got Decoded
		shardErr := DecodeInto(bytes.NewReader(data), &got, &shard)
		if (seqErr == nil) != (shardErr == nil) {
			t.Fatalf("accept/reject divergence: sequential err=%v, sharded err=%v", seqErr, shardErr)
		}
		if seqErr != nil {
			return
		}
		checkExtents(t, &want, "sequential")
		checkExtents(t, &got, "sharded")
		decodedEqual(t, &want, &got, "sharded-vs-sequential")
	})
}

func FuzzRequantize(f *testing.F) {
	for _, data := range seedStreams(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoded
		opts := DecodeOptions{MaxPixels: fuzzMaxPixels}
		if err := DecodeInto(bytes.NewReader(data), &dec, &opts); err != nil {
			return
		}
		luma := qtable.MustScale(qtable.StdLuminance, 60)
		chroma := qtable.MustScale(qtable.StdChrominance, 60)
		// The integer requantize pass must match the float chain it
		// replaced on every grid the decoder accepts, hostile DC included.
		var requantized [3][][64]int32
		for ci := 0; ci < dec.Components; ci++ {
			from, ok := dec.QuantTables[dec.planes[ci].tq]
			if !ok {
				continue // Requantize reports the missing table below
			}
			to := &luma
			if ci > 0 {
				to = &chroma
			}
			src := dec.coefs[ci]
			got := make([][64]int32, len(src))
			gotExt := make([]uint8, len(src))
			requantizeBlocks(got, src, gotExt, dec.ext[ci], &from, to, nil)
			checkBlockExtents(t, got, gotExt, true, fmt.Sprintf("requantize component %d", ci))
			requantized[ci] = got
			if !oracleComparable() {
				continue
			}
			want := make([][64]int32, len(src))
			requantizeOracle(want, src, &from, to, nil)
			for bi := range src {
				if got[bi] != want[bi] {
					t.Fatalf("component %d block %d: integer pass %v, float chain %v (source %v)",
						ci, bi, got[bi], want[bi], src[bi])
				}
			}
		}
		var buf bytes.Buffer
		if err := Requantize(&buf, &dec, luma, chroma, nil); err != nil {
			return // unsupported geometry, missing tables, out-of-range coefficients: error, not panic
		}
		// Whatever Requantize emits must be a well-formed stream with the
		// source geometry — it feeds straight back into storage — and it
		// must carry exactly the requantized coefficients.
		var back Decoded
		if err := DecodeInto(bytes.NewReader(buf.Bytes()), &back, &opts); err != nil {
			t.Fatalf("requantized stream does not decode: %v", err)
		}
		if back.W != dec.W || back.H != dec.H || back.Components != dec.Components {
			t.Fatalf("requantized geometry %dx%dx%d, source %dx%dx%d",
				back.W, back.H, back.Components, dec.W, dec.H, dec.Components)
		}
		for ci := 0; ci < dec.Components; ci++ {
			got, want := back.coefs[ci], requantized[ci]
			if len(got) != len(want) {
				t.Fatalf("component %d: %d blocks decoded, %d requantized", ci, len(got), len(want))
			}
			for bi := range want {
				if got[bi] != want[bi] {
					t.Fatalf("component %d block %d decodes as %v, requantized %v", ci, bi, got[bi], want[bi])
				}
			}
		}
	})
}

// progFuzzSeeds builds the progressive seed corpus: well-formed streams
// across scan-script shapes plus adversarial scan headers the decoder
// must reject without panicking — out-of-range spectral bands, Ah/Al
// successive-approximation mismatches, a duplicate-component scan, and
// a stream cut mid-refinement.
func progFuzzSeeds(tb testing.TB) map[string][]byte {
	seeds := make(map[string][]byte)
	for _, name := range []string{"rgb420-standard", "rgb444-dri", "gray-refine",
		"nonint-rgb444", "rgb422-splitdc"} {
		seeds[name] = caseByName(tb, name).fixtureStream(tb)
	}
	base := seeds["rgb420-standard"] // stdProgressionScript, 10 scans

	// mutateSOS hands the nth SOS header [Ns, comps..., Ss, Se, AhAl] to
	// f for byte surgery. Safe to locate by pattern: in entropy data 0xFF
	// is always stuffed, so FF DA only ever appears as the marker.
	mutateSOS := func(data []byte, nth int, f func(sos []byte)) []byte {
		out := bytes.Clone(data)
		seen := 0
		for i := 0; i+1 < len(out); i++ {
			if out[i] == 0xFF && out[i+1] == 0xDA {
				if seen == nth {
					ns := int(out[i+4])
					f(out[i+4 : i+8+2*ns])
					return out
				}
				seen++
			}
		}
		tb.Fatalf("SOS %d not found", nth)
		return nil
	}
	sePos := func(sos []byte) int { return 2 + 2*int(sos[0]) } // after Ns+comps+Ss

	// Scan 1 is the first luma AC scan (Ss=1): push Se past 63, then
	// invert the band so Se < Ss.
	seeds["bad-se"] = mutateSOS(base, 1, func(sos []byte) { sos[sePos(sos)] = 70 })
	seeds["band-inverted"] = mutateSOS(base, 1, func(sos []byte) {
		sos[sePos(sos)-1], sos[sePos(sos)] = 5, 1
	})
	// Scan 5 is an AC refinement (Ah=2, Al=1): make Al jump by two.
	seeds["ac-ah-al-mismatch"] = mutateSOS(base, 5, func(sos []byte) { sos[sePos(sos)+1] = 0x23 })
	// Scan 6 is the DC refinement (Ah=1, Al=0): claim Ah=2 so the
	// successive-approximation chain skips a bit.
	seeds["dc-ah-al-mismatch"] = mutateSOS(base, 6, func(sos []byte) { sos[sePos(sos)+1] = 0x20 })
	// Scan 0 is the interleaved DC scan: repeat component 1 twice.
	seeds["dup-component"] = mutateSOS(base, 0, func(sos []byte) { sos[3] = sos[1] })
	// Cut inside the final refinement scan's entropy data.
	seeds["truncated-refinement"] = base[:len(base)-40]
	return seeds
}

// FuzzDecodeProgressive drives the multi-scan decode path: arbitrary
// scan scripts, spectral bands, and approximation chains must either
// decode to a self-consistent frame or fail cleanly, and every accepted
// progressive stream must requantize into a baseline stream.
func FuzzDecodeProgressive(f *testing.F) {
	for _, data := range progFuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec Decoded
		opts := DecodeOptions{MaxPixels: fuzzMaxPixels}
		if err := DecodeInto(bytes.NewReader(data), &dec, &opts); err != nil {
			return
		}
		if dec.W <= 0 || dec.H <= 0 || dec.W*dec.H > fuzzMaxPixels {
			t.Fatalf("accepted frame with bad dimensions %dx%d", dec.W, dec.H)
		}
		img := dec.RGB()
		if img.W != dec.W || img.H != dec.H || len(img.Pix) != 3*dec.W*dec.H {
			t.Fatalf("RGB output %dx%d (%d bytes) for a %dx%d frame",
				img.W, img.H, len(img.Pix), dec.W, dec.H)
		}
		if !dec.Progressive {
			return
		}
		// The coefficient planes a progressive decode leaves behind must
		// feed the transcoder: its output is baseline and must decode.
		var buf bytes.Buffer
		err := Requantize(&buf, &dec, qtable.MustScale(qtable.StdLuminance, 60),
			qtable.MustScale(qtable.StdChrominance, 60), nil)
		if err != nil {
			return // unsupported geometry: error, not panic
		}
		var back Decoded
		if err := DecodeInto(bytes.NewReader(buf.Bytes()), &back, &opts); err != nil {
			t.Fatalf("requantized progressive stream does not decode: %v", err)
		}
		if back.Progressive {
			t.Fatal("requantize emitted a progressive stream")
		}
		if back.W != dec.W || back.H != dec.H || back.Components != dec.Components {
			t.Fatalf("requantized geometry %dx%dx%d, source %dx%dx%d",
				back.W, back.H, back.Components, dec.W, dec.H, dec.Components)
		}
	})
}

// TestWriteFuzzSeeds regenerates the checked-in regression corpus under
// testdata/fuzz when UPDATE_FUZZ_SEEDS=1 is set; otherwise it verifies
// the corpus directories exist so a lost checkout fails loudly.
func TestWriteFuzzSeeds(t *testing.T) {
	targetSeeds := map[string]func(testing.TB) map[string][]byte{
		"FuzzDecode":            seedStreams,
		"FuzzDecodeSharded":     seedStreams,
		"FuzzRequantize":        seedStreams,
		"FuzzDecodeProgressive": progFuzzSeeds,
	}
	if os.Getenv("UPDATE_FUZZ_SEEDS") == "" {
		for target := range targetSeeds {
			entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", target))
			if err != nil || len(entries) == 0 {
				t.Fatalf("regression corpus for %s missing (rerun with UPDATE_FUZZ_SEEDS=1): %v", target, err)
			}
		}
		return
	}
	for target, seedFn := range targetSeeds {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seedFn(t) {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
