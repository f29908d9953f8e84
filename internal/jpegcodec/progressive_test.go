package jpegcodec

// Progressive-decode interop suite. Every case starts from a baseline
// encode of a deterministic test image, re-emits its coefficient planes
// as either a progressive (SOF2) stream or a non-interleaved baseline
// stream (progenc_test.go), and then pins the decoder three ways:
// coefficient-identical to the baseline decode, within the usual
// ≤2-level IDCT/color envelope of stdlib image/jpeg on the same bytes,
// and byte-identical through Requantize — transcoding a progressive
// source must produce exactly the bytes the baseline source produces,
// because by the time Requantize runs the two decodes are the same
// coefficient planes. The generated streams are also checked in under
// testdata/progressive (regenerate with UPDATE_PROGRESSIVE_FIXTURES=1)
// so the corpus survives as real files.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/qtable"
)

// progCase is one interop fixture: a baseline source stream and the
// re-emission that must decode identically to it. A nil script selects
// the non-interleaved baseline writer instead of the progressive one.
//
// skipStdlib marks DRI cases with subsampled luma: T.81 counts the
// restart interval of a non-interleaved scan in that scan's data units
// (as libjpeg and this decoder do), but Go's image/jpeg counts frame
// MCUs for every scan shape, so the two decoders place RSTn at
// different offsets whenever luma h×v > 1. Those fixtures are pinned
// ours-vs-ours; the 4:4:4 DRI cases, where the cadences coincide,
// carry the stdlib pin.
type progCase struct {
	name       string
	gray       bool
	sub        Subsampling
	w, h       int
	seed       int64
	ri         int
	skipStdlib bool
	script     []progScan
}

// stdProgressionScript is libjpeg's jpeg_simple_progression layout for
// 3-component images: a reduced-precision DC scan, spectral AC bands,
// then one refinement pass per band plus a DC refinement — the
// "refinement-heavy" shape real encoders emit.
var stdProgressionScript = []progScan{
	{comps: []int{0, 1, 2}, ss: 0, se: 0, ah: 0, al: 1},
	{comps: []int{0}, ss: 1, se: 5, ah: 0, al: 2},
	{comps: []int{1}, ss: 1, se: 63, ah: 0, al: 1},
	{comps: []int{2}, ss: 1, se: 63, ah: 0, al: 1},
	{comps: []int{0}, ss: 6, se: 63, ah: 0, al: 2},
	{comps: []int{0}, ss: 1, se: 63, ah: 2, al: 1},
	{comps: []int{0, 1, 2}, ss: 0, se: 0, ah: 1, al: 0},
	{comps: []int{1}, ss: 1, se: 63, ah: 1, al: 0},
	{comps: []int{2}, ss: 1, se: 63, ah: 1, al: 0},
	{comps: []int{0}, ss: 1, se: 63, ah: 1, al: 0},
}

var progCases = []progCase{
	{name: "rgb444-spectral", sub: Sub444, w: 48, h: 32, seed: 11, script: []progScan{
		{comps: []int{0, 1, 2}, ss: 0, se: 0},
		{comps: []int{0}, ss: 1, se: 5},
		{comps: []int{1}, ss: 1, se: 5},
		{comps: []int{2}, ss: 1, se: 5},
		{comps: []int{0}, ss: 6, se: 63},
		{comps: []int{1}, ss: 6, se: 63},
		{comps: []int{2}, ss: 6, se: 63},
	}},
	{name: "rgb420-standard", sub: Sub420, w: 67, h: 45, seed: 23, script: stdProgressionScript},
	{name: "rgb420-dri", sub: Sub420, w: 64, h: 48, seed: 31, ri: 3, skipStdlib: true, script: stdProgressionScript},
	{name: "rgb444-dri", sub: Sub444, w: 41, h: 30, seed: 37, ri: 2, script: stdProgressionScript},
	{name: "rgb422-splitdc", sub: Sub422, w: 41, h: 27, seed: 47, script: []progScan{
		// DC coded in two partial-interleave scans, refined in two more.
		{comps: []int{0}, ss: 0, se: 0, ah: 0, al: 2},
		{comps: []int{1, 2}, ss: 0, se: 0, ah: 0, al: 2},
		{comps: []int{0}, ss: 0, se: 0, ah: 2, al: 1},
		{comps: []int{1, 2}, ss: 0, se: 0, ah: 2, al: 1},
		{comps: []int{0, 1, 2}, ss: 0, se: 0, ah: 1, al: 0},
		{comps: []int{0}, ss: 1, se: 63, ah: 0, al: 1},
		{comps: []int{1}, ss: 1, se: 63, ah: 0, al: 1},
		{comps: []int{2}, ss: 1, se: 63, ah: 0, al: 1},
		{comps: []int{0}, ss: 1, se: 63, ah: 1, al: 0},
		{comps: []int{1}, ss: 1, se: 63, ah: 1, al: 0},
		{comps: []int{2}, ss: 1, se: 63, ah: 1, al: 0},
	}},
	{name: "gray-refine", gray: true, w: 35, h: 29, seed: 7, script: []progScan{
		{comps: []int{0}, ss: 0, se: 0, ah: 0, al: 1},
		{comps: []int{0}, ss: 1, se: 63, ah: 0, al: 1},
		{comps: []int{0}, ss: 0, se: 0, ah: 1, al: 0},
		{comps: []int{0}, ss: 1, se: 63, ah: 1, al: 0},
	}},
	{name: "nonint-rgb444", sub: Sub444, w: 21, h: 17, seed: 13},
	{name: "nonint-rgb420-pad", sub: Sub420, w: 67, h: 45, seed: 29},
	{name: "nonint-rgb420-dri", sub: Sub420, w: 64, h: 48, seed: 17, ri: 4, skipStdlib: true},
	{name: "nonint-rgb444-dri", sub: Sub444, w: 41, h: 30, seed: 19, ri: 5},
	{name: "nonint-gray-dri", gray: true, w: 33, h: 26, seed: 3, ri: 5},
}

// padFree reports whether every component's block grid equals its
// unpadded (ceil of the sample dimensions) grid. Interleaved baseline
// scans code the MCU-padding blocks; progressive and non-interleaved
// scans never visit them, so on padded geometry the two decodes agree
// on every pixel and every in-image block but not on pad-block AC
// coefficients.
func padFree(d *Decoded) bool {
	for i := 0; i < d.Components; i++ {
		if d.blocksX[i] != (d.planes[i].w+7)/8 || d.blocksY[i] != (d.planes[i].h+7)/8 {
			return false
		}
	}
	return true
}

// progDecodedEqual is decodedEqual minus the pad blocks: geometry and
// pixels must match exactly, coefficients only over each component's
// unpadded block region.
func progDecodedEqual(t *testing.T, want, got *Decoded, label string) {
	t.Helper()
	if padFree(want) {
		decodedEqual(t, want, got, label)
		return
	}
	if want.W != got.W || want.H != got.H || want.Components != got.Components ||
		want.RestartInterval != got.RestartInterval {
		t.Fatalf("%s: decode geometry differs", label)
	}
	if !bytes.Equal(want.RGB().Pix, got.RGB().Pix) {
		t.Fatalf("%s: RGB pixels differ", label)
	}
	for i := 0; i < want.Components; i++ {
		wc, wx, _ := want.Coefficients(i)
		gc, gx, _ := got.Coefficients(i)
		if wx != gx || len(wc) != len(gc) {
			t.Fatalf("%s: component %d grids differ", label, i)
		}
		sbw := (want.planes[i].w + 7) / 8
		sbh := (want.planes[i].h + 7) / 8
		for by := 0; by < sbh; by++ {
			for bx := 0; bx < sbw; bx++ {
				if wc[by*wx+bx] != gc[by*wx+bx] {
					t.Fatalf("%s: component %d block (%d,%d) coefficients differ", label, i, bx, by)
				}
			}
		}
	}
}

func caseByName(t testing.TB, name string) *progCase {
	t.Helper()
	for i := range progCases {
		if progCases[i].name == name {
			return &progCases[i]
		}
	}
	t.Fatalf("no progressive case named %q", name)
	return nil
}

// baselineStream encodes the case's deterministic test image as an
// ordinary interleaved baseline stream — the coefficient reference.
// The restart interval matches the fixture's so the decodes agree on
// every Decoded field, not just planes.
func (c *progCase) baselineStream(t testing.TB) []byte {
	opts := &Options{
		LumaTable:       qtable.MustScale(qtable.StdLuminance, 85),
		ChromaTable:     qtable.MustScale(qtable.StdChrominance, 85),
		Subsampling:     c.sub,
		RestartInterval: c.ri,
	}
	var buf bytes.Buffer
	var err error
	if c.gray {
		err = EncodeGray(&buf, testImageGray(c.w, c.h, c.seed), opts)
	} else {
		err = EncodeRGB(&buf, testImageRGB(c.w, c.h, c.seed), opts)
	}
	if err != nil {
		t.Fatalf("%s: baseline encode: %v", c.name, err)
	}
	return buf.Bytes()
}

// fixtureStream builds the case's progressive or non-interleaved
// re-emission of the baseline coefficients.
func (c *progCase) fixtureStream(t testing.TB) []byte {
	base, err := Decode(bytes.NewReader(c.baselineStream(t)))
	if err != nil {
		t.Fatalf("%s: baseline decode: %v", c.name, err)
	}
	if c.script == nil {
		return encodeNonInterleaved(t, base, c.ri)
	}
	return progEncode(t, base, c.script, c.ri)
}

// TestProgressiveMatchesBaseline pins the refactor's core contract:
// decoding the re-emitted stream yields the same Decoded — geometry,
// pixels through both output paths, and every raw coefficient — as
// decoding the interleaved baseline stream it was built from.
func TestProgressiveMatchesBaseline(t *testing.T) {
	for i := range progCases {
		c := &progCases[i]
		t.Run(c.name, func(t *testing.T) {
			base := decodeAll(t, c.baselineStream(t), nil)
			got := decodeAll(t, c.fixtureStream(t), nil)
			if wantProg := c.script != nil; got.Progressive != wantProg {
				t.Fatalf("Progressive = %v, want %v", got.Progressive, wantProg)
			}
			if base.Progressive {
				t.Fatal("baseline decode reports Progressive")
			}
			progDecodedEqual(t, base, got, c.name)
		})
	}
}

// TestProgressiveVsStdlib pins the same streams against image/jpeg:
// identical coefficients leave only IDCT and color-conversion rounding,
// the ≤2-level envelope every interop test in this package uses.
func TestProgressiveVsStdlib(t *testing.T) {
	for i := range progCases {
		c := &progCases[i]
		t.Run(c.name, func(t *testing.T) {
			if c.skipStdlib {
				t.Skip("stdlib counts non-interleaved restart intervals in frame MCUs; see progCase doc")
			}
			fix := c.fixtureStream(t)
			dec := decodeAll(t, fix, nil)
			if worst := maxPixelDelta(t, stdlibPix(t, fix), dec.RGB().Pix); worst > 2 {
				t.Fatalf("decoders disagree by up to %d levels, want ≤ 2", worst)
			}
		})
	}
}

// TestRequantizeProgressive is the transcoding payoff: requantizing a
// progressive (or non-interleaved) source emits the stream that
// requantizing the baseline source emits — byte-for-byte on pad-free
// geometry, pixel-for-pixel otherwise (pad blocks carry AC only in the
// interleaved source) — and stdlib decodes the result, so progressive
// inputs migrate losslessly into the baseline interleaved layout.
func TestRequantizeProgressive(t *testing.T) {
	luma := qtable.MustScale(qtable.StdLuminance, 60)
	chroma := qtable.MustScale(qtable.StdChrominance, 60)
	for i := range progCases {
		c := &progCases[i]
		t.Run(c.name, func(t *testing.T) {
			base := decodeAll(t, c.baselineStream(t), nil)
			prog := decodeAll(t, c.fixtureStream(t), nil)
			var fromBase, fromProg bytes.Buffer
			if err := Requantize(&fromBase, base, luma, chroma, nil); err != nil {
				t.Fatalf("requantize baseline: %v", err)
			}
			if err := Requantize(&fromProg, prog, luma, chroma, nil); err != nil {
				t.Fatalf("requantize fixture: %v", err)
			}
			out := decodeAll(t, fromProg.Bytes(), nil)
			if out.Progressive {
				t.Fatal("requantized output reports Progressive")
			}
			if padFree(base) {
				if !bytes.Equal(fromBase.Bytes(), fromProg.Bytes()) {
					t.Fatal("requantized bytes differ between baseline and re-emitted source")
				}
			} else if !bytes.Equal(decodeAll(t, fromBase.Bytes(), nil).RGB().Pix, out.RGB().Pix) {
				t.Fatal("requantized outputs decode to different pixels")
			}
			// stdlib must accept the transcode (it is plain baseline now).
			stdlibPix(t, fromProg.Bytes())
		})
	}
}

// TestProgressiveDecodeIntoReuse drives the pooled-grid zeroing policy:
// a large progressive decode leaves a populated coefficient grid in the
// destination, and a smaller sparse (non-interleaved) decode into the
// same Decoded must not inherit any of it.
func TestProgressiveDecodeIntoReuse(t *testing.T) {
	big := caseByName(t, "rgb420-standard").fixtureStream(t) // 67×45 color
	small := caseByName(t, "nonint-gray-dri").fixtureStream(t)
	want := decodeAll(t, small, nil) // fresh destination
	var dst Decoded
	if err := DecodeInto(bytes.NewReader(big), &dst, nil); err != nil {
		t.Fatalf("big decode: %v", err)
	}
	if err := DecodeInto(bytes.NewReader(small), &dst, nil); err != nil {
		t.Fatalf("small decode into reused dst: %v", err)
	}
	decodedEqual(t, want, &dst, "reused destination")
}

// TestProgressiveTruncatedRefinement cuts a refinement-heavy stream
// inside its last scan: the decoder must fail loudly, not return a
// silently skewed image.
func TestProgressiveTruncatedRefinement(t *testing.T) {
	fix := caseByName(t, "rgb420-standard").fixtureStream(t) // ends in AC refinement
	if _, err := Decode(bytes.NewReader(fix[:len(fix)-40])); err == nil {
		t.Fatal("decoder accepted a truncated refinement scan")
	}
}

// TestProgressiveFixturesCheckedIn keeps the generated corpus on disk
// current: every case's bytes must match testdata/progressive/<name>.jpg
// exactly. Run with UPDATE_PROGRESSIVE_FIXTURES=1 to regenerate.
func TestProgressiveFixturesCheckedIn(t *testing.T) {
	dir := filepath.Join("testdata", "progressive")
	update := os.Getenv("UPDATE_PROGRESSIVE_FIXTURES") != ""
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i := range progCases {
		c := &progCases[i]
		t.Run(c.name, func(t *testing.T) {
			want := c.fixtureStream(t)
			path := filepath.Join(dir, c.name+".jpg")
			if update {
				if err := os.WriteFile(path, want, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with UPDATE_PROGRESSIVE_FIXTURES=1): %v", err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s is stale (run with UPDATE_PROGRESSIVE_FIXTURES=1)", path)
			}
			// The checked-in bytes themselves must decode on both decoders
			// (ours only for the skipStdlib restart cadences).
			dec := decodeAll(t, got, nil)
			if c.skipStdlib {
				return
			}
			if worst := maxPixelDelta(t, stdlibPix(t, got), dec.RGB().Pix); worst > 2 {
				t.Fatalf("checked-in fixture disagrees with stdlib by %d levels", worst)
			}
		})
	}
}

// BenchmarkDecodeProgressive measures the multi-scan decode path on a
// standard-script 4:2:0 stream.
func BenchmarkDecodeProgressive(b *testing.B) {
	c := progCase{name: "bench", sub: Sub420, w: 256, h: 192, seed: 5, script: stdProgressionScript}
	fix := c.fixtureStream(b)
	var dst Decoded
	b.SetBytes(int64(3 * c.w * c.h)) // decoded pixels, like every decode benchmark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(bytes.NewReader(fix), &dst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequantizeProgressive measures the full progressive →
// baseline transcode: multi-scan decode plus coefficient-domain
// recode.
func BenchmarkRequantizeProgressive(b *testing.B) {
	c := progCase{name: "bench", sub: Sub420, w: 256, h: 192, seed: 5, script: stdProgressionScript}
	fix := c.fixtureStream(b)
	luma := qtable.MustScale(qtable.StdLuminance, 60)
	chroma := qtable.MustScale(qtable.StdChrominance, 60)
	var dst Decoded
	var out bytes.Buffer
	b.SetBytes(int64(3 * c.w * c.h))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(bytes.NewReader(fix), &dst, nil); err != nil {
			b.Fatal(err)
		}
		out.Reset()
		if err := Requantize(&out, &dst, luma, chroma, nil); err != nil {
			b.Fatal(err)
		}
	}
}
