package jpegcodec

// The encoder's sparse path: the quantizer's zero threshold, the block
// extents it and Requantize record, and the emit that stops at them.
// The threshold is held to the per-coefficient quantize reference at
// its edges; the extents are held to the coefficients they bound; and
// every stream written with the recorded extents is held to the stream
// written with every extent at 63, which scans all 63 AC positions.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// TestQuantizeRunThresholdEdges puts each input, a function of the band's
// fused divisor d and zero threshold thr = fl(zeroThreshold·d), into one
// band of a block that also holds a nonzero DC and a nonzero zigzag-2
// band, for the DC band, low and high AC bands, and quantizes the blocks
// as one run with and without a mask over the tested bands. The inputs
// include the least and greatest v whose square rounds to the squared
// threshold fl(thr·thr), where the zero test flips, and their outer
// neighbours. Every output must equal the per-coefficient quantize
// reference (0 in a masked band), the unmasked tested band must quantize
// to want, and every recorded extent must be the block's last nonzero
// zigzag index.
func TestQuantizeRunThresholdEdges(t *testing.T) {
	var div qtable.FwdScaled
	qtable.StdLuminance.FwdScaledInto(&div)
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	tests := []struct {
		name  string
		input func(d, thr float64) float64
		want  int32 // the tested band's quantized value without a mask
	}{
		{"+threshold", func(d, thr float64) float64 { return thr }, 0},
		{"-threshold", func(d, thr float64) float64 { return -thr }, 0},
		{"+threshold above", func(d, thr float64) float64 { return up(thr) }, 0},
		{"+threshold below", func(d, thr float64) float64 { return down(thr) }, 0},
		{"-threshold above", func(d, thr float64) float64 { return up(-thr) }, 0},
		{"-threshold below", func(d, thr float64) float64 { return down(-thr) }, 0},
		{"+square least", func(d, thr float64) float64 { lo, _ := squareRun(thr); return lo }, 0},
		{"+square least below", func(d, thr float64) float64 { lo, _ := squareRun(thr); return down(lo) }, 0},
		{"+square greatest", func(d, thr float64) float64 { _, hi := squareRun(thr); return hi }, 0},
		{"+square greatest above", func(d, thr float64) float64 { _, hi := squareRun(thr); return up(hi) }, 0},
		{"-square least", func(d, thr float64) float64 { lo, _ := squareRun(thr); return -lo }, 0},
		{"-square least above", func(d, thr float64) float64 { lo, _ := squareRun(thr); return -down(lo) }, 0},
		{"-square greatest", func(d, thr float64) float64 { _, hi := squareRun(thr); return -hi }, 0},
		{"-square greatest below", func(d, thr float64) float64 { _, hi := squareRun(thr); return -up(hi) }, 0},
		{"+half", func(d, thr float64) float64 { return 0.5 * d }, 1},
		{"-half", func(d, thr float64) float64 { return -0.5 * d }, -1},
		{"+half below", func(d, thr float64) float64 { return down(0.5 * d) }, 1},
		{"-half above", func(d, thr float64) float64 { return up(-0.5 * d) }, -1},
		{"+(half+1e-9)", func(d, thr float64) float64 { return (0.5 + 1e-9) * d }, 1},
		{"-(half+1e-9)", func(d, thr float64) float64 { return -(0.5 + 1e-9) * d }, -1},
		{"+(half-1e-9)", func(d, thr float64) float64 { return (0.5 - 1e-9) * d }, 0},
		{"-(half-1e-9)", func(d, thr float64) float64 { return -(0.5 - 1e-9) * d }, 0},
		{"+(half-1e-10)", func(d, thr float64) float64 { return (0.5 - 1e-10) * d }, 1},
		{"-(half-1e-10)", func(d, thr float64) float64 { return -(0.5 - 1e-10) * d }, -1},
		{"+0", func(d, thr float64) float64 { return 0 }, 0},
		{"-0", func(d, thr float64) float64 { return math.Copysign(0, -1) }, 0},
		{"+1.5", func(d, thr float64) float64 { return 1.5 * d }, 2},
		{"NaN", func(d, thr float64) float64 { return math.NaN() }, math.MinInt32},
		{"+Inf", func(d, thr float64) float64 { return math.Inf(1) }, math.MinInt32},
	}
	bands := []int{0, 1, 8, 9, 27, 35, 63} // natural order
	var mask qtable.ZeroMask
	for _, i := range bands {
		mask[i] = true
	}
	var unmasked, sq [64]float64
	zeroThresholds(&sq, &div, nil)
	for i, d := range div {
		unmasked[i] = zeroThreshold * d
		if sq[i] != unmasked[i]*unmasked[i] {
			t.Fatalf("band %d: squared threshold %v, want fl(t·t) = %v for t = %v", i, sq[i], unmasked[i]*unmasked[i], unmasked[i])
		}
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, m := range []*qtable.ZeroMask{nil, &mask} {
				var thr [64]float64
				zeroThresholds(&thr, &div, m)
				plane := make([]float64, len(bands)*64)
				for bi, i := range bands {
					b := plane[bi*64 : bi*64+64]
					b[0] = 3 * div[0]
					b[8] = -2 * div[8]
					b[i] = tt.input(div[i], unmasked[i])
				}
				src := slices.Clone(plane)
				got := make([][64]int32, len(bands))
				ext := make([]uint8, len(bands))
				for bi := range got {
					for k := range got[bi] {
						got[bi][k] = -99 // stale pooled data must be overwritten
					}
					ext[bi] = 99
				}
				quantizeRunInto(got, ext, plane, &div, &thr, m)
				for bi, i := range bands {
					var want [64]int32
					for k := range want {
						if m == nil || !m[k] {
							want[k] = quantize(src[bi*64+k], div[k])
						}
					}
					in := src[bi*64+i]
					if m == nil && got[bi][i] != tt.want {
						t.Errorf("band %d: input %v (d=%v) quantizes to %d, want %d", i, in, div[i], got[bi][i], tt.want)
					}
					// quantize converts NaN and ±Inf to int32 as amd64 does
					// only there; a masked band never converts them.
					comparable := m != nil || oracleComparable() || !math.IsNaN(in) && !math.IsInf(in, 0)
					if comparable && got[bi] != want {
						t.Errorf("mask=%v band %d: quantizeRunInto %v, quantize %v", m != nil, i, got[bi], want)
					}
					if ext[bi] != lastNonzero(&got[bi]) {
						t.Errorf("mask=%v band %d: extent %d, last nonzero zigzag index %d", m != nil, i, ext[bi], lastNonzero(&got[bi]))
					}
				}
			}
		})
	}
}

// squareRun returns the least and greatest positive float64 whose square
// rounds to fl(t·t): the inputs on which quantizeRunInto's squared zero
// test meets the squared threshold of a band whose threshold is t.
func squareRun(t float64) (lo, hi float64) {
	sq := t * t
	lo, hi = t, t
	for v := math.Nextafter(lo, 0); v*v == sq; v = math.Nextafter(v, 0) {
		lo = v
	}
	for v := math.Nextafter(hi, math.Inf(1)); v*v == sq; v = math.Nextafter(v, math.Inf(1)) {
		hi = v
	}
	return lo, hi
}

// TestEncodeExtents runs the encoder's stages on a frame for every
// stream shape and holds each component to its recorded extents: every
// extent is exactly the block's last nonzero zigzag index. The stream
// emitted with the extents must equal the one emitted with every extent
// at 63 and the one EncodeRGB or EncodeGray writes, and it must decode
// back to the encoder's coefficients.
func TestEncodeExtents(t *testing.T) {
	big := testImageRGB(512, 512, 91) // 1024 MCUs at 4:2:0
	small := testImageRGB(77, 45, 92)
	gray := testImageGray(61, 50, 93)
	for _, tc := range []struct {
		name string
		rgb  *imgutil.RGB
		opts Options
	}{
		{"sequential/4:2:0", small, Options{}},
		{"sequential/4:4:4", small, Options{Subsampling: Sub444}},
		{"sequential/4:2:2", small, Options{Subsampling: Sub422}},
		{"optimize", small, Options{OptimizeHuffman: true}},
		{"gray", nil, Options{}},
		{"gray/optimize", nil, Options{OptimizeHuffman: true, RestartInterval: 3}},
		{"restart-sharded", big, Options{RestartInterval: 16, ShardWorkers: 2}},
		{"restart-sharded/optimize", big, Options{RestartInterval: 16, ShardWorkers: 2, OptimizeHuffman: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts.withDefaults()
			s := getEncScratch()
			defer putEncScratch(s)
			var comps []*component
			var public bytes.Buffer
			w, h := gray.W, gray.H
			if tc.rgb != nil {
				fh, fv, _ := o.Subsampling.factors()
				comps = s.rgbComponents(tc.rgb, fh, fv)
				w, h = tc.rgb.W, tc.rgb.H
				if err := EncodeRGB(&public, tc.rgb, &tc.opts); err != nil {
					t.Fatal(err)
				}
			} else {
				s.comps[0] = component{id: 1, h: 1, v: 1, w: gray.W, hgt: gray.H, pix: gray.Pix}
				comps = s.components(1)
				if err := EncodeGray(&public, gray, &tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			mcusX, mcusY := transformComponents(tc.rgb, w, h, comps, &o, s)
			for ci, c := range comps {
				checkBlockExtents(t, c.coefs, c.ext, true, fmt.Sprintf("%s: component %d", tc.name, ci))
			}
			var got bytes.Buffer
			if err := encodeTail(&got, w, h, comps, mcusX, mcusY, &o); err != nil {
				t.Fatal(err)
			}
			exts := make([][]uint8, len(comps))
			for ci, c := range comps {
				exts[ci], c.ext = c.ext, nil // reads as 63 everywhere
			}
			var full bytes.Buffer
			if err := encodeTail(&full, w, h, comps, mcusX, mcusY, &o); err != nil {
				t.Fatal(err)
			}
			for ci, c := range comps {
				c.ext = exts[ci]
			}
			if !bytes.Equal(got.Bytes(), full.Bytes()) {
				t.Fatalf("the extent-bounded emit differs from the full scan (%d vs %d bytes)", got.Len(), full.Len())
			}
			if !bytes.Equal(got.Bytes(), public.Bytes()) {
				t.Fatalf("the staged encode differs from the public one (%d vs %d bytes)", got.Len(), public.Len())
			}
			dec, err := Decode(bytes.NewReader(got.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range comps {
				for k := range c.coefs {
					if dec.coefs[ci][k] != c.coefs[k] {
						t.Fatalf("component %d block %d decodes as %v, encoded %v", ci, k, dec.coefs[ci][k], c.coefs[k])
					}
				}
			}
		})
	}
}

// TestRequantizeExtents requantizes baseline, progressive and
// non-interleaved sources, with and without a mask. The walk bounded by
// the decoder's extents must give the coefficients of the full walk,
// with output extents that are exactly each block's last nonzero
// zigzag index, and Requantize must write the stream it writes when
// every source extent is 63.
func TestRequantizeExtents(t *testing.T) {
	base := encodeToBytes(t, testImageRGB(64, 48, 94), &Options{RestartInterval: 2})
	src, err := Decode(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	rmhf := qtable.TopZigZag(40)
	luma := qtable.MustScale(qtable.StdLuminance, 30)
	chroma := qtable.MustScale(qtable.StdChrominance, 30)
	prog := progEncode(t, src, stdProgressionScript, 0)
	for _, tc := range []struct {
		name        string
		stream      []byte
		mask        *qtable.ZeroMask
		progressive bool // every source extent is 63
	}{
		{"baseline", base, nil, false},
		{"baseline/mask", base, &rmhf, false},
		{"progressive", prog, nil, true},
		{"progressive/mask", prog, &rmhf, true},
		{"non-interleaved", encodeNonInterleaved(t, src, 0), nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := Decode(bytes.NewReader(tc.stream))
			if err != nil {
				t.Fatal(err)
			}
			checkExtents(t, dec, tc.name)
			for ci := 0; ci < dec.Components; ci++ {
				from := dec.QuantTables[dec.planes[ci].tq]
				to := &luma
				if ci > 0 {
					to = &chroma
				}
				srcCoefs, srcExt := dec.coefs[ci], dec.ext[ci]
				if tc.progressive && slices.Min(srcExt) != 63 {
					t.Fatalf("component %d: a progressive source block has extent %d, want 63", ci, slices.Min(srcExt))
				}
				got := make([][64]int32, len(srcCoefs))
				gotExt := make([]uint8, len(srcCoefs))
				requantizeBlocks(got, srcCoefs, gotExt, srcExt, &from, to, tc.mask)
				full := make([][64]int32, len(srcCoefs))
				requantizeBlocks(full, srcCoefs, make([]uint8, len(srcCoefs)), bytes.Repeat([]uint8{63}, len(srcCoefs)), &from, to, tc.mask)
				checkBlockExtents(t, got, gotExt, true, tc.name)
				for k := range got {
					if got[k] != full[k] {
						t.Fatalf("component %d block %d: walk to extent %d gives %v, full walk %v", ci, k, srcExt[k], got[k], full[k])
					}
					if gotExt[k] > srcExt[k] {
						t.Fatalf("component %d block %d: output extent %d past source extent %d", ci, k, gotExt[k], srcExt[k])
					}
				}
			}
			opts := &Options{ZeroMask: tc.mask}
			var bounded bytes.Buffer
			if err := Requantize(&bounded, dec, luma, chroma, opts); err != nil {
				t.Fatal(err)
			}
			for ci := 0; ci < dec.Components; ci++ {
				for k := range dec.ext[ci] {
					dec.ext[ci][k] = 63
				}
			}
			var full bytes.Buffer
			if err := Requantize(&full, dec, luma, chroma, opts); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bounded.Bytes(), full.Bytes()) {
				t.Fatalf("Requantize over the recorded extents differs from the full walk (%d vs %d bytes)", bounded.Len(), full.Len())
			}
		})
	}
}
