package jpegcodec

// The decode read path's three kernels checked against the formulations
// they replaced: the lookahead Huffman decoder against the bit-serial
// MAXCODE walk, the pixel store's rounding against math.Round plus a
// clamp, and the fused RGBInto against a separate upsample pass followed
// by the per-pixel float color formula. Each must agree exactly:
// symbols, bits consumed and errors; bytes; pixels.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/imgutil"
)

// decodeBitSerial is the Huffman decode the lookahead table replaced:
// one ReadBit per code bit through MINCODE/MAXCODE (T.81 F.2.2.3).
func decodeBitSerial(t *decTable, br *bitio.Reader) (uint8, error) {
	code := int32(0)
	for length := 1; length <= 16; length++ {
		bit, err := br.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | int32(bit)
		if t.maxCode[length] >= 0 && code <= t.maxCode[length] && code >= t.minCode[length] {
			return t.values[t.valPtr[length]+code-t.minCode[length]], nil
		}
	}
	return 0, fmt.Errorf("jpegcodec: invalid huffman code (no symbol within 16 bits)")
}

// randomSpec returns a canonical Huffman spec of one of three shapes: a
// single symbol at a random length, a full code space (a random full
// binary tree, Kraft sum exactly 1) or a sparse one (the same with
// leaves removed). Splitting the deepest leaf half the time drives code
// lengths toward 16.
func randomSpec(rng *rand.Rand, kind int) *HuffmanSpec {
	spec := &HuffmanSpec{}
	if kind == 0 {
		spec.Counts[rng.Intn(16)] = 1
		spec.Values = []uint8{uint8(rng.Intn(256))}
		return spec
	}
	depths := []int{1, 1}
	for n := 2 + rng.Intn(255); len(depths) < n; {
		i := rng.Intn(len(depths))
		if rng.Intn(2) == 0 {
			for j, d := range depths {
				if d > depths[i] && d < 16 {
					i = j
				}
			}
		}
		if depths[i] == 16 {
			continue
		}
		depths[i]++
		depths = append(depths, depths[i])
	}
	if kind == 2 {
		rng.Shuffle(len(depths), func(a, b int) { depths[a], depths[b] = depths[b], depths[a] })
		depths = depths[:1+rng.Intn(len(depths))]
	}
	for _, d := range depths {
		spec.Counts[d-1]++
	}
	for _, v := range rng.Perm(256)[:len(depths)] {
		spec.Values = append(spec.Values, uint8(v))
	}
	return spec
}

// huffOp is one step of a decode plan: a symbol decode, or a raw read of
// n bits standing in for the magnitude bits that follow a symbol.
type huffOp struct {
	symbol bool
	n      uint
}

// TestHuffmanDecodeOracle runs the lookahead decoder and the bit-serial
// walk side by side over random canonical specs (code lengths 1–16,
// full and sparse code spaces, one-symbol tables, plus the Annex K
// tables). Each stream mixes coded symbols, raw magnitude bits and
// random garbage, and is cut at every byte offset and ended by a plain
// end of input, a dangling 0xFF, a marker or a fill run and a marker.
// Both decoders follow the same plan on their own readers; symbols,
// raw bits (which expose the bits consumed) and errors must agree at
// every step, and so must the marker read after the first error.
func TestHuffmanDecodeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	specs := []*HuffmanSpec{&StdDCLuminance, &StdACLuminance, &StdDCChrominance, &StdACChrominance}
	for i := 0; i < 300; i++ {
		specs = append(specs, randomSpec(rng, i%3))
	}
	var lengths [17]bool
	endings := [][]byte{nil, {0xFF}, {0xFF, 0xD9}, {0xFF, 0xFF, 0xD3}}
	var tab decTable
	for si, spec := range specs {
		if err := tab.init(spec); err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		enc, err := buildEncTable(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		var plan []huffOp
		for len(plan) < 60 {
			switch k := rng.Intn(10); {
			case k < 6:
				v := spec.Values[rng.Intn(len(spec.Values))]
				lengths[enc.size[v]] = true
				if err := enc.emit(bw, v); err != nil {
					t.Fatal(err)
				}
				plan = append(plan, huffOp{symbol: true})
			case k < 9:
				n := uint(rng.Intn(12))
				if err := bw.WriteBits(rng.Uint32(), n); err != nil {
					t.Fatal(err)
				}
				plan = append(plan, huffOp{n: n})
			default: // garbage: likely an unassigned or misaligned code
				if err := bw.WriteBits(rng.Uint32(), 16); err != nil {
					t.Fatal(err)
				}
				plan = append(plan, huffOp{symbol: true})
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for cut := 0; cut <= len(data); cut++ {
			for _, end := range endings {
				stream := append(bytes.Clone(data[:cut]), end...)
				if err := compareHuffmanDecodes(&tab, plan, stream); err != nil {
					t.Fatalf("spec %d %v, stream % X: %v", si, spec.Counts, stream, err)
				}
			}
		}
	}
	for l := 1; l <= 16; l++ {
		if !lengths[l] {
			t.Errorf("no %d-bit code exercised", l)
		}
	}
}

func compareHuffmanDecodes(tab *decTable, plan []huffOp, stream []byte) error {
	fast := bitio.NewReader(bytes.NewReader(stream))
	slow := bitio.NewReader(bytes.NewReader(stream))
	for i, op := range plan {
		var gv, wv uint32
		var gerr, werr error
		if op.symbol {
			var g, w uint8
			g, gerr = tab.decode(fast)
			w, werr = decodeBitSerial(tab, slow)
			gv, wv = uint32(g), uint32(w)
		} else {
			gv, gerr = fast.ReadBits(op.n)
			wv, werr = slow.ReadBits(op.n)
		}
		if gv != wv || (gerr == nil) != (werr == nil) {
			return fmt.Errorf("step %d: lookahead %#x, %v; bit-serial %#x, %v", i, gv, gerr, wv, werr)
		}
		if gerr == nil {
			continue
		}
		for _, target := range []error{bitio.ErrMarker, io.EOF} {
			if errors.Is(gerr, target) != errors.Is(werr, target) {
				return fmt.Errorf("step %d: lookahead error %v, bit-serial %v", i, gerr, werr)
			}
		}
		if gerr.Error() != werr.Error() {
			return fmt.Errorf("step %d: lookahead error %q, bit-serial %q", i, gerr, werr)
		}
		gm, gerr := fast.ReadMarker()
		wm, werr := slow.ReadMarker()
		if gm != wm || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Errorf("after step %d: ReadMarker %#x, %v; bit-serial %#x, %v", i, gm, gerr, wm, werr)
		}
		return nil
	}
	return nil
}

// TestRoundToSampleOracle holds the pixel store's rounding to math.Round
// plus a clamp within 64 ulps of every half-integer in [−300, 600], where
// rounding changes its answer, and at the extremes.
func TestRoundToSampleOracle(t *testing.T) {
	want := func(v float64) uint8 {
		r := math.Round(v)
		if r < 0 {
			r = 0
		} else if r > 255 {
			r = 255
		}
		return uint8(r)
	}
	check := func(v float64) {
		if got, w := roundToSample(v), want(v); got != w {
			t.Fatalf("roundToSample(%v [%#016x]) = %d, math.Round+clamp %d", v, math.Float64bits(v), got, w)
		}
	}
	for k := -300; k < 600; k++ {
		v := float64(k) + 0.5
		for i := 0; i < 64; i++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		for i := -64; i <= 64; i++ {
			check(v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	check(0.5 - 0x1p-54) // where v+0.5 rounds up to 1 but math.Round gives 0
	for _, v := range []float64{0, math.Copysign(0, -1), 255, 1e300, -1e300, math.Inf(1), math.Inf(-1)} {
		check(v)
	}
}

// rgbOracle is RGBInto as the decoder computed it before the fused
// kernel: every chroma plane upsampled to frame size in a pass of its
// own (a division per pixel), then the per-pixel float color formula.
// Frame-sized chroma is read one to one when the Cb plane is frame-sized.
func rgbOracle(d *Decoded) []uint8 {
	clamp8 := func(v float64) uint8 {
		if v <= 0 {
			return 0
		}
		if v >= 255 {
			return 255
		}
		return uint8(v + 0.5)
	}
	if d.Components == 1 {
		p := d.planes[0]
		out := make([]uint8, 0, 3*p.w*p.h)
		for _, v := range p.pix[:p.w*p.h] {
			g := clamp8(float64(v))
			out = append(out, g, g, g)
		}
		return out
	}
	w, h := d.W, d.H
	cbDirect := d.planes[1].w == w && d.planes[1].h == h
	up := func(i int) []uint8 {
		p := d.planes[i]
		if cbDirect && p.w == w && p.h == h {
			return p.pix
		}
		out := make([]uint8, w*h)
		for y := 0; y < h; y++ {
			sy := min(y*p.vs/d.maxV, p.h-1)
			for x := 0; x < w; x++ {
				out[y*w+x] = p.pix[sy*p.w+min(x*p.hs/d.maxH, p.w-1)]
			}
		}
		return out
	}
	cbs, crs := up(1), up(2)
	out := make([]uint8, 3*w*h)
	for i := range w * h {
		y := float64(d.planes[0].pix[i])
		cb := float64(cbs[i]) - 128
		cr := float64(crs[i]) - 128
		out[3*i] = clamp8(y + 1.402*cr)
		out[3*i+1] = clamp8(y - 0.344136*cb - 0.714136*cr)
		out[3*i+2] = clamp8(y + 1.772*cb)
	}
	return out
}

// encodeWithFactors encodes a w×h frame whose three components carry
// arbitrary sampling factors — layouts the encoder's Subsampling option
// cannot express — with pseudo-random plane content.
func encodeWithFactors(t *testing.T, w, h int, factors [3][2]int) []byte {
	t.Helper()
	maxH, maxV := 1, 1
	for _, f := range factors {
		maxH, maxV = max(maxH, f[0]), max(maxV, f[1])
	}
	rng := rand.New(rand.NewSource(int64(w*1000 + h)))
	comps := make([]*component, 3)
	for i, f := range factors {
		cw, ch := (w*f[0]+maxH-1)/maxH, (h*f[1]+maxV-1)/maxV
		pix := make([]uint8, cw*ch)
		rng.Read(pix)
		tq := min(i, 1)
		comps[i] = &component{id: uint8(i + 1), h: f[0], v: f[1], tq: tq, td: tq, ta: tq, w: cw, hgt: ch, pix: pix}
	}
	o := Options{}.withDefaults()
	var buf bytes.Buffer
	if err := encode(&buf, w, h, comps, &o, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRGBIntoOracle compares RGBInto — into a fresh and into a reused
// image — with the oracle over the five named chroma layouts and
// grayscale at edge sizes, and over mixed-factor layouts: chroma
// components with factors of their own, and frame-sized chroma planes at
// fractional ratios, where the one-to-one read applies.
func TestRGBIntoOracle(t *testing.T) {
	streams := map[string][]byte{}
	sizes := [][2]int{{1, 1}, {9, 9}, {17, 23}, {33, 7}, {255, 1}}
	for _, sz := range sizes {
		img := testImageRGB(sz[0], sz[1], int64(sz[0]+sz[1]))
		for _, sub := range []Subsampling{Sub444, Sub420, Sub422, Sub440, Sub411} {
			var buf bytes.Buffer
			if err := EncodeRGB(&buf, img, &Options{Subsampling: sub}); err != nil {
				t.Fatal(err)
			}
			streams[fmt.Sprintf("%s/%dx%d", sub, sz[0], sz[1])] = buf.Bytes()
		}
		var buf bytes.Buffer
		if err := EncodeGray(&buf, img.ToGray(), nil); err != nil {
			t.Fatal(err)
		}
		streams[fmt.Sprintf("gray/%dx%d", sz[0], sz[1])] = buf.Bytes()
	}
	// Cb at luma resolution, Cr subsampled: frame-sized Cb reads one to
	// one, Cr maps through its own factors.
	streams["mixed/Y22-Cb22-Cr11/9x7"] = encodeWithFactors(t, 9, 7, [3][2]int{{2, 2}, {2, 2}, {1, 1}})
	// A 2-wide frame at 3:2:1 horizontal factors: the Cb plane is
	// frame-sized (⌈2·2/3⌉ = 2) though its ratio is 2/3.
	streams["mixed/Y31-Cb21-Cr11/2x1"] = encodeWithFactors(t, 2, 1, [3][2]int{{3, 1}, {2, 1}, {1, 1}})
	// The same with Cb and Cr swapped: Cb is not frame-sized, so the
	// frame-sized Cr plane maps through its 2/3 ratio.
	streams["mixed/Y31-Cb11-Cr21/2x3"] = encodeWithFactors(t, 2, 3, [3][2]int{{3, 1}, {1, 1}, {2, 1}})
	streams["mixed/Y32-Cb12-Cr21/19x13"] = encodeWithFactors(t, 19, 13, [3][2]int{{3, 2}, {1, 2}, {2, 1}})
	reused := &imgutil.RGB{}
	var dec Decoded
	for name, data := range streams {
		if err := DecodeInto(bytes.NewReader(data), &dec, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := rgbOracle(&dec)
		fresh := dec.RGBInto(nil)
		reused = dec.RGBInto(reused)
		for _, got := range []*imgutil.RGB{fresh, reused} {
			if got.W != dec.W || got.H != dec.H || !bytes.Equal(got.Pix, want) {
				t.Fatalf("%s: RGBInto (%dx%d) differs from the oracle", name, got.W, got.H)
			}
		}
	}
}
