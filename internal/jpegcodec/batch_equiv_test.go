package jpegcodec

// Batch-vs-block equivalence: every batch-stage helper in batch.go is
// pinned bit for bit against a per-block formulation (ExtractBlock+
// LevelShift, quantize, blockCoefficients, reconstructBlock+StoreBlock).
// The dimensions deliberately include partial edge blocks —
// right/bottom replication padding — and the fully out-of-range padding
// columns/rows a subsampled MCU grid adds (e.g. 4:2:0 luma at width 17
// carries a block column entirely past the pixel plane). On top of the
// helper pins, whole odd-dimension streams are exercised across both
// subsampling layouts.

import (
	"bytes"
	"image/jpeg"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dct"
	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// edgeDims are pixel-plane dimensions chosen to produce every gather
// shape: exact multiples of 8, single-pixel planes, partial right and
// bottom blocks, and (once MCU-padded) fully out-of-range block columns.
var edgeDims = []struct{ w, h int }{
	{1, 1}, {8, 8}, {9, 9}, {7, 3}, {16, 16}, {17, 23}, {24, 17}, {31, 32}, {65, 40},
}

func randPixPlane(rng *rand.Rand, w, h int) []uint8 {
	pix := make([]uint8, w*h)
	for i := range pix {
		pix[i] = uint8(rng.Intn(256))
	}
	return pix
}

// paddedGrid returns block-grid dimensions that include the MCU padding
// a 2×2-sampled component can carry: up to one whole block of pure
// replication past ceil(dim/8).
func paddedGrid(w, h int) (blocksX, blocksY int) {
	return 2 * ((w + 15) / 16), 2 * ((h + 15) / 16)
}

func TestGatherBlockRowMatchesExtractBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, dim := range edgeDims {
		pix := randPixPlane(rng, dim.w, dim.h)
		blocksX, blocksY := paddedGrid(dim.w, dim.h)
		plane := make([]float64, blocksX*64)
		for by := 0; by < blocksY; by++ {
			dct.GatherBlockRow(plane, pix, dim.w, dim.h, by, blocksX)
			for bx := 0; bx < blocksX; bx++ {
				var tile [64]uint8
				var want dct.Block
				imgutil.ExtractBlock(pix, dim.w, dim.h, bx, by, &tile)
				dct.LevelShift(tile[:], &want)
				got := (*dct.Block)(plane[bx*64:])
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%d block (%d,%d) sample %d: gather %v vs ExtractBlock+LevelShift %v",
							dim.w, dim.h, bx, by, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestQuantizeRunMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var tbl qtable.FwdScaled
	qtable.StdLuminance.FwdScaledInto(&tbl)
	mask := &qtable.ZeroMask{}
	for i := 32; i < 64; i++ {
		mask[i] = true
	}
	for _, m := range []*qtable.ZeroMask{nil, mask} {
		const blocks = 7
		plane := make([]float64, blocks*64)
		for i := range plane {
			switch rng.Intn(8) {
			case 0:
				// Exact rounding-boundary products: c/q lands on n+0.5.
				plane[i] = (float64(rng.Intn(40)-20) + 0.5) * tbl[i%64]
			case 1:
				plane[i] = 0
			default:
				plane[i] = float64(rng.Intn(4094)-2047) * rng.Float64()
			}
		}
		orig := make([]float64, len(plane))
		copy(orig, plane)
		got := make([][64]int32, blocks)
		for bi := range got {
			for i := range got[bi] {
				got[bi][i] = -99 // stale pooled data must be overwritten
			}
		}
		var thr [64]float64
		zeroThresholds(&thr, &tbl, m)
		quantizeRunInto(got, make([]uint8, blocks), plane, &tbl, &thr, m)
		for bi := 0; bi < blocks; bi++ {
			for i := 0; i < 64; i++ {
				want := int32(0)
				if m == nil || !m[i] {
					want = quantize(orig[bi*64+i], tbl[i])
				}
				if got[bi][i] != want {
					t.Fatalf("mask=%v block %d band %d: quantizeRunInto %d vs quantize %d (c=%v q=%v)",
						m != nil, bi, i, got[bi][i], want, orig[bi*64+i], tbl[i])
				}
			}
		}
	}
}

func TestStoreBlockRowMatchesStoreBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, dim := range edgeDims {
		blocksX, blocksY := paddedGrid(dim.w, dim.h)
		plane := make([]float64, blocksX*64)
		got := randPixPlane(rng, dim.w, dim.h)
		want := make([]uint8, len(got))
		copy(want, got)
		ext := bytes.Repeat([]uint8{63}, blocksX) // no DC-only block: store every tile
		for by := 0; by < blocksY; by++ {
			for i := range plane {
				// Reconstruction range including values that clamp.
				plane[i] = float64(rng.Intn(701)-350) + rng.Float64()
			}
			storeBlockRow(got, dim.w, dim.h, by, ext, plane)
			for bx := 0; bx < blocksX; bx++ {
				var tile [64]uint8
				dct.LevelUnshift((*dct.Block)(plane[bx*64:]), tile[:])
				imgutil.StoreBlock(want, dim.w, dim.h, bx, by, &tile)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%dx%d row %d: batched store diverges from LevelUnshift+StoreBlock", dim.w, dim.h, by)
			}
		}
	}
}

// TestTransformComponentMatchesPerBlock pins the whole batched forward
// stage — gather, batch transform, fused quantize — against the
// per-block pipeline, across masks and edge shapes.
func TestTransformComponentMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var mask qtable.ZeroMask
	for i := 20; i < 64; i++ {
		mask[i] = true
	}
	var tbl qtable.FwdScaled
	qtable.StdLuminance.FwdScaledInto(&tbl)
	for _, m := range []*qtable.ZeroMask{nil, &mask} {
		for _, dim := range edgeDims {
			c := &component{w: dim.w, hgt: dim.h, pix: randPixPlane(rng, dim.w, dim.h)}
			c.blocksX, c.blocksY = paddedGrid(dim.w, dim.h)
			c.coefs = make([][64]int32, c.blocksX*c.blocksY)
			c.ext = make([]uint8, len(c.coefs))
			var thr [64]float64
			zeroThresholds(&thr, &tbl, m)
			plane := make([]float64, c.blocksX*64)
			for by := 0; by < c.blocksY; by++ {
				transformBlockRow(c, by, &tbl, &thr, m, plane)
			}
			for by := 0; by < c.blocksY; by++ {
				for bx := 0; bx < c.blocksX; bx++ {
					var tile [64]uint8
					imgutil.ExtractBlock(c.pix, c.w, c.hgt, bx, by, &tile)
					want := blockCoefficients(&tile, &tbl, m)
					if c.coefs[by*c.blocksX+bx] != want {
						t.Fatalf("mask=%v %dx%d block (%d,%d): batch stage %v vs per-block %v",
							m != nil, dim.w, dim.h, bx, by, c.coefs[by*c.blocksX+bx], want)
					}
				}
			}
		}
	}
}

// sparseBlock draws one block's coefficients and the extent the entropy
// decoder would record for them. Each generator draws one zero-pattern
// class of the blocks reconstructBlockRow dispatches on.
type sparseBlock func(rng *rand.Rand, c *[64]int32) (ext uint8)

// coefValue draws a nonzero coefficient in [−127, 127].
func coefValue(rng *rand.Rand) int32 {
	v := int32(rng.Intn(254) - 127)
	if v >= 0 {
		v++
	}
	return v
}

// lastNonzero returns the zigzag index of c's last nonzero coefficient,
// or 0: the extent an entropy decode records when no ZRL precedes EOB.
func lastNonzero(c *[64]int32) uint8 {
	for z := 63; z > 0; z-- {
		if c[qtable.ZigZagOrder[z]] != 0 {
			return uint8(z)
		}
	}
	return 0
}

// sparseClass names one zero-pattern class and its generator.
type sparseClass struct {
	name string
	gen  sparseBlock
}

var sparseBlocks = []sparseClass{
	{"dense", func(rng *rand.Rand, c *[64]int32) uint8 {
		// Every coefficient nonzero with probability ⅓.
		for i := range c {
			if rng.Intn(3) == 0 {
				c[i] = coefValue(rng)
			}
		}
		return lastNonzero(c)
	}},
	{"dc-only", func(rng *rand.Rand, c *[64]int32) uint8 {
		c[0] = coefValue(rng)
		return 0
	}},
	{"all-zero", func(rng *rand.Rand, c *[64]int32) uint8 {
		return 0
	}},
	{"row0", func(rng *rand.Rand, c *[64]int32) uint8 {
		// AC terms only in row 0: one nonzero column-pass input per column.
		c[0] = coefValue(rng)
		for i := 1; i < 8; i++ {
			if rng.Intn(2) == 0 {
				c[i] = coefValue(rng)
			}
		}
		c[1+rng.Intn(7)] = coefValue(rng)
		return lastNonzero(c)
	}},
	{"col0", func(rng *rand.Rand, c *[64]int32) uint8 {
		// AC terms only in column 0: one column left for the butterfly.
		c[0] = coefValue(rng)
		for i := 8; i < 64; i += 8 {
			if rng.Intn(2) == 0 {
				c[i] = coefValue(rng)
			}
		}
		c[8*(1+rng.Intn(7))] = coefValue(rng)
		return lastNonzero(c)
	}},
	{"prefix", func(rng *rand.Rand, c *[64]int32) uint8 {
		// A random zigzag prefix whose last coefficient is nonzero.
		e := 1 + rng.Intn(62)
		for z := 0; z < e; z++ {
			if rng.Intn(2) == 0 {
				c[qtable.ZigZagOrder[z]] = coefValue(rng)
			}
		}
		c[qtable.ZigZagOrder[e]] = coefValue(rng)
		return uint8(e)
	}},
	{"extent63", func(rng *rand.Rand, c *[64]int32) uint8 {
		for z := 0; z < 63; z++ {
			if rng.Intn(4) == 0 {
				c[qtable.ZigZagOrder[z]] = coefValue(rng)
			}
		}
		c[63] = coefValue(rng)
		return 63
	}},
	{"overestimated", func(rng *rand.Rand, c *[64]int32) uint8 {
		// A ZRL before EOB: the recorded extent lies past the last
		// nonzero coefficient, down to a DC-only block with extent > 0.
		last := rng.Intn(48)
		for z := 1; z <= last; z++ {
			if rng.Intn(2) == 0 {
				c[qtable.ZigZagOrder[z]] = coefValue(rng)
			}
		}
		c[0] = coefValue(rng)
		return uint8(int(lastNonzero(c)) + 1 + rng.Intn(16))
	}},
}

// TestReconstructRowMatchesPerBlock pins the batched inverse stage — the
// dispatch on recorded extents (DC-only fill, prefix dequantize), the
// batch inverse transform and its zero-column shortcut, the fused store
// — against the dense reconstructBlock+StoreBlock, once per zero-pattern
// class and once with the classes mixed within each row.
func TestReconstructRowMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var inv qtable.InvScaled
	qtable.StdChrominance.InvScaledInto(&inv)
	classes := append(sparseBlocks, sparseClass{"mixed", func(rng *rand.Rand, c *[64]int32) uint8 {
		return sparseBlocks[rng.Intn(len(sparseBlocks))].gen(rng, c)
	}})
	for _, class := range classes {
		for _, dim := range edgeDims {
			blocksX, blocksY := paddedGrid(dim.w, dim.h)
			coefs := make([][64]int32, blocksX*blocksY)
			ext := make([]uint8, len(coefs))
			for bi := range coefs {
				ext[bi] = class.gen(rng, &coefs[bi])
			}
			pix := randPixPlane(rng, dim.w, dim.h)
			want := make([]uint8, len(pix))
			copy(want, pix)
			plane := make([]float64, blocksX*64)
			for by := 0; by < blocksY; by++ {
				row := by * blocksX
				reconstructBlockRow(pix, dim.w, dim.h, by, coefs[row:row+blocksX], ext[row:row+blocksX], &inv, plane)
				for bx := 0; bx < blocksX; bx++ {
					var tile [64]uint8
					reconstructBlock(&coefs[row+bx], &inv, &tile)
					imgutil.StoreBlock(want, dim.w, dim.h, bx, by, &tile)
				}
			}
			if !bytes.Equal(pix, want) {
				t.Fatalf("%s %dx%d: batched reconstruction diverges from reconstructBlock+StoreBlock", class.name, dim.w, dim.h)
			}
		}
	}
}

// TestEdgeDimsStreams drives whole odd-dimension images through both
// subsampling layouts: the encode must be deterministic across
// pooled-scratch reuse, decode back through this codec, and parse with
// the standard library (partial edge blocks land in real streams).
func TestEdgeDimsStreams(t *testing.T) {
	for _, dim := range edgeDims {
		img := testImageRGB(dim.w, dim.h, int64(dim.w*100+dim.h))
		for _, sub := range []Subsampling{Sub420, Sub444} {
			opts := &Options{Subsampling: sub}
			first := encodeToBytes(t, img, opts)
			second := encodeToBytes(t, img, opts)
			if !bytes.Equal(first, second) {
				t.Fatalf("%dx%d sub=%d: repeated encodes differ (scratch contamination)", dim.w, dim.h, sub)
			}
			dec, err := Decode(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("%dx%d sub=%d: decode: %v", dim.w, dim.h, sub, err)
			}
			if dec.W != dim.w || dec.H != dim.h {
				t.Fatalf("%dx%d sub=%d: decoded as %dx%d", dim.w, dim.h, sub, dec.W, dec.H)
			}
			if cfg, err := jpeg.DecodeConfig(bytes.NewReader(first)); err != nil || cfg.Width != dim.w || cfg.Height != dim.h {
				t.Fatalf("%dx%d sub=%d: stdlib config %+v err=%v", dim.w, dim.h, sub, cfg, err)
			}
			if _, err := jpeg.Decode(bytes.NewReader(first)); err != nil {
				t.Fatalf("%dx%d sub=%d: stdlib decode: %v", dim.w, dim.h, sub, err)
			}
		}
	}
}
