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
			gatherBlockRow(plane, pix, dim.w, dim.h, by, blocksX)
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
		quantizeRunInto(got, plane, &tbl, m)
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
		for by := 0; by < blocksY; by++ {
			for i := range plane {
				// Reconstruction range including values that clamp.
				plane[i] = float64(rng.Intn(701)-350) + rng.Float64()
			}
			storeBlockRow(got, dim.w, dim.h, by, blocksX, plane)
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
			transformComponent(c, &tbl, m, make([]float64, c.blocksX*64))
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

// TestReconstructRowMatchesPerBlock pins the batched inverse stage —
// dequantize broadcast, batch inverse transform, fused store — against
// reconstructBlock+StoreBlock.
func TestReconstructRowMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var inv qtable.InvScaled
	qtable.StdChrominance.InvScaledInto(&inv)
	for _, dim := range edgeDims {
		blocksX, blocksY := paddedGrid(dim.w, dim.h)
		c := &component{w: dim.w, hgt: dim.h, inv: inv, blocksX: blocksX, blocksY: blocksY}
		c.coefs = make([][64]int32, blocksX*blocksY)
		for bi := range c.coefs {
			for i := 0; i < 64; i++ {
				if rng.Intn(3) == 0 {
					c.coefs[bi][i] = int32(rng.Intn(255) - 127)
				}
			}
		}
		c.pix = randPixPlane(rng, dim.w, dim.h)
		want := make([]uint8, len(c.pix))
		copy(want, c.pix)
		plane := make([]float64, blocksX*64)
		for by := 0; by < blocksY; by++ {
			reconstructBlockRow(c, by, plane)
			for bx := 0; bx < blocksX; bx++ {
				var tile [64]uint8
				reconstructBlock(&c.coefs[by*blocksX+bx], &c.inv, &tile)
				imgutil.StoreBlock(want, dim.w, dim.h, bx, by, &tile)
			}
		}
		if !bytes.Equal(c.pix, want) {
			t.Fatalf("%dx%d: batched reconstruction diverges from reconstructBlock+StoreBlock", dim.w, dim.h)
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
