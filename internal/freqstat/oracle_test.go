package freqstat

// The per-block statistics path that the one-pass strip walk replaced,
// kept as the oracle AddPlane and AddRGBLuma are held to byte for byte:
// a whole luma plane by ToGray, one uint8 tile per block by
// ExtractBlock, LevelShift, the descaled batch DCT, and Welford's update
// one block at a time by AddBlock.

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dct"
	"repro/internal/imgutil"
)

// AddBlock folds one block of DCT coefficients (natural order) into the
// statistics. Each product is rounded by an explicit conversion, as in
// foldBands, so that no compiler fuses it into the following addition;
// on amd64, which never fuses, the bits are those of the plain
// expressions.
func (a *Accumulator) AddBlock(b *dct.Block) {
	a.n++
	inv := 1 / float64(a.n)
	for i := 0; i < 64; i++ {
		v := b[i]
		d := v - a.mean[i]
		a.mean[i] += float64(d * inv)
		a.m2[i] += float64(d * (v - a.mean[i]))
		if v < a.min[i] {
			a.min[i] = v
		}
		if v > a.max[i] {
			a.max[i] = v
		}
	}
}

// oracleAddPlane is AddPlane as a block-by-block walk: extract and
// level-shift each tile, transform the block row with ForwardAANBatch,
// and fold each block with AddBlock.
func oracleAddPlane(a *Accumulator, pix []uint8, w, h int) {
	grid := imgutil.GridFor(w, h)
	row := make([]float64, grid.BlocksX*dct.BlockSize2)
	var tile [64]uint8
	for by := 0; by < grid.BlocksY; by++ {
		for bx := 0; bx < grid.BlocksX; bx++ {
			imgutil.ExtractBlock(pix, w, h, bx, by, &tile)
			dct.LevelShift(tile[:], (*dct.Block)(row[bx*dct.BlockSize2:]))
		}
		dct.ForwardAANBatch(row)
		for bx := 0; bx < grid.BlocksX; bx++ {
			a.AddBlock((*dct.Block)(row[bx*dct.BlockSize2:]))
		}
	}
}

// oracleAddRGBLuma is AddRGBLuma through a whole luma plane.
func oracleAddRGBLuma(a *Accumulator, im *imgutil.RGB) {
	g := im.ToGray()
	oracleAddPlane(a, g.Pix, g.W, g.H)
}

// tieTriples lists pixels whose samples sit on a rounding tie, where the
// color conversion takes its float fallback: (0, 0, 255), whose Cb is
// 255.5, with its neighbours, and the first triples whose exact luma is
// a half-integer, 299R + 587G + 114B ≡ 500 (mod 1000).
func tieTriples() [][3]uint8 {
	var out [][3]uint8
	for _, d := range [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, -1}, {1, 1, 0}, {1, 0, -1}, {0, 1, -1}, {1, 1, -1}} {
		out = append(out, [3]uint8{uint8(d[0]), uint8(d[1]), uint8(255 + d[2])})
	}
	for r := 0; r < 256 && len(out) < 64; r += 7 {
		for g := 0; g < 256 && len(out) < 64; g += 3 {
			for b := 0; b < 256; b++ {
				if (299*r+587*g+114*b)%1000 == 500 {
					out = append(out, [3]uint8{uint8(r), uint8(g), uint8(b)})
					break
				}
			}
		}
	}
	return out
}

// statsBytes is the canonical encoding of a's statistics, or the error
// text when a holds too few blocks.
func statsBytes(a *Accumulator) []byte {
	s, err := a.Stats()
	if err != nil {
		return []byte(err.Error())
	}
	return s.AppendBinary(nil)
}

// TestStripWalkOracle holds AddRGBLuma and AddPlane to the per-block
// path, comparing the canonical encodings of their statistics byte for
// byte. Each case feeds three images, once into one accumulator and once
// split over two accumulators and one Merge, as calibration's chunks do.
// The chroma rows feed both chroma planes of FromRGB to one accumulator,
// as calibration does with -chroma. The sizes cover a single pixel,
// partial blocks on either margin, a strip shorter than a block, and a
// plane several strips tall and blocks wide.
func TestStripWalkOracle(t *testing.T) {
	ties := tieTriples()
	tests := []struct {
		name string
		fill func(rng *rand.Rand, im *imgutil.RGB)
	}{
		{name: "random", fill: func(rng *rand.Rand, im *imgutil.RGB) { rng.Read(im.Pix) }},
		{name: "flat", fill: func(rng *rand.Rand, im *imgutil.RGB) {
			r, g, b := uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
			for i := 0; i < len(im.Pix); i += 3 {
				im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
			}
		}},
		{name: "ties", fill: func(rng *rand.Rand, im *imgutil.RGB) {
			for i := 0; i < len(im.Pix); i += 3 {
				p := ties[rng.Intn(len(ties))]
				im.Pix[i], im.Pix[i+1], im.Pix[i+2] = p[0], p[1], p[2]
			}
		}},
	}
	sizes := [][2]int{{1, 1}, {7, 9}, {8, 8}, {9, 17}, {16, 3}, {128, 128}, {130, 67}}
	for _, tt := range tests {
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			t.Run(fmt.Sprintf("%s/%dx%d", tt.name, w, h), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(w*1000 + h)))
				images := make([]*imgutil.RGB, 3)
				for i := range images {
					images[i] = imgutil.NewRGB(w, h)
					tt.fill(rng, images[i])
				}
				paths := []struct {
					name          string
					got, want     func(a *Accumulator, im *imgutil.RGB)
					blocksPerCall int
				}{
					{name: "luma", got: (*Accumulator).AddRGBLuma, want: oracleAddRGBLuma, blocksPerCall: 1},
					{name: "chroma", got: func(a *Accumulator, im *imgutil.RGB) {
						var p imgutil.Planes
						p.FromRGB(im)
						a.AddPlane(p.Cb, w, h)
						a.AddPlane(p.Cr, w, h)
					}, want: func(a *Accumulator, im *imgutil.RGB) {
						var p imgutil.Planes
						p.FromRGB(im)
						oracleAddPlane(a, p.Cb, w, h)
						oracleAddPlane(a, p.Cr, w, h)
					}, blocksPerCall: 2},
				}
				g := imgutil.GridFor(w, h)
				for _, path := range paths {
					got, want := NewAccumulator(), NewAccumulator()
					for _, im := range images {
						path.got(got, im)
						path.want(want, im)
					}
					if n := int64(len(images) * path.blocksPerCall * g.BlocksX * g.BlocksY); got.Blocks() != n {
						t.Fatalf("%s: %d blocks, want %d", path.name, got.Blocks(), n)
					}
					if gb, wb := statsBytes(got), statsBytes(want); !bytes.Equal(gb, wb) {
						t.Fatalf("%s: statistics differ from the per-block path:\n%x\nwant\n%x", path.name, gb, wb)
					}
					gotSplit, part := NewAccumulator(), NewAccumulator()
					wantSplit, wantPart := NewAccumulator(), NewAccumulator()
					path.got(gotSplit, images[0])
					path.want(wantSplit, images[0])
					for _, im := range images[1:] {
						path.got(part, im)
						path.want(wantPart, im)
					}
					gotSplit.Merge(part)
					wantSplit.Merge(wantPart)
					if gb, wb := statsBytes(gotSplit), statsBytes(wantSplit); !bytes.Equal(gb, wb) {
						t.Fatalf("%s, split and merged: statistics differ from the per-block path:\n%x\nwant\n%x", path.name, gb, wb)
					}
				}
			})
		}
	}
}

// TestAddRGBLumaAllocs pins what AddRGBLuma allocates on a 256×256
// image to one block row of scratch: a strip of eight luma rows, its
// tiles and one weight per block. The per-block path allocated a whole
// 64 KiB luma plane on every call.
func TestAddRGBLumaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const w, h = 256, 256
	im := imgutil.NewRGB(w, h)
	rand.New(rand.NewSource(5)).Read(im.Pix)
	a := NewAccumulator()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { a.AddRGBLuma(im) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the counted runs.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	blocksX := imgutil.GridFor(w, h).BlocksX
	strip := uint64(8*w + 8*blocksX*(dct.BlockSize2+1))
	t.Logf("AddRGBLuma, %d×%d RGB: %.0f allocs/op, %d bytes/op (one block row of scratch is %d)", w, h, allocs, perCall, strip)
	if allocs > 3 {
		t.Fatalf("AddRGBLuma makes %.0f allocs/op, want at most 3", allocs)
	}
	if perCall > strip+512 {
		t.Fatalf("AddRGBLuma allocates %d bytes/op on a %d×%d image, want at most one block row of scratch (%d bytes)", perCall, w, h, strip)
	}
}

// BenchmarkAddRGBLuma times the statistics pass over one 128×128 color
// image, the perfbench corpus's frame size, by the strip walk and by the
// per-block oracle.
func BenchmarkAddRGBLuma(b *testing.B) {
	im := imgutil.NewRGB(128, 128)
	rand.New(rand.NewSource(1)).Read(im.Pix)
	for _, bc := range []struct {
		name string
		add  func(a *Accumulator, im *imgutil.RGB)
	}{{"strip", (*Accumulator).AddRGBLuma}, {"oracle", oracleAddRGBLuma}} {
		b.Run(bc.name, func(b *testing.B) {
			a := NewAccumulator()
			b.ReportAllocs()
			b.SetBytes(int64(len(im.Pix)))
			for i := 0; i < b.N; i++ {
				bc.add(a, im)
			}
		})
	}
}
