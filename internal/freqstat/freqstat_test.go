package freqstat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dct"
	"repro/internal/imgutil"
)

func TestAccumulatorNeedsTwoBlocks(t *testing.T) {
	a := NewAccumulator()
	if _, err := a.Stats(); err == nil {
		t.Fatal("empty accumulator produced stats")
	}
	var b dct.Block
	a.AddBlock(&b)
	if _, err := a.Stats(); err == nil {
		t.Fatal("single block produced stats")
	}
	a.AddBlock(&b)
	if _, err := a.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestWelfordMatchesDirect cross-checks the streaming moments against a
// two-pass computation.
func TestWelfordMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 500
	blocks := make([]dct.Block, n)
	for i := range blocks {
		for j := range blocks[i] {
			blocks[i][j] = rng.NormFloat64() * float64(j+1)
		}
	}
	a := NewAccumulator()
	for i := range blocks {
		a.AddBlock(&blocks[i])
	}
	s, err := a.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 64; j++ {
		mean := 0.0
		for i := range blocks {
			mean += blocks[i][j]
		}
		mean /= n
		varSum := 0.0
		for i := range blocks {
			d := blocks[i][j] - mean
			varSum += d * d
		}
		std := math.Sqrt(varSum / (n - 1))
		if math.Abs(s.Mean[j]-mean) > 1e-9 || math.Abs(s.Std[j]-std) > 1e-9 {
			t.Fatalf("band %d: welford (%g,%g) vs direct (%g,%g)", j, s.Mean[j], s.Std[j], mean, std)
		}
	}
	if s.Blocks != n {
		t.Fatalf("Blocks = %d", s.Blocks)
	}
}

func TestMinMaxTracked(t *testing.T) {
	a := NewAccumulator()
	var b dct.Block
	b[0] = -7
	a.AddBlock(&b)
	b[0] = 11
	a.AddBlock(&b)
	s, err := a.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Min[0] != -7 || s.Max[0] != 11 {
		t.Fatalf("min/max = %g/%g", s.Min[0], s.Max[0])
	}
}

// TestFlatPlaneHasZeroACStd: constant images put all energy in DC, so AC
// bands must show zero variance and DC zero variance too (all blocks
// identical).
func TestFlatPlaneHasZeroACStd(t *testing.T) {
	g := imgutil.NewGray(32, 32)
	for i := range g.Pix {
		g.Pix[i] = 180
	}
	a := NewAccumulator()
	a.AddPlane(g.Pix, g.W, g.H)
	s, err := a.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if s.Std[i] != 0 {
			t.Fatalf("band %d std = %g, want 0", i, s.Std[i])
		}
	}
	if math.Abs(s.Mean[0]-(180-128)*8) > 1e-9 {
		t.Fatalf("DC mean = %g", s.Mean[0])
	}
}

// TestSinusoidConcentratesEnergy: a horizontal sinusoid at basis frequency
// u=2 must put its variance in band (u=2, v=0) and nowhere else
// significant.
func TestSinusoidConcentratesEnergy(t *testing.T) {
	g := imgutil.NewGray(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			phase := float64(2*(x%8)+1) * 2 * math.Pi / 16 // cos((2x+1)·2π/16)
			g.Pix[y*g.W+x] = uint8(128 + 80*math.Cos(phase))
		}
	}
	a := NewAccumulator()
	a.AddPlane(g.Pix, g.W, g.H)
	s, err := a.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Mean magnitude at band (v=0,u=2), natural index 2, should dominate.
	target := math.Abs(s.Mean[2])
	for i := 1; i < 64; i++ {
		if i == 2 {
			continue
		}
		if math.Abs(s.Mean[i]) > target/4 {
			t.Fatalf("band %d mean %g rivals target band %g", i, s.Mean[i], target)
		}
	}
	if target < 100 {
		t.Fatalf("target band mean magnitude %g too small", target)
	}
}

// TestAddRGBLumaAndChroma: AddRGBLuma converts luma only, and its
// statistics equal those of the Y plane of a full YCbCr conversion, the
// plane calibration feeds the luma accumulator when it also gathers
// chroma. Both chroma planes go to one accumulator.
func TestAddRGBLumaAndChroma(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	im := imgutil.NewRGB(16, 16)
	rng.Read(im.Pix)
	luma := NewAccumulator()
	luma.AddRGBLuma(im)
	if luma.Blocks() != 4 {
		t.Fatalf("luma blocks = %d, want 4", luma.Blocks())
	}
	var p imgutil.Planes
	p.FromRGB(im)
	full := NewAccumulator()
	full.AddPlane(p.Y, im.W, im.H)
	if *luma != *full {
		t.Fatal("AddRGBLuma statistics differ from the Y plane of Planes.FromRGB")
	}
	chroma := NewAccumulator()
	chroma.AddPlane(p.Cb, im.W, im.H)
	chroma.AddPlane(p.Cr, im.W, im.H)
	if chroma.Blocks() != 8 {
		t.Fatalf("chroma blocks = %d, want 8 (both planes)", chroma.Blocks())
	}
}

func TestMaxStd(t *testing.T) {
	s := &Stats{}
	s.Std[17] = 42
	s.Std[3] = 41
	if got := s.MaxStd(); got != 42 {
		t.Fatalf("MaxStd = %g", got)
	}
}

func TestSegmentByMagnitude(t *testing.T) {
	s := &Stats{}
	for i := 0; i < 64; i++ {
		s.Std[i] = float64(i) // band 63 most important
	}
	seg := SegmentByMagnitude(s)
	// Band 63 has the largest δ → rank 0 → LF.
	if seg.Rank[63] != 0 || seg.Class[63] != LF {
		t.Fatalf("band 63: rank %d class %v", seg.Rank[63], seg.Class[63])
	}
	// Band 0 has the smallest δ → rank 63 → HF.
	if seg.Rank[0] != 63 || seg.Class[0] != HF {
		t.Fatalf("band 0: rank %d class %v", seg.Rank[0], seg.Class[0])
	}
	// Class sizes must be 6/22/36.
	counts := map[Band]int{}
	for _, c := range seg.Class {
		counts[c]++
	}
	if counts[LF] != 6 || counts[MF] != 22 || counts[HF] != 36 {
		t.Fatalf("class sizes %v", counts)
	}
	// Thresholds: T2 = largest MF δ = 57; T1 = largest HF δ = 35.
	if seg.T2 != 57 || seg.T1 != 35 {
		t.Fatalf("T1=%g T2=%g, want 35/57", seg.T1, seg.T2)
	}
	// ByRank and Rank must be inverse permutations.
	for r := 0; r < 64; r++ {
		if seg.Rank[seg.ByRank[r]] != r {
			t.Fatalf("rank/byrank inconsistent at %d", r)
		}
	}
}

func TestSegmentByPosition(t *testing.T) {
	seg := SegmentByPosition()
	// DC is zig-zag position 0 → LF.
	if seg.Class[0] != LF {
		t.Fatal("DC not LF in position-based segmentation")
	}
	// Highest zig-zag position (natural 63) → HF.
	if seg.Class[63] != HF {
		t.Fatal("band 63 not HF")
	}
	counts := map[Band]int{}
	for _, c := range seg.Class {
		counts[c]++
	}
	if counts[LF] != 6 || counts[MF] != 22 || counts[HF] != 36 {
		t.Fatalf("class sizes %v", counts)
	}
}

// Property: magnitude segmentation classes respect the δ ordering — every
// LF band has δ ≥ every MF band, which has δ ≥ every HF band.
func TestPropertySegmentationOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := &Stats{}
		for i := range s.Std {
			s.Std[i] = rng.Float64() * 100
		}
		seg := SegmentByMagnitude(s)
		minLF, maxMF := math.Inf(1), math.Inf(-1)
		minMF, maxHF := math.Inf(1), math.Inf(-1)
		for i, c := range seg.Class {
			switch c {
			case LF:
				minLF = math.Min(minLF, s.Std[i])
			case MF:
				minMF = math.Min(minMF, s.Std[i])
				maxMF = math.Max(maxMF, s.Std[i])
			case HF:
				maxHF = math.Max(maxHF, s.Std[i])
			}
		}
		return minLF >= maxMF && minMF >= maxHF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedIndices(t *testing.T) {
	// Three classes interleaved; k=2 keeps every 2nd image per class.
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	got := StratifiedIndices(labels, 2)
	// Class 0 appears at 0,3,6,9 → keep 3 and 9; class 1 at 1,4,7 → keep 4;
	// class 2 at 2,5,8 → keep 5.
	want := []int{3, 4, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStratifiedIndicesKeepAll(t *testing.T) {
	labels := []int{0, 1, 0, 1}
	got := StratifiedIndices(labels, 1)
	if len(got) != 4 {
		t.Fatalf("k=1 should keep all, got %v", got)
	}
	got = StratifiedIndices(labels, 0)
	if len(got) != 4 {
		t.Fatalf("k=0 should keep all, got %v", got)
	}
}

func BenchmarkAddPlane64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := imgutil.NewGray(64, 64)
	rng.Read(g.Pix)
	a := NewAccumulator()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AddPlane(g.Pix, g.W, g.H)
	}
}
