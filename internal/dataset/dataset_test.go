package dataset

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/freqstat"
	"repro/internal/imgutil"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Classes: 1, Size: 32, TrainPerClass: 1, TestPerClass: 1},
		{Classes: 4, Size: 12, TrainPerClass: 1, TestPerClass: 1},
		{Classes: 4, Size: 32, TrainPerClass: 0, TestPerClass: 1},
		{Classes: 4, Size: 32, TrainPerClass: 1, TestPerClass: 1, NoiseStd: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if err := Quick().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Paper().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateShapes(t *testing.T) {
	cfg := Config{Classes: 4, Size: 32, TrainPerClass: 5, TestPerClass: 3, Seed: 7, NoiseStd: 4}
	train, test, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 20 || test.Len() != 12 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	counts := map[int]int{}
	for _, l := range train.Labels {
		counts[l]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] != 5 {
			t.Fatalf("class %d has %d train images", c, counts[c])
		}
	}
	for _, im := range train.Images {
		if im.W != 32 || im.H != 32 {
			t.Fatalf("image %dx%d", im.W, im.H)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Quick()
	cfg.TrainPerClass, cfg.TestPerClass = 3, 2
	a1, b1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Images {
		if !bytes.Equal(a1.Images[i].Pix, a2.Images[i].Pix) {
			t.Fatal("train split not deterministic")
		}
	}
	for i := range b1.Images {
		if !bytes.Equal(b1.Images[i].Pix, b2.Images[i].Pix) {
			t.Fatal("test split not deterministic")
		}
	}
}

func TestTrainTestDisjoint(t *testing.T) {
	cfg := Quick()
	cfg.TrainPerClass, cfg.TestPerClass = 4, 4
	train, test, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range train.Images {
		for j := range test.Images {
			if bytes.Equal(train.Images[i].Pix, test.Images[j].Pix) {
				t.Fatalf("train image %d equals test image %d", i, j)
			}
		}
	}
}

func TestSeedChangesData(t *testing.T) {
	cfg := Quick()
	cfg.TrainPerClass, cfg.TestPerClass = 2, 1
	a, _, _ := Generate(cfg)
	cfg.Seed = 99
	b, _, _ := Generate(cfg)
	same := true
	for i := range a.Images {
		if !bytes.Equal(a.Images[i].Pix, b.Images[i].Pix) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// TestSignatureBandCarriesEnergy: the class signature band must dominate
// the per-class DCT spectrum relative to other non-DC bands.
func TestSignatureBandCarriesEnergy(t *testing.T) {
	cfg := Config{Classes: 6, Size: 32, TrainPerClass: 12, TestPerClass: 1, Seed: 3, NoiseStd: 3}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for class := 0; class < cfg.Classes; class++ {
		acc := freqstat.NewAccumulator()
		for i, im := range train.Images {
			if train.Labels[i] == class {
				acc.AddRGBLuma(im)
			}
		}
		stats, err := acc.Stats()
		if err != nil {
			t.Fatal(err)
		}
		sig := signatureBand(class)
		// Measure band energy as mean² + σ² (total second moment).
		energy := func(b int) float64 {
			return stats.Mean[b]*stats.Mean[b] + stats.Std[b]*stats.Std[b]
		}
		sigE := energy(sig)
		// The signature band must carry at least 3× the median non-DC band
		// energy.
		var others []float64
		for b := 1; b < 64; b++ {
			if b != sig {
				others = append(others, energy(b))
			}
		}
		// Median via partial sort.
		med := median(others)
		if sigE < 3*med {
			t.Fatalf("class %d: signature band %d energy %.1f < 3×median %.1f", class, sig, sigE, med)
		}
	}
}

// signatureBand is the discriminative DCT band of a class in natural
// 8×8 index form (v*8+u).
func signatureBand(class int) int {
	s := specFor(class)
	return s.sigV*8 + s.sigU
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}

// TestPairedClassesShareShape: pair members differ only in the signature
// band, so their low-frequency content must be statistically similar.
func TestPairedClassesShareShape(t *testing.T) {
	s0, s1 := specFor(0), specFor(1)
	if s0.cx != s1.cx || s0.cy != s1.cy || s0.radius != s1.radius {
		t.Fatal("pair members 0/1 have different shapes")
	}
	if s0.sigU == s1.sigU && s0.sigV == s1.sigV {
		t.Fatal("pair members 0/1 share the signature band")
	}
	if !IsHFClass(1) || IsHFClass(0) {
		t.Fatal("pair member 1 must be the HF class")
	}
	// HF member's band must rank later in zig-zag order than MF member's.
	z0 := zigzagOf(signatureBand(0))
	z1 := zigzagOf(signatureBand(1))
	if z1 <= z0 {
		t.Fatalf("HF class band zig-zag %d not beyond MF class %d", z1, z0)
	}
}

func zigzagOf(natural int) int {
	order := [64]int{
		0, 1, 8, 16, 9, 2, 3, 10,
		17, 24, 32, 25, 18, 11, 4, 5,
		12, 19, 26, 33, 40, 48, 41, 34,
		27, 20, 13, 6, 7, 14, 21, 28,
		35, 42, 49, 56, 57, 50, 43, 36,
		29, 22, 15, 23, 30, 37, 44, 51,
		58, 59, 52, 45, 38, 31, 39, 46,
		53, 60, 61, 54, 47, 55, 62, 63,
	}
	for z, n := range order {
		if n == natural {
			return z
		}
	}
	return -1
}

func TestTensorsGray(t *testing.T) {
	cfg := Config{Classes: 2, Size: 16, TrainPerClass: 3, TestPerClass: 1, Seed: 1}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := train.Tensors(false)
	if ds.X.Dim(0) != 6 || ds.X.Dim(1) != 1 || ds.X.Dim(2) != 16 {
		t.Fatalf("tensor shape %v", ds.X.Shape)
	}
	if len(ds.Y) != 6 {
		t.Fatalf("labels %d", len(ds.Y))
	}
	// Normalization keeps values in a sane range.
	for _, v := range ds.X.Data {
		if math.Abs(float64(v)) > 3 {
			t.Fatalf("normalized value %g out of range", v)
		}
	}
}

func TestTensorsColor(t *testing.T) {
	cfg := Config{Classes: 2, Size: 16, TrainPerClass: 2, TestPerClass: 1, Seed: 1, Color: true}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := train.Tensors(true)
	if ds.X.Dim(1) != 3 {
		t.Fatalf("color tensor has %d channels", ds.X.Dim(1))
	}
}

func TestMap(t *testing.T) {
	cfg := Config{Classes: 2, Size: 16, TrainPerClass: 2, TestPerClass: 1, Seed: 1}
	train, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inverted, err := train.Map(func(im *imgutil.RGB) (*imgutil.RGB, error) {
		out := imgutil.NewRGB(im.W, im.H)
		for i, v := range im.Pix {
			out.Pix[i] = 255 - v
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inverted.Images[0].Pix[0] != 255-train.Images[0].Pix[0] {
		t.Fatal("Map did not transform")
	}
	if train.Images[0].Pix[0] == inverted.Images[0].Pix[0] && train.Images[0].Pix[0] != 128 {
		t.Fatal("Map mutated the source")
	}
	// Error propagation.
	if _, err := train.Map(func(im *imgutil.RGB) (*imgutil.RGB, error) {
		return nil, errSentinel
	}); err == nil {
		t.Fatal("Map swallowed the error")
	}
}

var errSentinel = fmt.Errorf("sentinel")
