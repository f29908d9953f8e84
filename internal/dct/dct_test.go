package dct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlock(rng *rand.Rand) Block {
	var b Block
	for i := range b {
		b[i] = rng.Float64()*255 - 128
	}
	return b
}

// forward and inverse run the production orthonormal transform — the
// AAN batch kernels — on one block. The properties below hold for the
// orthonormal DCT whatever computes it.
func forward(b *Block) { ForwardAANBatch(b[:]) }
func inverse(b *Block) { InverseAANBatch(b[:]) }

func maxAbsDiff(a, b *Block) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		orig := randBlock(rng)
		b := orig
		forward(&b)
		inverse(&b)
		if d := maxAbsDiff(&b, &orig); d > 1e-9 {
			t.Fatalf("trial %d: round trip error %g", trial, d)
		}
	}
}

// TestDCOfConstantBlock checks that a flat block transforms to a single DC
// coefficient of value 8·v (orthonormal scaling: DC = Σ/8 = 64v/8).
func TestDCOfConstantBlock(t *testing.T) {
	var b Block
	for i := range b {
		b[i] = 100
	}
	forward(&b)
	if math.Abs(b[0]-800) > 1e-9 {
		t.Fatalf("DC = %g, want 800", b[0])
	}
	for i := 1; i < len(b); i++ {
		if math.Abs(b[i]) > 1e-9 {
			t.Fatalf("AC[%d] = %g, want 0", i, b[i])
		}
	}
}

// TestParseval verifies energy preservation: Σf² == ΣF² for the orthonormal
// transform.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		b := randBlock(rng)
		var spatial float64
		for _, v := range b {
			spatial += v * v
		}
		forward(&b)
		var freq float64
		for _, v := range b {
			freq += v * v
		}
		if math.Abs(spatial-freq) > 1e-6*spatial {
			t.Fatalf("trial %d: spatial energy %g != frequency energy %g", trial, spatial, freq)
		}
	}
}

// TestLinearity: DCT(a·x + b·y) == a·DCT(x) + b·DCT(y).
func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := randBlock(rng), randBlock(rng)
	const ca, cb = 0.7, -1.3
	var mix Block
	for i := range mix {
		mix[i] = ca*x[i] + cb*y[i]
	}
	forward(&x)
	forward(&y)
	forward(&mix)
	for i := range mix {
		want := ca*x[i] + cb*y[i]
		if math.Abs(mix[i]-want) > 1e-9 {
			t.Fatalf("coef %d: got %g want %g", i, mix[i], want)
		}
	}
}

// TestSingleBasisCoefficient: the spatial rendering of a single unit
// coefficient (obtained via the reference inverse) forward-transforms back
// to exactly that delta, for every one of the 64 bands.
func TestSingleBasisCoefficient(t *testing.T) {
	for u := 0; u < BlockSize; u++ {
		for v := 0; v < BlockSize; v++ {
			var b Block
			b[v*BlockSize+u] = 1
			InverseReference(&b)
			// Sanity: the spatial pattern must be proportional to the
			// (u,v) basis function everywhere.
			scale := b[0] / func() float64 {
				f := BasisFunction(u, v, 0, 0)
				return f
			}()
			for y := 0; y < BlockSize; y++ {
				for x := 0; x < BlockSize; x++ {
					want := scale * BasisFunction(u, v, x, y)
					if math.Abs(b[y*BlockSize+x]-want) > 1e-9 {
						t.Fatalf("basis (%d,%d) not separable at (%d,%d)", u, v, x, y)
					}
				}
			}
			forward(&b)
			for j := range b {
				want := 0.0
				if j == v*BlockSize+u {
					want = 1.0
				}
				if math.Abs(b[j]-want) > 1e-9 {
					t.Fatalf("basis (%d,%d): coef[%d] = %g, want %g", u, v, j, b[j], want)
				}
			}
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := randBlock(rng)
		b := orig
		forward(&b)
		inverse(&b)
		return maxAbsDiff(&b, &orig) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelShiftRoundTrip(t *testing.T) {
	samples := make([]uint8, 64)
	rng := rand.New(rand.NewSource(6))
	for i := range samples {
		samples[i] = uint8(rng.Intn(256))
	}
	var b Block
	LevelShift(samples, &b)
	out := make([]uint8, 64)
	LevelUnshift(&b, out)
	for i := range samples {
		if samples[i] != out[i] {
			t.Fatalf("sample %d: %d != %d", i, samples[i], out[i])
		}
	}
}

func TestLevelUnshiftClamps(t *testing.T) {
	var b Block
	b[0] = 500  // 628 after shift, clamps to 255
	b[1] = -500 // -372 after shift, clamps to 0
	out := make([]uint8, 64)
	LevelUnshift(&b, out)
	if out[0] != 255 || out[1] != 0 {
		t.Fatalf("clamping failed: got %d, %d", out[0], out[1])
	}
}
