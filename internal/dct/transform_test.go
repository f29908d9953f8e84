package dct

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestTransformDispatch pins what a Transform value runs: any value —
// the type is zero-size, so every value is the zero value — must run
// exactly the raw AAN batch kernels.
func TestTransformDispatch(t *testing.T) {
	var xf Transform
	if unsafe.Sizeof(xf) != 0 {
		t.Fatalf("Transform occupies %d bytes, want 0", unsafe.Sizeof(xf))
	}
	rng := rand.New(rand.NewSource(21))
	for _, dir := range []struct {
		name   string
		engine func([]float64)
		kernel func([]float64)
		plane  func(*rand.Rand, int) []float64
	}{
		{"forward", xf.ForwardScaledBatch, ForwardAANRawBatch, randPlane},
		{"inverse", xf.InverseScaledBatch, InverseAANRawBatch, randCoefPlane},
	} {
		got := dir.plane(rng, 9)
		want := append([]float64(nil), got...)
		dir.engine(got)
		dir.kernel(want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d = %v, kernel gives %v", dir.name, i, got[i], want[i])
			}
		}
	}
}

// TestTransformRoundTrip runs the engine's scaled pair the way the codec
// does, with the scale factors folded between them: forward, multiply by
// descale·prescale (what a quantize/dequantize pair with step 1 folds
// in), inverse — and must land back on the input.
func TestTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var xf Transform
	for trial := 0; trial < 50; trial++ {
		orig := randBlock(rng)
		b := orig
		xf.ForwardScaledBatch(b[:])
		for i := range b {
			b[i] *= AANForwardDescale(i) * AANInversePrescale(i)
		}
		xf.InverseScaledBatch(b[:])
		if d := maxAbsDiff(&b, &orig); d > 1e-9 {
			t.Fatalf("trial %d: round-trip error %g", trial, d)
		}
	}
}

// TestTransformEnginesAgree holds the engine to the separable row–column
// DCT: descaled forward output and prescaled inverse input must agree
// with it to 1e-9.
func TestTransformEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var xf Transform
	for trial := 0; trial < 200; trial++ {
		src := randBlock(rng)
		sep, aan := src, src
		separableForward(&sep)
		xf.ForwardScaledBatch(aan[:])
		for i := range aan {
			aan[i] *= AANForwardDescale(i)
		}
		if d := maxAbsDiff(&sep, &aan); d > 1e-9 {
			t.Fatalf("trial %d: forward differs from the separable DCT by %g", trial, d)
		}
		separableInverse(&sep)
		for i := range aan {
			aan[i] *= AANInversePrescale(i)
		}
		xf.InverseScaledBatch(aan[:])
		if d := maxAbsDiff(&sep, &aan); d > 1e-9 {
			t.Fatalf("trial %d: inverse differs from the separable DCT by %g", trial, d)
		}
	}
}

// BenchmarkTransformForward and BenchmarkTransformInverse time the
// engine on one block, the unit cost behind the batch numbers.
func BenchmarkTransformForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blk := randBlock(rng)
	var xf Transform
	work := new(Block)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*work = blk
		xf.ForwardScaledBatch(work[:])
	}
}

func BenchmarkTransformInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blk := randBlock(rng)
	var xf Transform
	xf.ForwardScaledBatch(blk[:])
	work := new(Block)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*work = blk
		xf.InverseScaledBatch(work[:])
	}
}
