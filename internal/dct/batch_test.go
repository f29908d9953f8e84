package dct

// Batch-vs-block identity: the flat batch kernels restructure the loops
// of the strided per-block butterflies (aan_test.go), not the
// arithmetic, so their output must be BIT-identical to running the
// strided form over each 64-float run — not merely close. Bit equality
// is what keeps the codec's streams pinned across builds; these tests
// are the foundation the jpegcodec reference suites stand on.

import (
	"math"
	"math/rand"
	"testing"
)

// randPlane draws n blocks of spatial-range samples (level-shifted
// pixels live in [-128, 127]) plus a few adversarial values.
func randPlane(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n*BlockSize2)
	for i := range p {
		switch rng.Intn(16) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = 127
		case 2:
			p[i] = -128
		default:
			p[i] = float64(rng.Intn(256) - 128)
		}
	}
	return p
}

// randCoefPlane draws n blocks of dequantized-coefficient-range values.
func randCoefPlane(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n*BlockSize2)
	for i := range p {
		if rng.Intn(4) == 0 {
			p[i] = float64(rng.Intn(2047)-1023) * (1 + rng.Float64())
		}
	}
	return p
}

// batchPairs enumerates every batch entry point against its strided
// per-block oracle.
var batchPairs = []struct {
	name   string
	batch  func([]float64)
	block  func(*Block)
	coefIn bool // input is coefficient-domain (inverse direction)
}{
	{"ForwardAANRawBatch", ForwardAANRawBatch, stridedForwardRaw, false},
	{"InverseAANRawBatch", InverseAANRawBatch, stridedInverseRaw, true},
	{"ForwardAANBatch", ForwardAANBatch, func(b *Block) {
		stridedForwardRaw(b)
		for i := range b {
			b[i] *= AANForwardDescale(i)
		}
	}, false},
	{"InverseAANBatch", InverseAANBatch, func(b *Block) {
		for i := range b {
			b[i] *= AANInversePrescale(i)
		}
		stridedInverseRaw(b)
	}, true},
}

func TestBatchBitIdentityWithPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sizes := []int{1, 2, 3, 7, 16, 33, 128}
	for _, pair := range batchPairs {
		t.Run(pair.name, func(t *testing.T) {
			for _, n := range sizes {
				var plane []float64
				if pair.coefIn {
					plane = randCoefPlane(rng, n)
				} else {
					plane = randPlane(rng, n)
				}
				want := make([]float64, len(plane))
				copy(want, plane)
				for k := 0; k < n; k++ {
					pair.block((*Block)(want[k*BlockSize2:]))
				}
				pair.batch(plane)
				for i := range plane {
					if math.Float64bits(plane[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%d blocks: element %d (block %d band %d) = %v batch vs %v per-block (bit mismatch)",
							n, i, i/BlockSize2, i%BlockSize2, plane[i], want[i])
					}
				}
			}
		})
	}
}

// TestScaledBatchBitIdentity pins the engine's batch methods — what
// the codec and the benchmark harness call — against the strided
// per-block butterflies.
func TestScaledBatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var xf Transform
	for _, dir := range []struct {
		name  string
		batch func([]float64)
		block func(*Block)
		plane func(*rand.Rand, int) []float64
	}{
		{"forward", xf.ForwardScaledBatch, stridedForwardRaw, randPlane},
		{"inverse", xf.InverseScaledBatch, stridedInverseRaw, randCoefPlane},
	} {
		n := 5 + rng.Intn(20)
		plane := dir.plane(rng, n)
		want := append([]float64(nil), plane...)
		for k := 0; k < n; k++ {
			dir.block((*Block)(want[k*BlockSize2:]))
		}
		dir.batch(plane)
		for i := range plane {
			if math.Float64bits(plane[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d = %v batch vs %v per-block", dir.name, i, plane[i], want[i])
			}
		}
	}
}

// TestBatchRoundTrip drives forward-then-inverse through the orthonormal
// batch API and checks the plane reproduces its input.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	plane := randPlane(rng, 9)
	orig := append([]float64(nil), plane...)
	ForwardAANBatch(plane)
	InverseAANBatch(plane)
	for i := range plane {
		if math.Abs(plane[i]-orig[i]) > 1e-9 {
			t.Fatalf("element %d round-trips to %v, want %v", i, plane[i], orig[i])
		}
	}
}

// TestBatchCrossEngineAgreement checks the batch forward against the
// separable row–column DCT block by block, to 1e-9.
func TestBatchCrossEngineAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := randPlane(rng, 12)
	b := append([]float64(nil), a...)
	ForwardAANBatch(a)
	for k := 0; k < len(b); k += BlockSize2 {
		separableForward((*Block)(b[k:]))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("element %d: aan %v vs separable %v", i, a[i], b[i])
		}
	}
}

func TestBlocksRejectsMisalignedPlane(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a plane whose length is not a multiple of 64 must panic")
		}
	}()
	ForwardAANRawBatch(make([]float64, 65))
}

func TestBlocksEmptyPlane(t *testing.T) {
	// Zero blocks is a valid (empty) run: nothing to transform, no panic.
	ForwardAANRawBatch(nil)
	if got := Blocks(make([]float64, 128)); got != 2 {
		t.Fatalf("Blocks(128 floats) = %d, want 2", got)
	}
}
