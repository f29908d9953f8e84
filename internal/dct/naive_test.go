package dct

// The separable row–column DCT: an independent O(N³) oracle for the
// fast transform — different factorization, different rounding — itself
// checked against the textbook definition.

import (
	"math"
	"math/rand"
	"testing"
)

// separableCos[u][x] = cos((2x+1)·u·π/16)·C(u)/2, so that a row pass
// followed by a column pass yields the orthonormal 2-D transform.
var separableCos [BlockSize][BlockSize]float64

func init() {
	for u := 0; u < BlockSize; u++ {
		cu := 1.0
		if u == 0 {
			cu = math.Sqrt2 / 2
		}
		for x := 0; x < BlockSize; x++ {
			separableCos[u][x] = math.Cos(float64(2*x+1)*float64(u)*math.Pi/16) * cu / 2
		}
	}
}

// separableForward replaces b (spatial samples) with its 2-D DCT
// coefficients: a row pass, then a column pass.
func separableForward(b *Block) {
	var tmp Block
	for y := 0; y < BlockSize; y++ {
		for u := 0; u < BlockSize; u++ {
			s := 0.0
			for x := 0; x < BlockSize; x++ {
				s += b[y*BlockSize+x] * separableCos[u][x]
			}
			tmp[y*BlockSize+u] = s
		}
	}
	for u := 0; u < BlockSize; u++ {
		for v := 0; v < BlockSize; v++ {
			s := 0.0
			for y := 0; y < BlockSize; y++ {
				s += tmp[y*BlockSize+u] * separableCos[v][y]
			}
			b[v*BlockSize+u] = s
		}
	}
}

// separableInverse replaces b (DCT coefficients) with spatial samples:
// a column pass, then a row pass.
func separableInverse(b *Block) {
	var tmp Block
	for u := 0; u < BlockSize; u++ {
		for y := 0; y < BlockSize; y++ {
			s := 0.0
			for v := 0; v < BlockSize; v++ {
				s += b[v*BlockSize+u] * separableCos[v][y]
			}
			tmp[y*BlockSize+u] = s
		}
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			s := 0.0
			for u := 0; u < BlockSize; u++ {
				s += tmp[y*BlockSize+u] * separableCos[u][x]
			}
			b[y*BlockSize+x] = s
		}
	}
}

func TestForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		b := randBlock(rng)
		ref := b
		separableForward(&b)
		ForwardReference(&ref)
		if d := maxAbsDiff(&b, &ref); d > 1e-9 {
			t.Fatalf("trial %d: max |separable-ref| = %g", trial, d)
		}
	}
}

func TestInverseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		b := randBlock(rng)
		ref := b
		separableInverse(&b)
		InverseReference(&ref)
		if d := maxAbsDiff(&b, &ref); d > 1e-9 {
			t.Fatalf("trial %d: max |separable-ref| = %g", trial, d)
		}
	}
}
