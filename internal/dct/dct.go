// Package dct implements the 8×8 two-dimensional type-II discrete cosine
// transform and its inverse with the orthonormal scaling used by JPEG
// (ITU-T T.81 §A.3.3):
//
//	F(u,v) = ¼·C(u)·C(v)·Σₓ Σ_y f(x,y)·cos((2x+1)uπ/16)·cos((2y+1)vπ/16)
//
// with C(0)=1/√2 and C(k)=1 otherwise. The codec runs one engine: the
// Arai–Agui–Nakajima fast transform over flat batches of blocks
// (batch.go). ForwardReference and InverseReference compute the
// transform by its O(N⁴) textbook definition and serve as the oracle
// the fast transform is tested against.
//
// The AAN transform is natively *scaled*: its butterflies produce the
// orthonormal result times a fixed per-band factor. Codecs that
// quantize anyway never pay to undo that scaling — ForwardAANRawBatch
// and InverseAANRawBatch run the bare butterflies, and
// AANForwardDescale/AANInversePrescale export the factors so
// quantization tables can fold them into their divisors and multipliers
// (see qtable.Table.FwdScaled and InvScaled). That turns the per-block
// hot loop into exactly one multiply or divide per coefficient.
// ForwardAANBatch and InverseAANBatch apply the factors themselves, for
// callers that need orthonormal coefficients (calibration statistics).
package dct

import "math"

// BlockSize is the linear dimension of a JPEG transform block.
const BlockSize = 8

// Block holds an 8×8 tile in row-major order. Depending on context it
// contains level-shifted samples (spatial domain) or DCT coefficients
// (frequency domain).
type Block [BlockSize * BlockSize]float64

// basisTable[u][x] = cos((2x+1)·u·π/16) unscaled, used by the reference
// implementation and by BasisFunction.
var basisTable [BlockSize][BlockSize]float64

func init() {
	for u := 0; u < BlockSize; u++ {
		for x := 0; x < BlockSize; x++ {
			basisTable[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
}

// ForwardReference computes the transform by the O(N⁴) textbook definition.
// It is the oracle the fast transform is tested against.
func ForwardReference(b *Block) {
	var out Block
	for v := 0; v < BlockSize; v++ {
		for u := 0; u < BlockSize; u++ {
			s := 0.0
			for y := 0; y < BlockSize; y++ {
				for x := 0; x < BlockSize; x++ {
					s += b[y*BlockSize+x] * basisTable[u][x] * basisTable[v][y]
				}
			}
			cu, cv := 1.0, 1.0
			if u == 0 {
				cu = math.Sqrt2 / 2
			}
			if v == 0 {
				cv = math.Sqrt2 / 2
			}
			out[v*BlockSize+u] = s * cu * cv / 4
		}
	}
	*b = out
}

// InverseReference computes the inverse transform by the textbook
// definition.
func InverseReference(b *Block) {
	var out Block
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			s := 0.0
			for v := 0; v < BlockSize; v++ {
				for u := 0; u < BlockSize; u++ {
					cu, cv := 1.0, 1.0
					if u == 0 {
						cu = math.Sqrt2 / 2
					}
					if v == 0 {
						cv = math.Sqrt2 / 2
					}
					s += cu * cv * b[v*BlockSize+u] * basisTable[u][x] * basisTable[v][y]
				}
			}
			out[y*BlockSize+x] = s / 4
		}
	}
	*b = out
}

// BasisFunction returns the value of the (u,v) DCT basis at pixel (x,y),
// matching b(i,j) in Eq. 1 of the DeepN-JPEG paper.
func BasisFunction(u, v, x, y int) float64 {
	return basisTable[u][x] * basisTable[v][y]
}

// LevelShift subtracts 128 from unsigned 8-bit samples, mapping them to the
// signed range expected by the forward transform.
func LevelShift(samples []uint8, dst *Block) {
	for i, s := range samples {
		dst[i] = float64(s) - 128
	}
}

// LevelUnshift adds 128, rounds, and clamps spatial samples back to [0,255].
func LevelUnshift(b *Block, dst []uint8) {
	for i := range b {
		v := math.Round(b[i] + 128)
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		dst[i] = uint8(v)
	}
}
