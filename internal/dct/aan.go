package dct

// This file holds the scale factors of the Arai–Agui–Nakajima (AAN) fast
// DCT, the algorithm inside libjpeg's "fast" paths. A 1-D AAN pass needs
// only 5 multiplications and 29 additions but produces *scaled* outputs:
// the 2-D result equals the orthonormal DCT multiplied by a fixed
// per-band factor. The butterflies themselves live in batch.go.
//
// Codecs that quantize anyway never need that extra multiply pass:
// ForwardAANRawBatch/InverseAANRawBatch run the bare butterflies, and
// AANForwardDescale/AANInversePrescale expose the per-band factors so the
// quantization table can absorb them (qtable.Table.FwdScaled/InvScaled) —
// libjpeg's scaled-table trick, which the codec's hot loops use.

import "math"

// aanDescale[u] converts one dimension of raw AAN butterfly output to the
// orthonormal basis; the 2-D factor is aanDescale[u]·aanDescale[v]. The
// factors are calibrated once at init against the closed-form 1-D DCT of
// each basis vector, which keeps them exact for this butterfly regardless
// of which of the (several) published AAN scalings the code matches.
var aanDescale [BlockSize]float64

// aanPrescale[u] converts one dimension of orthonormal coefficients to
// the scaled convention the inverse butterfly expects; the 2-D factor is
// aanPrescale[u]·aanPrescale[v]. Like aanDescale it is calibrated at
// init, so the tables stay correct for this exact butterfly.
var aanPrescale [BlockSize]float64

// aanDescale2D and aanPrescale2D hold the separable 2-D factors in
// natural (row-major) order: index v*8+u carries the product of the two
// 1-D factors. They are what scaled quantization tables fold in.
var aanDescale2D, aanPrescale2D [BlockSize * BlockSize]float64

func init() {
	for u := 0; u < BlockSize; u++ {
		// Forward: row 0 = the u-th cosine basis vector (computed locally:
		// package init order must not depend on dct.go's tables), run
		// through the flat row butterfly. Its orthonormal 1-D DCT is a
		// single nonzero coefficient: c(u)·Σₓcos², with c(0)=1/√8 and
		// c(u>0)=1/2, Σcos² = 8 for u=0 and 4 otherwise.
		var d Block
		for x := 0; x < BlockSize; x++ {
			d[x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
		want := 2.0 // 1/2·4 for u > 0
		if u == 0 {
			want = 8 / math.Sqrt(8)
		}
		fdctAANRowsFlat(&d)
		aanDescale[u] = want / d[u]

		// Inverse: a coefficient delta maps to k(u)·cos basis; the
		// unnormalized inverse DCT needs weight w(u) (1/8 for DC, 1/4
		// otherwise) on the unnormalized coefficient D(u) = ortho/c(u),
		// so the pre-multiplier is w(u)/(k(u)·c(u)).
		var e Block
		e[u] = 1
		idctAANRowsFlat(&e)
		k := e[0] / math.Cos(float64(u)*math.Pi/16)
		w, c := 0.25, 0.5
		if u == 0 {
			w, c = 0.125, 1/math.Sqrt(8)
		}
		aanPrescale[u] = w / (k * c)
	}
	for v := 0; v < BlockSize; v++ {
		for u := 0; u < BlockSize; u++ {
			aanDescale2D[v*BlockSize+u] = aanDescale[u] * aanDescale[v]
			aanPrescale2D[v*BlockSize+u] = aanPrescale[u] * aanPrescale[v]
		}
	}
}

// AANForwardDescale returns the factor that maps ForwardAANRawBatch's
// output at natural index i (v*8+u) to the orthonormal basis: ortho =
// raw · AANForwardDescale(i). A quantizer folds it into its divisors as
// q[i]/AANForwardDescale(i), after which raw butterfly output quantizes
// directly.
func AANForwardDescale(i int) float64 { return aanDescale2D[i] }

// AANInversePrescale returns the factor that maps orthonormal
// coefficients at natural index i to the scaled convention
// InverseAANRawBatch expects: scaled = ortho · AANInversePrescale(i). A
// dequantizer folds it into its multipliers as q[i]·AANInversePrescale(i).
func AANInversePrescale(i int) float64 { return aanPrescale2D[i] }

// AAN butterfly constants.
const (
	aanC2 = 0.541196100146197 // √2·cos(3π/8) = c2−c6 rotation constant
	aanC4 = 0.707106781186548 // cos(π/4)
	aanC6 = 1.306562964876377 // c2+c6
	aanC5 = 0.382683432365090 // cos(3π/8)
)
