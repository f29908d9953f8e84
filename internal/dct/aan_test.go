package dct

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fdctAAN1D and idctAAN1D are the 1-D AAN butterflies written with a
// runtime stride: the bit-level oracle for the flat batch kernels — same
// operations, same order, indexed differently.
func fdctAAN1D(d []float64, off, stride int) {
	i := func(k int) int { return off + k*stride }
	tmp0 := d[i(0)] + d[i(7)]
	tmp7 := d[i(0)] - d[i(7)]
	tmp1 := d[i(1)] + d[i(6)]
	tmp6 := d[i(1)] - d[i(6)]
	tmp2 := d[i(2)] + d[i(5)]
	tmp5 := d[i(2)] - d[i(5)]
	tmp3 := d[i(3)] + d[i(4)]
	tmp4 := d[i(3)] - d[i(4)]

	tmp10 := tmp0 + tmp3
	tmp13 := tmp0 - tmp3
	tmp11 := tmp1 + tmp2
	tmp12 := tmp1 - tmp2

	d[i(0)] = tmp10 + tmp11
	d[i(4)] = tmp10 - tmp11

	z1 := (tmp12 + tmp13) * aanC4
	d[i(2)] = tmp13 + z1
	d[i(6)] = tmp13 - z1

	tmp10 = tmp4 + tmp5
	tmp11 = tmp5 + tmp6
	tmp12 = tmp6 + tmp7

	z5 := (tmp10 - tmp12) * aanC5
	z2 := aanC2*tmp10 + z5
	z4 := aanC6*tmp12 + z5
	z3 := tmp11 * aanC4

	z11 := tmp7 + z3
	z13 := tmp7 - z3

	d[i(5)] = z13 + z2
	d[i(3)] = z13 - z2
	d[i(1)] = z11 + z4
	d[i(7)] = z11 - z4
}

func idctAAN1D(d []float64, off, stride int) {
	i := func(k int) int { return off + k*stride }
	tmp0 := d[i(0)]
	tmp1 := d[i(2)]
	tmp2 := d[i(4)]
	tmp3 := d[i(6)]

	tmp10 := tmp0 + tmp2
	tmp11 := tmp0 - tmp2
	tmp13 := tmp1 + tmp3
	tmp12 := (tmp1-tmp3)*(2*aanC4) - tmp13

	tmp0 = tmp10 + tmp13
	tmp3 = tmp10 - tmp13
	tmp1 = tmp11 + tmp12
	tmp2 = tmp11 - tmp12

	tmp4 := d[i(1)]
	tmp5 := d[i(3)]
	tmp6 := d[i(5)]
	tmp7 := d[i(7)]

	z13 := tmp6 + tmp5
	z10 := tmp6 - tmp5
	z11 := tmp4 + tmp7
	z12 := tmp4 - tmp7

	tmp7 = z11 + z13
	tmp11 = (z11 - z13) * (2 * aanC4)

	z5 := (z10 + z12) * 1.847759065022573
	tmp10 = 1.082392200292394*z12 - z5
	tmp12 = -2.613125929752753*z10 + z5

	tmp6 = tmp12 - tmp7
	tmp5 = tmp11 - tmp6
	tmp4 = tmp10 + tmp5

	d[i(0)] = tmp0 + tmp7
	d[i(7)] = tmp0 - tmp7
	d[i(1)] = tmp1 + tmp6
	d[i(6)] = tmp1 - tmp6
	d[i(2)] = tmp2 + tmp5
	d[i(5)] = tmp2 - tmp5
	d[i(4)] = tmp3 + tmp4
	d[i(3)] = tmp3 - tmp4
}

// stridedForwardRaw and stridedInverseRaw run the strided butterflies
// over one block in the pass order of the batch kernels: rows then
// columns forward, columns then rows inverse.
func stridedForwardRaw(b *Block) {
	for y := 0; y < BlockSize; y++ {
		fdctAAN1D(b[:], y*BlockSize, 1)
	}
	for x := 0; x < BlockSize; x++ {
		fdctAAN1D(b[:], x, BlockSize)
	}
}

func stridedInverseRaw(b *Block) {
	for x := 0; x < BlockSize; x++ {
		idctAAN1D(b[:], x, BlockSize)
	}
	for y := 0; y < BlockSize; y++ {
		idctAAN1D(b[:], y*BlockSize, 1)
	}
}

func TestForwardAANMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		b := randBlock(rng)
		ref := b
		forward(&b)
		ForwardReference(&ref)
		if d := maxAbsDiff(&b, &ref); d > 1e-9 {
			t.Fatalf("trial %d: max |aan-ref| = %g", trial, d)
		}
	}
}

func TestInverseAANMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		b := randBlock(rng)
		ref := b
		inverse(&b)
		InverseReference(&ref)
		if d := maxAbsDiff(&b, &ref); d > 1e-9 {
			t.Fatalf("trial %d: max |aan-ref| = %g", trial, d)
		}
	}
}

// TestAANRoundTrip drives random planes through the orthonormal batch
// pair: forward then inverse must reproduce the input.
func TestAANRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plane := randPlane(rng, 1+rng.Intn(8))
		orig := append([]float64(nil), plane...)
		ForwardAANBatch(plane)
		InverseAANBatch(plane)
		for i := range plane {
			if math.Abs(plane[i]-orig[i]) >= 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAANCrossCompatible: forward with one implementation, inverse with
// the other — both directions must land back on the original samples.
func TestAANCrossCompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	orig := randBlock(rng)
	b := orig
	forward(&b)
	separableInverse(&b)
	if d := maxAbsDiff(&b, &orig); d > 1e-9 {
		t.Fatalf("AAN forward + separable inverse: %g", d)
	}
	b = orig
	separableForward(&b)
	inverse(&b)
	if d := maxAbsDiff(&b, &orig); d > 1e-9 {
		t.Fatalf("separable forward + AAN inverse: %g", d)
	}
}

// TestAANRawScaleContract pins the decomposition the scaled-table codec
// path is built on: the raw butterflies plus an explicit per-band scale
// multiply must reproduce the orthonormal transform, in both directions.
// A drift in either the butterflies or the exported factors breaks the
// folded quantization tables silently — this is the test that catches it
// at the dct layer.
func TestAANRawScaleContract(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		orig := randBlock(rng)

		// Forward: raw output × descale == orthonormal reference.
		fwd := orig
		ForwardAANRawBatch(fwd[:])
		for i := range fwd {
			fwd[i] *= AANForwardDescale(i)
		}
		ref := orig
		ForwardReference(&ref)
		if d := maxAbsDiff(&fwd, &ref); d > 1e-9 {
			t.Fatalf("trial %d: raw forward + descale vs reference: %g", trial, d)
		}

		// Inverse: prescale × raw butterflies == orthonormal reference.
		inv := orig
		for i := range inv {
			inv[i] *= AANInversePrescale(i)
		}
		InverseAANRawBatch(inv[:])
		ref = orig
		InverseReference(&ref)
		if d := maxAbsDiff(&inv, &ref); d > 1e-9 {
			t.Fatalf("trial %d: prescale + raw inverse vs reference: %g", trial, d)
		}
	}
}

// TestAANScaleFactorsPositive guards the divisors' sanity: folding a
// zero or negative factor into a quantization table would flip or zero
// coefficients.
func TestAANScaleFactorsPositive(t *testing.T) {
	for i := 0; i < BlockSize*BlockSize; i++ {
		if AANForwardDescale(i) <= 0 {
			t.Fatalf("descale[%d] = %g, want > 0", i, AANForwardDescale(i))
		}
		if AANInversePrescale(i) <= 0 {
			t.Fatalf("prescale[%d] = %g, want > 0", i, AANInversePrescale(i))
		}
	}
}

// TestAANScaleFactorBits pins the exact bits of all 128 scale factors.
// They are folded into every quantization table, so a change in how
// init derives them — a reordered butterfly, a different constant —
// moves encoded streams even when every tolerance test still passes.
func TestAANScaleFactorBits(t *testing.T) {
	h := sha256.New()
	for _, f := range []func(int) float64{AANForwardDescale, AANInversePrescale} {
		for i := 0; i < BlockSize2; i++ {
			binary.Write(h, binary.BigEndian, math.Float64bits(f(i)))
		}
	}
	const want = "5bf46e8987bd179e54f3eeb703c9b427dc07b6e1e71af78141c929c9685f359e"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("scale-factor bits digest %s, want %s", got, want)
	}
}

func TestAANDCOfConstantBlock(t *testing.T) {
	var b Block
	for i := range b {
		b[i] = 100
	}
	Transform{}.ForwardScaledBatch(b[:])
	if d := b[0]*AANForwardDescale(0) - 800; d > 1e-9 || d < -1e-9 {
		t.Fatalf("descaled DC = %g, want 800", b[0]*AANForwardDescale(0))
	}
}
