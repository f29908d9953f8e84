package qtable

import (
	"testing"

	"repro/internal/dct"
)

func fwdScaled(t Table) *FwdScaled {
	dst := new(FwdScaled)
	t.FwdScaledInto(dst)
	return dst
}

// TestScaledAANFoldsFactors checks the folded values band by band
// against the dct package's scale-factor accessors: forward divisors
// absorb the descale (q/descale), inverse multipliers absorb the
// prescale (q·prescale).
func TestScaledAANFoldsFactors(t *testing.T) {
	for _, tbl := range []Table{StdLuminance, StdChrominance, Uniform(1), Uniform(255)} {
		fwd := fwdScaled(tbl)
		inv := tbl.InvScaled(dct.Transform{})
		for i, q := range tbl {
			if want := float64(q) / dct.AANForwardDescale(i); fwd[i] != want {
				t.Fatalf("fwd[%d] = %g, want %g", i, fwd[i], want)
			}
			if want := float64(q) * dct.AANInversePrescale(i); inv[i] != want {
				t.Fatalf("inv[%d] = %g, want %g", i, inv[i], want)
			}
		}
	}
}

// TestScaledIntoMatchesAllocating keeps the pooled-scratch variant in
// lockstep with the allocating one.
func TestScaledIntoMatchesAllocating(t *testing.T) {
	tbl := MustScale(StdLuminance, 75)
	var inv InvScaled
	tbl.InvScaledInto(&inv)
	if inv != *tbl.InvScaled(dct.Transform{}) {
		t.Fatal("InvScaledInto diverges from InvScaled")
	}
}

// TestScaledRoundTripNeutral sanity-checks the algebra end to end inside
// qtable: dividing by the fused forward divisor and multiplying by the
// fused inverse multiplier must cancel the quantization step against
// itself, leaving exactly descale·prescale — the same net factor the
// unfolded AAN path applies between its butterfly passes.
func TestScaledRoundTripNeutral(t *testing.T) {
	tbl := MustScale(StdLuminance, 30)
	fwd := fwdScaled(tbl)
	inv := tbl.InvScaled(dct.Transform{})
	for i := range tbl {
		got := inv[i] / fwd[i]
		want := dct.AANForwardDescale(i) * dct.AANInversePrescale(i)
		if diff := got - want; diff > 1e-15 || diff < -1e-15 {
			t.Fatalf("band %d: inv/fwd = %g, want descale·prescale = %g", i, got, want)
		}
	}
}
