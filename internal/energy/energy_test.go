package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestPaperLatencyCalibration reproduces the intro's motivating numbers:
// a 152 KB image upload takes 870 ms (3G), 180 ms (LTE), 95 ms (Wi-Fi).
func TestPaperLatencyCalibration(t *testing.T) {
	cases := []struct {
		link Link
		want time.Duration
	}{
		{ThreeG, 870 * time.Millisecond},
		{LTE, 180 * time.Millisecond},
		{WiFi, 95 * time.Millisecond},
	}
	for _, c := range cases {
		got := c.link.TransferLatency(ReferenceImageBytes)
		if diff := got - c.want; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("%s: latency %v, want %v", c.link.Name, got, c.want)
		}
	}
}

func TestLatencyLinearInBytes(t *testing.T) {
	half := ThreeG.TransferLatency(ReferenceImageBytes / 2)
	full := ThreeG.TransferLatency(ReferenceImageBytes)
	if math.Abs(float64(full)-2*float64(half)) > float64(time.Millisecond) {
		t.Fatalf("latency not linear: half=%v full=%v", half, full)
	}
	if ThreeG.TransferLatency(0) != 0 || ThreeG.TransferLatency(-5) != 0 {
		t.Fatal("non-positive payloads must cost nothing")
	}
}

func TestTransferEnergyIsPowerTimesTime(t *testing.T) {
	e := LTE.TransferEnergy(ReferenceImageBytes)
	want := LTE.RadioPowerW * 0.180
	if math.Abs(e-want) > 1e-6 {
		t.Fatalf("energy %g, want %g", e, want)
	}
	if LTE.TransferEnergy(0) != 0 {
		t.Fatal("zero payload must cost nothing")
	}
}

// TestCommunicationDominatesCompute reproduces the intro's claim: over 3G,
// transmitting the reference image costs far more energy than running a
// mobile-scale DNN inference (~724M MACs for AlexNet).
func TestCommunicationDominatesCompute(t *testing.T) {
	transfer := ThreeG.TransferEnergy(ReferenceImageBytes)
	compute := DefaultCompute().Energy(724_000_000)
	if transfer < compute {
		t.Fatalf("3G transfer %g J below compute %g J — breaks the paper's premise", transfer, compute)
	}
	// And they are within ~one order of magnitude, per "communication
	// energy is comparable with DNN computation energy".
	if transfer > 100*compute {
		t.Fatalf("transfer/compute ratio %.1f implausible", transfer/compute)
	}
}

func TestEnergyPerByteOrdering(t *testing.T) {
	// 3G is the most expensive way to move a byte; Wi-Fi the cheapest.
	g3, lte, wifi := ThreeG.TransferEnergy(1), LTE.TransferEnergy(1), WiFi.TransferEnergy(1)
	if !(g3 > lte && lte > wifi) {
		t.Fatalf("per-byte energy ordering broken: 3G=%g LTE=%g WiFi=%g", g3, lte, wifi)
	}
}

func TestNormalizedPower(t *testing.T) {
	sizes := []SchemeBytes{
		{"original", 1000},
		{"deepn", 286},
		{"same-q4", 900},
	}
	norm, err := NormalizedPower(sizes, "original")
	if err != nil {
		t.Fatal(err)
	}
	if norm["original"] != 1 {
		t.Fatalf("baseline norm %g", norm["original"])
	}
	if math.Abs(norm["deepn"]-0.286) > 1e-9 {
		t.Fatalf("deepn norm %g", norm["deepn"])
	}
}

func TestNormalizedPowerErrors(t *testing.T) {
	if _, err := NormalizedPower([]SchemeBytes{{"a", 10}}, "missing"); err == nil {
		t.Fatal("missing baseline accepted")
	}
	if _, err := NormalizedPower([]SchemeBytes{{"a", 0}}, "a"); err == nil {
		t.Fatal("zero-byte baseline accepted")
	}
}

func TestComputeEnergy(t *testing.T) {
	c := Compute{JoulesPerMAC: 2e-9}
	if got := c.Energy(1_000_000); math.Abs(got-2e-3) > 1e-12 {
		t.Fatalf("compute energy %g", got)
	}
	if c.Energy(-1) != 0 {
		t.Fatal("negative MACs must cost nothing")
	}
}

// Property: fewer bytes never cost more energy or time on any link.
func TestPropertyMonotoneCost(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := int64(a%1_000_000), int64(b%1_000_000)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, l := range []Link{ThreeG, LTE, WiFi} {
			if l.TransferEnergy(lo) > l.TransferEnergy(hi) {
				return false
			}
			if l.TransferLatency(lo) > l.TransferLatency(hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
