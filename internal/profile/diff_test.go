package profile

import (
	"strings"
	"testing"
)

func TestCompareIdentical(t *testing.T) {
	a := syntheticProfile(true)
	b := syntheticProfile(true)
	// Identity metadata is outside the comparison.
	b.Name, b.Version, b.CreatedUnix, b.Comment = "renamed", 9, 1, "different provenance"
	d := Compare(a, b)
	if !d.Identical() {
		t.Fatalf("identical calibrations diff non-empty: %q", d.String())
	}
	if d.String() != "" {
		t.Fatalf("identical diff renders %q, want empty", d.String())
	}
}

// TestCompareIgnoresEngineByte: the engine byte selects nothing, so two
// profiles that differ only there encode identically and must compare
// Identical — diff answers "would these encode differently".
func TestCompareIgnoresEngineByte(t *testing.T) {
	a := syntheticProfile(true)
	b, err := Decode(withEngineByte(t, a, 0))
	if err != nil {
		t.Fatal(err)
	}
	if d := Compare(a, b); !d.Identical() {
		t.Fatalf("profiles differing only in the engine byte diff non-empty: %q", d.String())
	}
}

func TestCompareTableDelta(t *testing.T) {
	a := syntheticProfile(false)
	b := syntheticProfile(false)
	b.Luma[0] = a.Luma[0] + 4
	b.Chroma[63] = a.Chroma[63] - 2
	d := Compare(a, b)
	if d.Identical() {
		t.Fatal("table change not detected")
	}
	if len(d.Luma) != 1 || d.Luma[0].Band != 0 || d.Luma[0].B != a.Luma[0]+4 {
		t.Fatalf("luma deltas = %+v", d.Luma)
	}
	if len(d.Chroma) != 1 || d.Chroma[0].Band != 63 {
		t.Fatalf("chroma deltas = %+v", d.Chroma)
	}
	out := d.String()
	for _, want := range []string{"luma table: 1 of 64 bands differ", "band[0,0]", "(+4)", "band[7,7]", "(-2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered diff missing %q:\n%s", want, out)
		}
	}
}

func TestCompareStatsAndFields(t *testing.T) {
	a := syntheticProfile(true)
	b := syntheticProfile(true)
	b.SampledCount = a.SampledCount * 2
	b.Params.K1 += 0.5
	b.LumaStats.Std[10] += 3.25
	b.LumaStats.Blocks += 100
	d := Compare(a, b)
	if d.Identical() {
		t.Fatal("stat/field changes not detected")
	}
	if len(d.Fields) != 2 {
		t.Fatalf("fields = %v, want sampled + PLM k1", d.Fields)
	}
	var sawStd, sawBlocks bool
	for _, sd := range d.LumaStats {
		switch sd.Field {
		case "std":
			sawStd = sawStd || sd.Band == 10
		case "blocks":
			sawBlocks = true
		}
	}
	if !sawStd || !sawBlocks {
		t.Fatalf("luma stat deltas = %+v", d.LumaStats)
	}
	out := d.String()
	for _, want := range []string{"sampled:", "PLM k1:", "blocks", "std differs in 1 band(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered diff missing %q:\n%s", want, out)
		}
	}
}

func TestCompareChromaCalibrationPresence(t *testing.T) {
	a := syntheticProfile(true)
	b := syntheticProfile(false)
	d := Compare(a, b)
	if d.Identical() {
		t.Fatal("chroma-calibration presence change not detected")
	}
	var found bool
	for _, f := range d.Fields {
		found = found || strings.Contains(f, "chroma calibrated")
	}
	if !found {
		t.Fatalf("fields = %v, want chroma-calibrated change", d.Fields)
	}
}
