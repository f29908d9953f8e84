package qtable

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestZigZagIsPermutation(t *testing.T) {
	seen := [64]bool{}
	for _, n := range ZigZagOrder {
		if n < 0 || n > 63 {
			t.Fatalf("zig-zag entry %d out of range", n)
		}
		if seen[n] {
			t.Fatalf("zig-zag entry %d repeated", n)
		}
		seen[n] = true
	}
}

func TestZigZagInverse(t *testing.T) {
	for z, n := range ZigZagOrder {
		if NaturalToZigZag[n] != z {
			t.Fatalf("NaturalToZigZag[%d] = %d, want %d", n, NaturalToZigZag[n], z)
		}
	}
}

func TestZigZagKnownEntries(t *testing.T) {
	// T.81 Figure 5: the scan starts 0,1,8,16,9,2 and ends at 63.
	if ZigZagOrder[0] != 0 || ZigZagOrder[1] != 1 || ZigZagOrder[2] != 8 {
		t.Fatalf("zig-zag head wrong: %v", ZigZagOrder[:3])
	}
	if ZigZagOrder[63] != 63 {
		t.Fatalf("zig-zag tail = %d, want 63", ZigZagOrder[63])
	}
	// Anti-diagonal property: consecutive entries move along anti-diagonals,
	// so u+v is non-decreasing by at most 1 between neighbours.
	prev := 0
	for z, n := range ZigZagOrder {
		sum := n/8 + n%8
		if sum < prev-1 || sum > prev+1 {
			t.Fatalf("zig-zag entry %d jumps diagonals: %d → %d", z, prev, sum)
		}
		prev = sum
	}
}

func TestScaleQF50IsIdentity(t *testing.T) {
	got := MustScale(StdLuminance, 50)
	if got != StdLuminance {
		t.Fatalf("QF=50 should return the base table")
	}
}

func TestScaleQF100IsAllOnes(t *testing.T) {
	got := MustScale(StdLuminance, 100)
	for i, q := range got {
		if q != 1 {
			t.Fatalf("QF=100 step[%d] = %d, want 1", i, q)
		}
	}
}

func TestScaleMonotonic(t *testing.T) {
	// Larger QF must never produce larger steps.
	prev := MustScale(StdLuminance, 1)
	for qf := 2; qf <= 100; qf++ {
		cur := MustScale(StdLuminance, qf)
		for i := range cur {
			if cur[i] > prev[i] {
				t.Fatalf("QF %d step[%d]=%d exceeds QF %d step %d", qf, i, cur[i], qf-1, prev[i])
			}
		}
		prev = cur
	}
}

func TestScaleRejectsBadQF(t *testing.T) {
	for _, qf := range []int{0, -1, 101} {
		if _, err := Scale(StdLuminance, qf); err == nil {
			t.Errorf("Scale(qf=%d) should fail", qf)
		}
	}
}

func TestScaleClampsTo255(t *testing.T) {
	got := MustScale(StdLuminance, 1)
	for i, q := range got {
		if q < 1 || q > 255 {
			t.Fatalf("QF=1 step[%d] = %d out of range", i, q)
		}
	}
}

func TestUniform(t *testing.T) {
	u := Uniform(8)
	for _, q := range u {
		if q != 8 {
			t.Fatalf("Uniform(8) contains %d", q)
		}
	}
	if Uniform(0)[0] != 1 || Uniform(999)[0] != 255 {
		t.Fatal("Uniform should clamp to [1,255]")
	}
}

// maskCount returns the number of bands m drops.
func maskCount(m ZeroMask) int {
	n := 0
	for _, drop := range m {
		if drop {
			n++
		}
	}
	return n
}

func TestTopZigZag(t *testing.T) {
	m := TopZigZag(6)
	if maskCount(m) != 6 {
		t.Fatalf("mask count = %d, want 6", maskCount(m))
	}
	// The six highest zig-zag positions are indices 58..63 of the scan.
	for z := 58; z < 64; z++ {
		if !m[ZigZagOrder[z]] {
			t.Fatalf("zig-zag position %d not masked", z)
		}
	}
	// DC must never be masked for reasonable n.
	if m[0] {
		t.Fatal("DC masked by TopZigZag(6)")
	}
	if maskCount(TopZigZag(-1)) != 0 || maskCount(TopZigZag(100)) != 64 {
		t.Fatal("TopZigZag should clamp n")
	}
}

func TestRMHF(t *testing.T) {
	tbl, mask := RMHF(3)
	if tbl != MustScale(StdLuminance, 100) {
		t.Fatal("RM-HF base table should be QF=100")
	}
	if maskCount(mask) != 3 {
		t.Fatalf("RM-HF mask count = %d", maskCount(mask))
	}
}

func TestValidate(t *testing.T) {
	if err := StdLuminance.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := StdLuminance
	bad[5] = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero step should be invalid")
	}
	bad[5] = 300
	if err := bad.Validate(); err == nil {
		t.Fatal("step 300 should be invalid")
	}
}

func TestZigZagRoundTrip(t *testing.T) {
	f := func(vals [64]uint16) bool {
		var tbl Table
		for i, v := range vals {
			tbl[i] = v%255 + 1
		}
		return FromZigZag(tbl.InZigZag()) == tbl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if got := Uniform(7).Mean(); got != 7 {
		t.Fatalf("Mean = %g, want 7", got)
	}
}

func TestStringRendersGrid(t *testing.T) {
	s := StdLuminance.String()
	if lines := strings.Count(s, "\n"); lines != 8 {
		t.Fatalf("String has %d lines, want 8", lines)
	}
	if !strings.Contains(s, "16") {
		t.Fatal("String missing first entry")
	}
}

func TestStdTablesAreValid(t *testing.T) {
	if err := StdLuminance.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := StdChrominance.Validate(); err != nil {
		t.Fatal(err)
	}
	// Annex-K spot checks.
	if StdLuminance[0] != 16 || StdLuminance[63] != 99 {
		t.Fatal("luminance table corners wrong")
	}
	if StdChrominance[0] != 17 || StdChrominance[63] != 99 {
		t.Fatal("chrominance table corners wrong")
	}
}
