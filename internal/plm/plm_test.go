package plm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/freqstat"
)

func TestPaperConstantsAreSelfConsistent(t *testing.T) {
	p := PaperImageNet()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The published constants satisfy the anchor identities: the HF line
	// hits Q1=60 at T1=20 and the MF line continues from there to Q2=20 at
	// T2=60.
	if got := p.A - p.K1*p.T1; got != 60 {
		t.Fatalf("HF line at T1 = %g, want 60", got)
	}
	if got := p.B - p.K2*p.T1; got != 60 {
		t.Fatalf("MF line at T1 = %g, want 60 (continuity)", got)
	}
	if got := p.B - p.K2*p.T2; got != 20 {
		t.Fatalf("MF line at T2 = %g, want 20", got)
	}
	// c = Qmin + k3·δmax ⇒ δmax = (240−5)/3 ≈ 78.3, the paper's ImageNet σ
	// range.
	if dmax := (p.C - p.QMin) / p.K3; math.Abs(dmax-78.333) > 0.01 {
		t.Fatalf("implied δmax = %g", dmax)
	}
}

func TestStepSegments(t *testing.T) {
	p := PaperImageNet()
	cases := []struct {
		sigma float64
		want  uint16
	}{
		{0, 255},   // empty band → coarsest step
		{10, 158},  // HF: 255 − 97.5 = 157.5 → 158
		{20, 60},   // boundary T1 (HF side): 255 − 195 = 60
		{30, 50},   // MF: 80 − 30
		{60, 20},   // boundary T2 (MF side): 80 − 60
		{70, 30},   // LF: 240 − 210
		{78.33, 5}, // LF at δmax → QMin
		{100, 5},   // beyond δmax clamps at QMin
	}
	for _, c := range cases {
		if got := p.Step(c.sigma); got != c.want {
			t.Errorf("Step(%g) = %d, want %d", c.sigma, got, c.want)
		}
	}
}

func TestStepClampsToQMax(t *testing.T) {
	p := PaperImageNet()
	p.A = 400 // would exceed the baseline limit at σ=0
	if got := p.Step(0); got != 255 {
		t.Fatalf("Step(0) = %d, want clamp to 255", got)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{T1: 10, T2: 5, QMin: 5, QMax: 255},          // T2 < T1
		{T1: 10, T2: 20, QMin: 0, QMax: 255},         // QMin < 1
		{T1: 10, T2: 20, QMin: 5, QMax: 300},         // QMax > 255
		{T1: 10, T2: 20, QMin: 99, QMax: 50},         // QMin > QMax
		{T1: 10, T2: 20, QMin: 5, QMax: 255, K1: -1}, // negative slope
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestTableMonotoneInSigma(t *testing.T) {
	// Within each segment, a larger δ must never get a coarser step; across
	// the whole range the clamps keep the result in [QMin, QMax].
	p := PaperImageNet()
	var stats freqstat.Stats
	for i := range stats.Std {
		stats.Std[i] = float64(i) * 78.0 / 63.0
	}
	tbl, err := p.Table(&stats)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl {
		if tbl[i] < uint16(p.QMin) || tbl[i] > uint16(p.QMax) {
			t.Fatalf("step[%d] = %d outside clamps", i, tbl[i])
		}
	}
	// The most energetic band must get the finest step of the table.
	finest := tbl[0]
	for _, q := range tbl {
		if q < finest {
			finest = q
		}
	}
	if tbl[63] != finest {
		t.Fatalf("largest-σ band got %d, finest is %d", tbl[63], finest)
	}
}

func TestFitReproducesPaperParams(t *testing.T) {
	// Fitting with the paper's anchors and the ImageNet thresholds/δmax
	// must land on the published constants.
	p, err := Fit(PaperAnchors(), 20, 60, (240.0-5.0)/3.0)
	if err != nil {
		t.Fatal(err)
	}
	ref := PaperImageNet()
	if p.A != ref.A || p.B != ref.B || math.Abs(p.C-ref.C) > 1e-9 ||
		math.Abs(p.K1-ref.K1) > 1e-9 || p.K2 != ref.K2 || math.Abs(p.K3-ref.K3) > 1e-9 {
		t.Fatalf("fit %+v != paper %+v", p, ref)
	}
}

func TestFitRejectsBadInputs(t *testing.T) {
	a := PaperAnchors()
	if _, err := Fit(a, 0, 60, 80); err == nil {
		t.Error("T1=0 accepted")
	}
	if _, err := Fit(a, 60, 20, 80); err == nil {
		t.Error("T2<T1 accepted")
	}
	if _, err := Fit(a, 20, 60, 50); err == nil {
		t.Error("σmax<T2 accepted")
	}
	bad := a
	bad.Q1, bad.Q2 = 20, 60 // inverted
	if _, err := Fit(bad, 20, 60, 80); err == nil {
		t.Error("Q1<Q2 accepted")
	}
}

// Property: for any valid fit, the PLM is continuous at T1, assigns QMin at
// δmax, and never leaves [QMin, QMax].
func TestPropertyFitInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := 5 + rng.Float64()*20
		t2 := t1 + 5 + rng.Float64()*40
		sigmaMax := t2 + 5 + rng.Float64()*40
		a := Anchors{
			QMin: 1 + rng.Float64()*6,
			QMax: 200 + rng.Float64()*55,
			K3:   0.5 + rng.Float64()*5,
		}
		a.Q2 = a.QMin + 5 + rng.Float64()*20
		a.Q1 = a.Q2 + 10 + rng.Float64()*50
		if a.Q1 >= a.QMax {
			return true // skip degenerate draw
		}
		p, err := Fit(a, t1, t2, sigmaMax)
		if err != nil {
			return false
		}
		// Continuity at T1 (both lines meet at Q1).
		hf := p.A - p.K1*p.T1
		mf := p.B - p.K2*p.T1
		if math.Abs(hf-mf) > 1e-6 {
			return false
		}
		// δmax maps to QMin.
		if got := p.Step(sigmaMax); math.Abs(float64(got)-a.QMin) > 1 {
			return false
		}
		// Range check across a σ sweep.
		for s := 0.0; s < sigmaMax*1.5; s += sigmaMax / 97 {
			q := float64(p.Step(s))
			if q < p.QMin || q > p.QMax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFitFromStats runs the magnitude branch of the design flow:
// segment the bands by δ, then fit the PLM to the segmentation's
// thresholds and the largest δ.
func TestFitFromStats(t *testing.T) {
	// Synthetic stats: DC and a few low bands energetic, tail quiet.
	var stats freqstat.Stats
	for i := range stats.Std {
		stats.Std[i] = 80 * math.Exp(-float64(i)/10)
	}
	seg := freqstat.SegmentByMagnitude(&stats)
	p, err := Fit(PaperAnchors(), seg.T1, seg.T2, stats.MaxStd())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := p.Table(&stats)
	if err != nil {
		t.Fatal(err)
	}
	// LF bands must receive finer steps than HF bands on average.
	var lfSum, hfSum float64
	var lfN, hfN int
	for i := range tbl {
		switch seg.Class[i] {
		case freqstat.LF:
			lfSum += float64(tbl[i])
			lfN++
		case freqstat.HF:
			hfSum += float64(tbl[i])
			hfN++
		}
	}
	if lfSum/float64(lfN) >= hfSum/float64(hfN) {
		t.Fatalf("LF mean step %.1f not finer than HF %.1f", lfSum/float64(lfN), hfSum/float64(hfN))
	}
}

func TestFitFromStatsDegenerateFails(t *testing.T) {
	// All-equal σ gives T1 == T2 == σ, which cannot be fitted.
	var stats freqstat.Stats
	for i := range stats.Std {
		stats.Std[i] = 10
	}
	seg := freqstat.SegmentByMagnitude(&stats)
	if _, err := Fit(PaperAnchors(), seg.T1, seg.T2, stats.MaxStd()); err == nil {
		t.Fatal("degenerate stats accepted")
	}
}

func TestTableFromSigmas(t *testing.T) {
	p := PaperImageNet()
	var stats freqstat.Stats
	for i := range stats.Std {
		stats.Std[i] = float64(i)
	}
	tbl, err := p.Table(&stats)
	if err != nil {
		t.Fatal(err)
	}
	if tbl[0] != 255 { // σ=0 → coarsest
		t.Fatalf("step for σ=0 is %d", tbl[0])
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}
