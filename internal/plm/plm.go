// Package plm implements the piece-wise linear mapping (Eq. 3 of
// DeepN-JPEG) that converts per-band coefficient standard deviations δ(i,j)
// into quantization steps:
//
//	Q(δ) = a − k1·δ   if δ ≤ T1          (HF: least important bands)
//	     = b − k2·δ   if T1 < δ ≤ T2     (MF)
//	     = c − k3·δ   if δ > T2          (LF: most important bands)
//	subject to Qmin ≤ Q ≤ Qmax
//
// The published ImageNet constants (a=255, b=80, c=240, T1=20, T2=60,
// k1=9.75, k2=1, k3=3, Qmin=5) satisfy the anchor identities
//
//	a  = Qmax                         (an empty band gets the coarsest step)
//	k1 = (Qmax − Q1)/T1               (HF line falls from Qmax to Q1 at T1)
//	k2 = (Q1 − Q2)/(T2 − T1)          (MF line continues from Q1 to Q2)
//	b  = Q1 + k2·T1
//	c  = Qmin + k3·δmax               (the most energetic band gets Qmin)
//
// where Q1 and Q2 are the largest accuracy-safe steps for the HF and MF
// bands measured by the Fig. 5 sensitivity sweep (60 and 20 for ImageNet),
// and δmax ≈ 78.3 for ImageNet. Fit derives parameters for any dataset
// from those anchors; PaperImageNet reproduces the published constants.
package plm

import (
	"fmt"
	"math"

	"repro/internal/freqstat"
	"repro/internal/qtable"
)

// Params holds the PLM coefficients of Eq. 3.
type Params struct {
	A, B, C    float64 // intercepts of the HF, MF, LF segments
	K1, K2, K3 float64 // slopes of the HF, MF, LF segments
	T1, T2     float64 // δ thresholds: HF/MF and MF/LF boundaries
	QMin       float64 // lower clamp — protects the most sensitive bands
	QMax       float64 // upper clamp — baseline JPEG caps steps at 255
}

// PaperImageNet returns the constants published in §5 for ImageNet,
// with the Qmin=5 floor from the Fig. 5 LF sensitivity sweep.
func PaperImageNet() Params {
	return Params{
		A: 255, B: 80, C: 240,
		K1: 9.75, K2: 1, K3: 3,
		T1: 20, T2: 60,
		QMin: 5, QMax: 255,
	}
}

// Validate rejects parameter sets that cannot produce a legal table.
func (p Params) Validate() error {
	if p.T1 < 0 || p.T2 <= p.T1 {
		return fmt.Errorf("plm: thresholds must satisfy 0 ≤ T1 < T2, got T1=%g T2=%g", p.T1, p.T2)
	}
	if p.QMin < 1 {
		return fmt.Errorf("plm: QMin %g below 1", p.QMin)
	}
	if p.QMax > 255 {
		return fmt.Errorf("plm: QMax %g above baseline limit 255", p.QMax)
	}
	if math.Ceil(p.QMin) > math.Floor(p.QMax) {
		return fmt.Errorf("plm: no integer step between QMin %g and QMax %g", p.QMin, p.QMax)
	}
	if p.K1 < 0 || p.K2 < 0 || p.K3 < 0 {
		return fmt.Errorf("plm: negative slope (k1=%g k2=%g k3=%g); Eq. 3 maps larger δ to finer steps", p.K1, p.K2, p.K3)
	}
	return nil
}

// Step evaluates Eq. 3 for one band's standard deviation, clamped to
// [QMin, QMax] and rounded to the nearest integer step.
func (p Params) Step(sigma float64) uint16 {
	var q float64
	switch {
	case sigma <= p.T1:
		q = p.A - p.K1*sigma
	case sigma <= p.T2:
		q = p.B - p.K2*sigma
	default:
		q = p.C - p.K3*sigma
	}
	// Round to an integer step, then clamp to the tightest integers inside
	// [QMin, QMax] so fractional clamp bounds cannot be violated by the
	// final integer conversion.
	q = math.Round(q)
	if lo := math.Ceil(p.QMin); q < lo {
		q = lo
	}
	if hi := math.Floor(p.QMax); q > hi {
		q = hi
	}
	return uint16(q)
}

// Table maps every band's δ through the PLM, producing a DeepN-JPEG
// quantization table.
func (p Params) Table(stats *freqstat.Stats) (qtable.Table, error) {
	if err := p.Validate(); err != nil {
		return qtable.Table{}, err
	}
	var t qtable.Table
	for i := 0; i < 64; i++ {
		t[i] = p.Step(stats.Std[i])
	}
	if err := t.Validate(); err != nil {
		return qtable.Table{}, fmt.Errorf("plm: derived table invalid: %w", err)
	}
	return t, nil
}

// Anchors are the measurable quantities that pin down the PLM: the largest
// accuracy-safe steps for the HF and MF bands (Q1, Q2 — the critical
// points of the Fig. 5 sweeps), the LF protection floor QMin, the baseline
// ceiling QMax, and the LF slope K3 chosen by the Fig. 6 trade-off sweep.
type Anchors struct {
	Q1, Q2     float64
	QMin, QMax float64
	K3         float64
}

// PaperAnchors returns the ImageNet anchor values from Figs. 5 and 6.
func PaperAnchors() Anchors {
	return Anchors{Q1: 60, Q2: 20, QMin: 5, QMax: 255, K3: 3}
}

// paperLFSpan is the δ width of the LF segment implied by the published
// constants: δmax − T2 = (240−5)/3 − 60 ≈ 18.33. The paper's k3 values
// are defined on this span; Fit rescales them to the target dataset's
// span so that "k3 = 3" means the same LF aggressiveness everywhere.
const paperLFSpan = (240.0-5.0)/3.0 - 60.0

// Fit derives PLM parameters from anchors plus the dataset-dependent
// quantities: the segmentation thresholds T1/T2 and the maximum band δ.
// The HF and MF segments are continuous at T1 by construction. The LF
// segment preserves the geometric invariant of the published constants —
// it starts at Q_LF(T2) = QMin + k3·18.33 (= 60 for k3 = 3, QMin = 5) and
// falls to exactly QMin at δmax — by rescaling k3 to the dataset's LF
// span. On ImageNet's own span the rescale is the identity and Fit
// reproduces the published a, b, c, k1, k2, k3.
func Fit(a Anchors, t1, t2, sigmaMax float64) (Params, error) {
	if t1 <= 0 || t2 <= t1 {
		return Params{}, fmt.Errorf("plm: Fit needs 0 < T1 < T2, got %g, %g", t1, t2)
	}
	if sigmaMax <= t2 {
		return Params{}, fmt.Errorf("plm: σmax %g must exceed T2 %g (no LF band beyond threshold)", sigmaMax, t2)
	}
	if a.Q1 <= a.Q2 || a.Q2 < a.QMin || a.QMax < a.Q1 {
		return Params{}, fmt.Errorf("plm: anchors must satisfy QMin ≤ Q2 < Q1 ≤ QMax, got %+v", a)
	}
	if a.K3 <= 0 {
		return Params{}, fmt.Errorf("plm: k3 must be positive, got %g", a.K3)
	}
	// Q_LF(T2) in paper units, then the slope that lands on QMin at the
	// dataset's actual δmax.
	qlf0 := a.QMin + a.K3*paperLFSpan
	k3 := (qlf0 - a.QMin) / (sigmaMax - t2)
	p := Params{
		A:    a.QMax,
		K1:   (a.QMax - a.Q1) / t1,
		K2:   (a.Q1 - a.Q2) / (t2 - t1),
		T1:   t1,
		T2:   t2,
		K3:   k3,
		C:    a.QMin + k3*sigmaMax,
		QMin: a.QMin,
		QMax: a.QMax,
	}
	p.B = a.Q1 + p.K2*t1
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}
