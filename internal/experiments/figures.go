package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/energy"
	"repro/internal/freqstat"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/nn"
	"repro/internal/plm"
	"repro/internal/qtable"
)

func pct(v float64) string  { return fmt.Sprintf("%.1f%%", 100*v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func ms(sec float64) string { return fmt.Sprintf("%.0f ms", 1000*sec) }

// Fig2a reproduces "Accuracy vs JPEG CRs for CASE 1/2": CASE 1 trains on
// high-quality images and tests on compressed ones; CASE 2 trains on
// compressed images and tests on high-quality ones. Both degrade as QF
// falls, CASE 2 less so.
func Fig2a(ctx *Context) (*Table, error) {
	qfs := []int{100, 50, 20}
	base, err := ctx.BaselineModel()
	if err != nil {
		return nil, err
	}
	origScheme := core.SchemeOriginal()
	t := &Table{
		Title:   "Fig. 2a — accuracy vs JPEG compression (CASE 1 and CASE 2)",
		Note:    "CASE 1: train QF=100, test at QF. CASE 2: train at QF, test QF=100.",
		Columns: []string{"QF", "CR", "CASE 1 acc", "CASE 2 acc"},
	}
	for _, qf := range qfs {
		scheme := core.SchemeJPEG(qf)
		cr, err := ctx.SchemeCR(scheme)
		if err != nil {
			return nil, err
		}
		case1, err := ctx.AccuracyUnderScheme(base, scheme)
		if err != nil {
			return nil, err
		}
		trained, err := ctx.TrainModelOn(ctx.Profile.Model, scheme)
		if err != nil {
			return nil, err
		}
		case2, err := ctx.AccuracyUnderScheme(trained, origScheme)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", qf), f2(cr), pct(case1), pct(case2)})
	}
	return t, nil
}

// Fig2b reproduces "CASE 2 accuracy w.r.t. epoch number at various CRs":
// per-epoch test accuracy (on original-quality data) of models trained on
// increasingly compressed data. The gap widens with training. It reads
// the curves TrainModelOn records for Fig. 2a's CASE-2 models.
func Fig2b(ctx *Context) (*Table, error) {
	qfs := []int{100, 50, 20}
	curves := make([][]float64, len(qfs))
	for qi, qf := range qfs {
		scheme := core.SchemeJPEG(qf)
		if _, err := ctx.TrainModelOn(ctx.Profile.Model, scheme); err != nil {
			return nil, err
		}
		curves[qi] = ctx.curves[scheme.Name]
	}
	t := &Table{
		Title:   "Fig. 2b — CASE 2 accuracy vs epoch at various QFs",
		Note:    "Columns are test accuracy on original-quality data.",
		Columns: []string{"epoch", "QF=100", "QF=50", "QF=20"},
	}
	for e := 0; e < len(curves[0]); e++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", e+1), pct(curves[0][e]), pct(curves[1][e]), pct(curves[2][e]),
		})
	}
	return t, nil
}

// Fig3 reproduces the junco/robin demonstration: removing the
// high-frequency components a class's signature lives in — a change that
// barely moves PSNR — flips predictions of HF-signature classes. The
// paper removes the top 6 zig-zag components because that is where
// junco's plumage texture sits on ImageNet; SynthNet's HF signature bands
// occupy zig-zag positions 29–36, so the equivalent manipulation removes
// the zig-zag HF tail (36 components) that covers them. PSNR stays high
// because those bands are empty in every other class.
func Fig3(ctx *Context) (*Table, error) {
	base, err := ctx.BaselineModel()
	if err != nil {
		return nil, err
	}
	const removed = 36
	flips, hfTotal := 0, 0
	var exLabel, exBefore, exAfter int
	var exPBefore, exPAfter, exPSNR float64
	haveExample := false

	tensorOf := func(im *imgutil.RGB) *nn.Tensor {
		d := &dataset.Dataset{Images: []*imgutil.RGB{im}, Labels: []int{0}, Classes: ctx.Test.Classes, Size: ctx.Test.Size}
		return d.Tensors(!ctx.Profile.Gray).X
	}
	for i, im := range ctx.Test.Images {
		label := ctx.Test.Labels[i]
		if !dataset.IsHFClass(label) {
			continue
		}
		hfTotal++
		filtered := core.RemoveHFComponentsRGB(im, removed)
		pb := base.Probabilities(tensorOf(im))
		pa := base.Probabilities(tensorOf(filtered))
		before, after := argmax(pb.Data), argmax(pa.Data)
		if before == label && after != label {
			flips++
			if !haveExample {
				haveExample = true
				exLabel, exBefore, exAfter = label, before, after
				exPBefore = float64(pb.Data[before])
				exPAfter = float64(pa.Data[after])
				psnr, err := imgutil.PSNR(im.Pix, filtered.Pix)
				if err != nil {
					return nil, err
				}
				exPSNR = psnr
			}
		}
	}
	t := &Table{
		Title:   "Fig. 3 — feature degradation by removing the HF zig-zag tail",
		Note:    "HF-signature classes are the synthetic junco/robin pairs.",
		Columns: []string{"metric", "value"},
	}
	t.Rows = append(t.Rows,
		[]string{"HF-class test images", fmt.Sprintf("%d", hfTotal)},
		[]string{"predictions flipped", fmt.Sprintf("%d (%.0f%%)", flips, 100*float64(flips)/math.Max(1, float64(hfTotal)))},
	)
	if haveExample {
		t.Rows = append(t.Rows,
			[]string{"example: true class", fmt.Sprintf("%d", exLabel)},
			[]string{"example: before", fmt.Sprintf("class %d (p=%.2f)", exBefore, exPBefore)},
			[]string{"example: after", fmt.Sprintf("class %d (p=%.2f)", exAfter, exPAfter)},
			[]string{"example: PSNR of filtered image", fmt.Sprintf("%.1f dB", exPSNR)},
		)
	}
	return t, nil
}

func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// fig5Sweeps lists the quantization steps probed per band class. The
// paper sweeps LF to 40, MF to 60 and HF to 80 on ImageNet, whose δ
// scale tops out near 78; SynthNet's δmax is roughly twice that, so the
// sweeps extend to the baseline maximum of 255 to reach each band's
// breaking point.
var fig5Sweeps = map[freqstat.Band][]int{
	freqstat.LF: {1, 10, 40, 120, 255},
	freqstat.MF: {1, 20, 60, 150, 255},
	freqstat.HF: {1, 40, 90, 180, 255},
}

// Fig5 reproduces the band-sensitivity sweeps: quantize only one band
// class (all other steps = 1) and measure normalized accuracy, for the
// magnitude-based (paper) and position-based (baseline) segmentations.
func Fig5(ctx *Context) (*Table, error) {
	base, err := ctx.BaselineModel()
	if err != nil {
		return nil, err
	}
	magSeg := ctx.Framework.Seg
	posSeg := freqstat.SegmentByPosition()

	eval := func(method string, seg freqstat.Segmentation, band freqstat.Band, q int) (float64, error) {
		tbl := qtable.Uniform(1)
		for i := range tbl {
			if seg.Class[i] == band {
				tbl[i] = uint16(q)
			}
		}
		scheme := core.Scheme{Name: fmt.Sprintf("fig5-%s-%v-%d", method, band, q), Opts: ctxSchemeOpts(tbl)}
		return ctx.AccuracyUnderScheme(base, scheme)
	}

	t := &Table{
		Title:   "Fig. 5 — band sensitivity: normalized accuracy vs quantization step",
		Note:    "Only the listed band class is quantized; all other steps are 1.",
		Columns: []string{"band", "Q step", "magnitude-based", "position-based"},
	}
	for _, band := range []freqstat.Band{freqstat.LF, freqstat.MF, freqstat.HF} {
		var magBaseAcc, posBaseAcc float64
		for _, q := range fig5Sweeps[band] {
			mag, err := eval("mag", magSeg, band, q)
			if err != nil {
				return nil, err
			}
			pos, err := eval("pos", posSeg, band, q)
			if err != nil {
				return nil, err
			}
			if q == 1 {
				magBaseAcc, posBaseAcc = mag, pos
			}
			t.Rows = append(t.Rows, []string{
				band.String(), fmt.Sprintf("%d", q),
				f3(mag / math.Max(magBaseAcc, 1e-9)),
				f3(pos / math.Max(posBaseAcc, 1e-9)),
			})
		}
	}
	return t, nil
}

// ctxSchemeOpts builds encoder options with the same table on luma and
// chroma (the Fig. 5 probes quantize the whole spectrum uniformly).
func ctxSchemeOpts(tbl qtable.Table) (o jpegcodec.Options) {
	o.LumaTable = tbl
	o.ChromaTable = tbl
	return o
}

// Fig6 reproduces the k3 trade-off sweep. As in the paper, the LF
// intercept c stays at its calibrated value while k3 varies, so a smaller
// k3 flattens the LF line upward (coarser steps for the most energetic
// bands): better compression, slight accuracy cost. The paper picks
// k3 = 3, the calibration default.
func Fig6(ctx *Context) (*Table, error) {
	t := &Table{
		Title:   "Fig. 6 — optimization of k3 in the piece-wise linear mapping",
		Note:    "LF intercept c held at its calibrated value; k3 scaled around the k3=3 fit.",
		Columns: []string{"k3", "CR", "accuracy"},
	}
	base := ctx.Framework.Params // fitted with the paper's default k3 = 3
	for k3 := 1; k3 <= 5; k3++ {
		params := base
		params.K3 = base.K3 * float64(k3) / plm.PaperAnchors().K3
		luma, err := params.Table(ctx.Framework.Stats)
		if err != nil {
			return nil, err
		}
		scheme := core.Scheme{
			Name: fmt.Sprintf("deepn-k3=%d", k3),
			Opts: jpegcodec.Options{LumaTable: luma, ChromaTable: ctx.Framework.ChromaTable},
		}
		if ctx.Framework.ChromaStats != nil {
			chroma, err := params.Table(ctx.Framework.ChromaStats)
			if err != nil {
				return nil, err
			}
			scheme.Opts.ChromaTable = chroma
		}
		cr, err := ctx.SchemeCR(scheme)
		if err != nil {
			return nil, err
		}
		acc, err := ctx.SchemeAccuracy(scheme)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k3), f2(cr), pct(acc)})
	}
	return t, nil
}

// fig7Schemes are the Fig. 7 comparison points.
func fig7Schemes(ctx *Context) []core.Scheme {
	return []core.Scheme{
		core.SchemeOriginal(),
		core.SchemeRMHF(3), core.SchemeRMHF(6), core.SchemeRMHF(9),
		core.SchemeSameQ(4), core.SchemeSameQ(8), core.SchemeSameQ(12),
		ctx.Framework.Scheme(),
	}
}

// Fig7 reproduces the headline comparison: compression rate and accuracy
// for Original, RM-HF, SAME-Q and DeepN-JPEG. DeepN-JPEG must deliver the
// best CR at (near-)original accuracy.
func Fig7(ctx *Context) (*Table, error) {
	t := &Table{
		Title:   "Fig. 7 — compression rate and accuracy by scheme",
		Columns: []string{"scheme", "CR", "accuracy"},
	}
	for _, s := range fig7Schemes(ctx) {
		cr, err := ctx.SchemeCR(s)
		if err != nil {
			return nil, err
		}
		acc, err := ctx.SchemeAccuracy(s)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{s.Name, f2(cr), pct(acc)})
	}
	return t, nil
}

// Fig8 reproduces the generality study: accuracy of multiple DNN
// architectures under Original, DeepN-JPEG, QF 80 and QF 50.
func Fig8(ctx *Context) (*Table, error) {
	schemes := []core.Scheme{
		core.SchemeOriginal(),
		ctx.Framework.Scheme(),
		core.SchemeJPEG(80),
		core.SchemeJPEG(50),
	}
	t := &Table{
		Title:   "Fig. 8 — accuracy across DNN models and schemes",
		Columns: []string{"model", "original", "deepn-jpeg", "jpeg-qf80", "jpeg-qf50"},
	}
	crRow := []string{"(CR)"}
	for _, s := range schemes {
		cr, err := ctx.SchemeCR(s)
		if err != nil {
			return nil, err
		}
		crRow = append(crRow, f2(cr))
	}
	t.Rows = append(t.Rows, crRow)
	for _, name := range ctx.Profile.ZooModels {
		m, err := ctx.TrainModelOn(name, core.SchemeOriginal())
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, s := range schemes {
			acc, err := ctx.AccuracyUnderScheme(m, s)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(acc))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 reproduces the power comparison: normalized offloading power for
// Original, RM-HF3, SAME-Q4 and DeepN-JPEG. Power is proportional to
// bytes on the wire, so DeepN-JPEG lands near 1/CR ≈ 0.3.
func Fig9(ctx *Context) (*Table, error) {
	schemes := []core.Scheme{
		core.SchemeOriginal(),
		core.SchemeRMHF(3),
		core.SchemeSameQ(4),
		ctx.Framework.Scheme(),
	}
	var sizes []energy.SchemeBytes
	for _, s := range schemes {
		r, err := ctx.TranscodeTest(s)
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, energy.SchemeBytes{Scheme: s.Name, Bytes: r.TotalBytes})
	}
	norm, err := energy.NormalizedPower(sizes, "original")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig. 9 — normalized data-offloading power consumption",
		Note:    "Transfer energy is linear in bytes; per-image J shown for each link.",
		Columns: []string{"scheme", "bytes", "normalized power", "3G J/img", "LTE J/img", "Wi-Fi J/img"},
	}
	n := int64(ctx.Test.Len())
	for _, s := range sizes {
		perImage := s.Bytes / n
		t.Rows = append(t.Rows, []string{
			s.Scheme,
			fmt.Sprintf("%d", s.Bytes),
			f3(norm[s.Scheme]),
			f3(energy.ThreeG.TransferEnergy(perImage)),
			f3(energy.LTE.TransferEnergy(perImage)),
			f3(energy.WiFi.TransferEnergy(perImage)),
		})
	}
	return t, nil
}

// IntroLatency reproduces the introduction's motivating numbers: upload
// latency of the 152 KB reference image and of this dataset's mean image
// under Original and DeepN-JPEG.
func IntroLatency(ctx *Context) (*Table, error) {
	t := &Table{
		Title:   "Intro — single-image upload latency per link",
		Columns: []string{"payload", "bytes", "3G", "LTE", "Wi-Fi"},
	}
	row := func(name string, bytes int64) {
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprintf("%d", bytes),
			ms(energy.ThreeG.TransferLatency(bytes).Seconds()),
			ms(energy.LTE.TransferLatency(bytes).Seconds()),
			ms(energy.WiFi.TransferLatency(bytes).Seconds()),
		})
	}
	row("paper reference (152 KB)", energy.ReferenceImageBytes)
	for _, s := range []core.Scheme{core.SchemeOriginal(), ctx.Framework.Scheme()} {
		r, err := ctx.TranscodeTest(s)
		if err != nil {
			return nil, err
		}
		row("mean image, "+s.Name, r.TotalBytes/int64(ctx.Test.Len()))
	}
	return t, nil
}
