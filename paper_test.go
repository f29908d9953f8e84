package deepnjpeg

// The source paper's claim (arXiv 1803.05788) is that DeepN-JPEG keeps
// DNN accuracy while compressing harder than quality-matched JPEG.
// TestPaperNumbers holds that claim at the benchmark scale: it reruns
// Figs. 2a, 3, 5 and 7 on benchProfile() and checks the headline values
// every recorded BENCH_*.json snapshot reports, inside tolerance bands —
// ±0.02 on compression ratios and one test image on accuracy-derived
// values — so a codec change cannot move the result silently. Run it
// alone with `make paper`.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

func TestPaperNumbers(t *testing.T) {
	if raceEnabled {
		t.Skip("trains CNNs; too slow under -race (the `paper` check leg runs it without)")
	}
	ctx, err := experiments.NewContext(benchProfile())
	if err != nil {
		t.Fatal(err)
	}
	run := func(fig string) *experiments.Table {
		tbl, err := experiments.Run(fig, ctx)
		if err != nil {
			t.Fatalf("Fig %s: %v", fig, err)
		}
		return tbl
	}
	near := func(metric string, got, want, tol float64) {
		t.Helper()
		t.Logf("%s = %.3f (band %.3f ± %.3f)", metric, got, want, tol)
		if math.Abs(got-want) > tol+1e-9 {
			t.Errorf("%s = %.3f, want %.3f ± %.3f", metric, got, want, tol)
		}
	}
	const crTol = 0.02
	// One test image moves an accuracy by 100/n percentage points.
	imagePct := 100 / float64(len(ctx.Test.Images))

	tbl := run("2a")
	near("Fig 2a case1-drop-pct", cell(t, tbl.Rows[0][2])-cell(t, tbl.Rows[2][2]), -5, imagePct)
	near("Fig 2a cr-at-qf20", cell(t, tbl.Rows[2][1]), 2.74, crTol)

	// Rows: "HF-class test images  N", "predictions flipped  F (P%)".
	tbl = run("3")
	hfTotal := cell(t, tbl.Rows[0][1])
	flipped := tbl.Rows[1][1]
	flipPct := cell(t, strings.TrimSuffix(flipped[strings.Index(flipped, "(")+1:], "%)"))
	near("Fig 3 hf-flip-pct", flipPct, 15, 100/hfTotal)

	// Fig 5 reports accuracy normalized by the all-ones-table accuracy,
	// so one test image is 1/(n·base) there.
	base, err := ctx.BaselineModel()
	if err != nil {
		t.Fatal(err)
	}
	baseAcc, err := ctx.AccuracyUnderScheme(base, core.SchemeSameQ(1))
	if err != nil || baseAcc <= 0 {
		t.Fatalf("all-ones baseline accuracy %v: %v", baseAcc, err)
	}
	normTol := imagePct / 100 / baseAcc
	tbl = run("5")
	last := tbl.Rows[len(tbl.Rows)-1] // HF at the largest probed step
	mag, pos := cell(t, last[2]), cell(t, last[3])
	near("Fig 5 hf-q80-magnitude", mag, 1.059, normTol)
	near("Fig 5 hf-q80-position", pos, 0.971, normTol)
	if mag < pos {
		t.Errorf("Fig 5: magnitude-based HF accuracy %.3f below position-based %.3f", mag, pos)
	}

	tbl = run("7")
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row
	}
	near("Fig 7 deepn-cr", cell(t, byName["deepn-jpeg"][1]), 2.55, crTol)
	near("Fig 7 deepn-acc-delta-pct",
		cell(t, byName["deepn-jpeg"][2])-cell(t, byName["original"][2]), 0, imagePct)
}
