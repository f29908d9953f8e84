package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// tinyProfile shrinks Quick for tests: 6 classes of 30 training and 10
// test images, 4 epochs, and the sweep model as the whole Fig. 8 zoo.
// Training still takes most of the package's time (about 20 s, and about
// 290 s under -race, on a 2-vCPU host), so every test shares one context
// and the models it caches.
func tinyProfile() Profile {
	p := Quick()
	p.Data.Classes = 6
	p.Data.TrainPerClass = 30
	p.Data.TestPerClass = 10
	p.Data.NoiseStd = 8
	p.Train.Epochs = 4
	p.ZooModels = []string{"minicnn"}
	return p
}

// sharedCtx is built once; figure runners memoize aggressively, so later
// tests reuse earlier trainings.
var sharedCtx *Context

func ctxForTest(t *testing.T) *Context {
	t.Helper()
	if sharedCtx != nil {
		return sharedCtx
	}
	ctx, err := NewContext(tinyProfile())
	if err != nil {
		t.Fatal(err)
	}
	sharedCtx = ctx
	return ctx
}

func TestNewContextCalibrates(t *testing.T) {
	ctx := ctxForTest(t)
	if ctx.Framework == nil || ctx.Framework.LumaTable.Validate() != nil {
		t.Fatal("context not calibrated")
	}
	if ctx.Train.Len() != 180 || ctx.Test.Len() != 60 {
		t.Fatalf("split sizes %d/%d", ctx.Train.Len(), ctx.Test.Len())
	}
}

func TestBaselineModelLearns(t *testing.T) {
	ctx := ctxForTest(t)
	m, err := ctx.BaselineModel()
	if err != nil {
		t.Fatal(err)
	}
	acc, err := ctx.AccuracyUnderScheme(m, core.SchemeOriginal())
	if err != nil {
		t.Fatal(err)
	}
	// 6 balanced classes: chance is 16.7%; the model must beat it soundly.
	if acc < 0.6 {
		t.Fatalf("baseline accuracy %.2f too low", acc)
	}
}

func parseCR(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("parsing CR %q: %v", cell, err)
	}
	return v
}

func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("parsing pct %q: %v", cell, err)
	}
	return v / 100
}

// sharedFig2a is Fig. 2a's table on sharedCtx, computed once so that
// TestFig2b compares against it without repeating its forward passes.
var sharedFig2a *Table

func fig2aForTest(t *testing.T) *Table {
	t.Helper()
	if sharedFig2a != nil {
		return sharedFig2a
	}
	tbl, err := Fig2a(ctxForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	sharedFig2a = tbl
	return tbl
}

func TestFig2a(t *testing.T) {
	tbl := fig2aForTest(t)
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// CR grows as QF falls.
	if !(parseCR(t, tbl.Rows[2][1]) > parseCR(t, tbl.Rows[0][1])) {
		t.Fatalf("CR not increasing: %v", tbl.Rows)
	}
	// CASE 1 accuracy at QF=20 must be below QF=100 (the paper's core
	// observation).
	if !(parsePct(t, tbl.Rows[2][2]) < parsePct(t, tbl.Rows[0][2])) {
		t.Fatalf("no CASE-1 degradation: %v", tbl.Rows)
	}
}

// TestFig2b holds Fig. 2b to the curves recorded while Fig. 2a's CASE-2
// models trained: it trains nothing of its own, and its last epoch is
// Fig. 2a's CASE 2 column.
func TestFig2b(t *testing.T) {
	ctx := ctxForTest(t)
	fig2a := fig2aForTest(t)
	trained := len(ctx.models)
	tbl, err := Fig2b(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.models) != trained {
		t.Fatalf("Fig2b trained %d models after Fig2a", len(ctx.models)-trained)
	}
	if len(tbl.Rows) != ctx.Profile.Train.Epochs {
		t.Fatalf("%d rows, want %d epochs", len(tbl.Rows), ctx.Profile.Train.Epochs)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	for i, row := range fig2a.Rows {
		if tbl.Columns[1+i] != "QF="+row[0] {
			t.Fatalf("Fig. 2b column %q against Fig. 2a's QF %s", tbl.Columns[1+i], row[0])
		}
		if last[1+i] != row[3] {
			t.Errorf("QF %s: Fig. 2b's last epoch reads %s, Fig. 2a's CASE 2 %s", row[0], last[1+i], row[3])
		}
	}
}

func TestFig3(t *testing.T) {
	ctx := ctxForTest(t)
	tbl, err := Fig3(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	// Some HF-class predictions must flip when HF content is removed.
	if !strings.Contains(tbl.Rows[1][0], "flipped") {
		t.Fatalf("unexpected row: %v", tbl.Rows[1])
	}
}

func TestFig5(t *testing.T) {
	ctx := ctxForTest(t)
	tbl, err := Fig5(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 { // 3 bands × 5 steps
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// All normalized accuracies lie in (0, 1.2] and Q=1 rows are exactly 1.
	for _, row := range tbl.Rows {
		for _, cell := range row[2:] {
			v := parseCR(t, cell)
			if v <= 0 || v > 1.2 {
				t.Fatalf("normalized accuracy %v out of range in %v", v, row)
			}
		}
		if row[1] == "1" && (row[2] != "1.000" || row[3] != "1.000") {
			t.Fatalf("Q=1 row not normalized to 1: %v", row)
		}
	}
}

func TestFig6(t *testing.T) {
	ctx := ctxForTest(t)
	tbl, err := Fig6(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Smaller k3 must compress at least as well as larger k3.
	if parseCR(t, tbl.Rows[0][1]) < parseCR(t, tbl.Rows[4][1]) {
		t.Fatalf("k3=1 CR below k3=5: %v", tbl.Rows)
	}
}

func TestFig7(t *testing.T) {
	ctx := ctxForTest(t)
	tbl, err := Fig7(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	crOf := map[string]float64{}
	accOf := map[string]float64{}
	for _, row := range tbl.Rows {
		crOf[row[0]] = parseCR(t, row[1])
		accOf[row[0]] = parsePct(t, row[2])
	}
	// The paper's headline: DeepN-JPEG has the best CR of all schemes...
	for name, cr := range crOf {
		if name != "deepn-jpeg" && cr > crOf["deepn-jpeg"] {
			t.Fatalf("%s CR %.2f exceeds deepn-jpeg %.2f", name, cr, crOf["deepn-jpeg"])
		}
	}
	// ...while staying near the original accuracy.
	if accOf["deepn-jpeg"] < accOf["original"]-0.08 {
		t.Fatalf("deepn accuracy %.2f far below original %.2f", accOf["deepn-jpeg"], accOf["original"])
	}
}

func TestFig8(t *testing.T) {
	ctx := ctxForTest(t)
	tbl, err := Fig8(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// 1 CR row + one row per zoo model.
	if len(tbl.Rows) != 1+len(ctx.Profile.ZooModels) {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestFig9(t *testing.T) {
	ctx := ctxForTest(t)
	tbl, err := Fig9(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	norm := map[string]float64{}
	for _, row := range tbl.Rows {
		norm[row[0]] = parseCR(t, row[2])
	}
	if norm["original"] != 1 {
		t.Fatalf("original normalized power %v", norm["original"])
	}
	// DeepN-JPEG must consume the least offloading power.
	for name, v := range norm {
		if name != "deepn-jpeg" && v < norm["deepn-jpeg"] {
			t.Fatalf("%s power %.3f below deepn %.3f", name, v, norm["deepn-jpeg"])
		}
	}
}

func TestIntroLatency(t *testing.T) {
	ctx := ctxForTest(t)
	tbl, err := IntroLatency(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Reference row reproduces the paper's 870/180/95 ms.
	ref := tbl.Rows[0]
	if ref[2] != "870 ms" || ref[3] != "180 ms" || ref[4] != "95 ms" {
		t.Fatalf("reference latencies %v", ref)
	}
}

func TestRunDispatch(t *testing.T) {
	ctx := ctxForTest(t)
	for _, fig := range Figures() {
		if _, err := Run(fig, ctx); err != nil {
			t.Fatalf("Run(%q): %v", fig, err)
		}
	}
	if _, err := Run("nope", ctx); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Note:    "a note",
		Columns: []string{"a", "long-header"},
		Rows:    [][]string{{"x", "1"}, {"longer-cell", "2"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== demo ==", "a note", "long-header", "longer-cell"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 6 {
		t.Fatalf("rendered %d lines:\n%s", lines, out)
	}
}
