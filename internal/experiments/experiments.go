// Package experiments reproduces every figure of the paper's evaluation.
// Each figure has a runner returning a Table whose rows mirror what the
// paper plots; cmd/deepn-experiments prints them and bench_test.go wraps
// them as benchmarks. A Profile selects the workload scale: Quick serves
// tests and benches, PaperProfile produces the EXPERIMENTS.md numbers.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/nn/models"
)

// Profile scales an experiment run.
type Profile struct {
	Name string
	// Data configures SynthNet generation.
	Data dataset.Config
	// Model names the sweep architecture (Figs. 2, 3, 5, 6, 7).
	Model string
	// ZooModels names the Fig. 8 generality architectures.
	ZooModels []string
	// Train configures every training run.
	Train nn.TrainConfig
	// Gray transcodes and trains on luma only (roughly 3× faster).
	Gray bool
	// Retrain trains a fresh model on each scheme's transcoded training
	// set (the paper's storage semantics). When false, a single model
	// trained on the original data is evaluated on transcoded test sets
	// (CASE-1 semantics) — much cheaper, same ranking.
	Retrain bool
}

// Quick is the small profile used by tests and benchmarks. Every figure
// on it (`deepn-experiments -fig all`) took 183.6–242.8 s on a shared
// 2-vCPU x86-64 host, most of it training Fig. 8's zoo models.
func Quick() Profile {
	d := dataset.Quick()
	return Profile{
		Name:      "quick",
		Data:      d,
		Model:     "minicnn",
		ZooModels: []string{"mini-googlenet", "mini-resnet10"},
		Train: nn.TrainConfig{
			Epochs: 5, BatchSize: 32, LR: 0.04, Momentum: 0.9, ClipNorm: 5, Seed: 11,
		},
		Gray:    true,
		Retrain: false,
	}
}

// PaperProfile is the minutes-scale profile behind EXPERIMENTS.md: color
// images, more classes, scheme-retrained sweeps.
func PaperProfile() Profile {
	d := dataset.Paper()
	d.Classes = 10
	d.TrainPerClass = 70
	d.TestPerClass = 25
	return Profile{
		Name:      "paper",
		Data:      d,
		Model:     "minicnn",
		ZooModels: []string{"mini-alexnet", "mini-googlenet", "mini-vgg", "mini-resnet10", "mini-resnet18"},
		Train: nn.TrainConfig{
			Epochs: 8, BatchSize: 32, LR: 0.03, Momentum: 0.9, WeightDecay: 1e-4,
			LRDecayEvery: 4, ClipNorm: 5, Seed: 11,
		},
		Gray:    false,
		Retrain: true,
	}
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Note); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// Context carries the shared state of an experiment session: the dataset
// splits, calibrated framework, and memoized trainings so that figure
// runners can reuse each other's work.
type Context struct {
	Profile   Profile
	Train     *dataset.Dataset
	Test      *dataset.Dataset
	Framework *core.Framework

	origTestBytes  int64
	origTrainBytes int64

	models         map[string]*nn.Model             // key: model name + training scheme
	curves         map[string][]float64             // key: the sweep model's training scheme
	transcodedTest map[string]*core.TranscodeResult // key: scheme name
	testTensors    map[string]*nn.Dataset
}

// NewContext generates data and calibrates DeepN-JPEG for a profile.
func NewContext(p Profile) (*Context, error) {
	train, test, err := dataset.Generate(p.Data)
	if err != nil {
		return nil, err
	}
	fw, err := core.Calibrate(train, core.CalibrateOptions{Chroma: !p.Gray && p.Data.Color})
	if err != nil {
		return nil, fmt.Errorf("experiments: calibrating: %w", err)
	}
	ctx := &Context{
		Profile:        p,
		Train:          train,
		Test:           test,
		Framework:      fw,
		models:         map[string]*nn.Model{},
		curves:         map[string][]float64{},
		transcodedTest: map[string]*core.TranscodeResult{},
		testTensors:    map[string]*nn.Dataset{},
	}
	ctx.origTestBytes, err = core.CompressedSize(test, core.SchemeOriginal(), p.Gray)
	if err != nil {
		return nil, err
	}
	ctx.origTrainBytes, err = core.CompressedSize(train, core.SchemeOriginal(), p.Gray)
	if err != nil {
		return nil, err
	}
	return ctx, nil
}

// modelConfig derives the models.Config for this profile.
func (c *Context) modelConfig() models.Config {
	channels := 3
	if c.Profile.Gray {
		channels = 1
	}
	return models.Config{
		Channels: channels,
		Size:     c.Profile.Data.Size,
		Classes:  c.Profile.Data.Classes,
		Seed:     c.Profile.Train.Seed,
	}
}

// TranscodeTest pushes the test split through a scheme once and caches it.
func (c *Context) TranscodeTest(s core.Scheme) (*core.TranscodeResult, error) {
	if r, ok := c.transcodedTest[s.Name]; ok {
		return r, nil
	}
	r, err := core.Transcode(c.Test, s, c.Profile.Gray)
	if err != nil {
		return nil, err
	}
	c.transcodedTest[s.Name] = r
	return r, nil
}

// testTensorsFor converts a transcoded test set to tensors once.
func (c *Context) testTensorsFor(s core.Scheme) (*nn.Dataset, error) {
	if t, ok := c.testTensors[s.Name]; ok {
		return t, nil
	}
	r, err := c.TranscodeTest(s)
	if err != nil {
		return nil, err
	}
	t := r.Dataset.Tensors(!c.Profile.Gray)
	c.testTensors[s.Name] = t
	return t, nil
}

// TrainModelOn trains (and caches) a model on the training split
// transcoded by a scheme. Training the sweep model (Profile.Model) also
// records its top-1 accuracy on the original-quality test split after
// each epoch, the CASE-2 curve Fig2b plots. The probe runs in inference
// mode, so the trained weights are the same with or without it.
func (c *Context) TrainModelOn(modelName string, s core.Scheme) (*nn.Model, error) {
	key := modelName + "|" + s.Name
	if m, ok := c.models[key]; ok {
		return m, nil
	}
	m, err := models.Build(modelName, c.modelConfig())
	if err != nil {
		return nil, err
	}
	r, err := core.Transcode(c.Train, s, c.Profile.Gray)
	if err != nil {
		return nil, err
	}
	cfg := c.Profile.Train
	if modelName == c.Profile.Model {
		orig, err := c.testTensorsFor(core.SchemeOriginal())
		if err != nil {
			return nil, err
		}
		cfg.AfterEpoch = func(int, float64) {
			c.curves[s.Name] = append(c.curves[s.Name], m.Accuracy(orig))
		}
	}
	m.Train(r.Dataset.Tensors(!c.Profile.Gray), cfg)
	c.models[key] = m
	return m, nil
}

// BaselineModel returns the sweep model trained on the original-quality
// training data (CASE-1 reference).
func (c *Context) BaselineModel() (*nn.Model, error) {
	return c.TrainModelOn(c.Profile.Model, core.SchemeOriginal())
}

// AccuracyUnderScheme evaluates a model on the test split transcoded by a
// scheme.
func (c *Context) AccuracyUnderScheme(m *nn.Model, s core.Scheme) (float64, error) {
	t, err := c.testTensorsFor(s)
	if err != nil {
		return 0, err
	}
	return m.Accuracy(t), nil
}

// SchemeAccuracy is the profile-dependent headline accuracy of a scheme:
// with Retrain, a model trained on scheme-compressed data is tested on
// scheme-compressed data (the paper's storage semantics); otherwise the
// original-trained model is tested on scheme-compressed data (CASE 1).
func (c *Context) SchemeAccuracy(s core.Scheme) (float64, error) {
	var m *nn.Model
	var err error
	if c.Profile.Retrain {
		m, err = c.TrainModelOn(c.Profile.Model, s)
	} else {
		m, err = c.BaselineModel()
	}
	if err != nil {
		return 0, err
	}
	return c.AccuracyUnderScheme(m, s)
}

// SchemeCR computes a scheme's compression ratio over the QF-100
// original on the test split.
func (c *Context) SchemeCR(s core.Scheme) (float64, error) {
	r, err := c.TranscodeTest(s)
	if err != nil {
		return 0, err
	}
	return core.CompressionRatio(c.origTestBytes, r.TotalBytes), nil
}

// Run dispatches a figure by identifier.
func Run(fig string, ctx *Context) (*Table, error) {
	switch strings.ToLower(fig) {
	case "2a", "fig2a":
		return Fig2a(ctx)
	case "2b", "fig2b":
		return Fig2b(ctx)
	case "3", "fig3":
		return Fig3(ctx)
	case "5", "fig5":
		return Fig5(ctx)
	case "6", "fig6":
		return Fig6(ctx)
	case "7", "fig7":
		return Fig7(ctx)
	case "8", "fig8":
		return Fig8(ctx)
	case "9", "fig9":
		return Fig9(ctx)
	case "latency", "intro":
		return IntroLatency(ctx)
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q (have 2a 2b 3 5 6 7 8 9 latency)", fig)
	}
}

// Figures lists the available experiment identifiers.
func Figures() []string {
	return []string{"2a", "2b", "3", "5", "6", "7", "8", "9", "latency"}
}
