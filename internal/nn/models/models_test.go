package models

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func cfg32() Config {
	return Config{Channels: 3, Size: 32, Classes: 8, Seed: 1}
}

func TestAllModelsBuildAndForward(t *testing.T) {
	for _, name := range Names() {
		m, err := Build(name, cfg32())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Shape propagation.
		out, err := m.Net.OutputShape([]int{3, 32, 32})
		if err != nil {
			t.Fatalf("%s: OutputShape: %v", name, err)
		}
		if len(out) != 1 || out[0] != 8 {
			t.Fatalf("%s: output shape %v, want [8]", name, out)
		}
		// A real forward pass agrees with the declared shape.
		x := nn.NewTensor(2, 3, 32, 32)
		rng := rand.New(rand.NewSource(2))
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		logits := m.Net.Forward(x, false)
		if logits.Dim(0) != 2 || logits.Dim(1) != 8 {
			t.Fatalf("%s: logits shape %v", name, logits.Shape)
		}
	}
}

func TestModelsGrayscaleInput(t *testing.T) {
	c := cfg32()
	c.Channels = 1
	for _, name := range Names() {
		m, err := Build(name, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x := nn.NewTensor(1, 1, 32, 32)
		logits := m.Net.Forward(x, false)
		if logits.Dim(1) != 8 {
			t.Fatalf("%s: %v", name, logits.Shape)
		}
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("does-not-exist", cfg32()); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Channels: 2, Size: 32, Classes: 8}, // channels
		{Channels: 3, Size: 30, Classes: 8}, // size not multiple of 8
		{Channels: 3, Size: 32, Classes: 1}, // classes
		{Channels: 3, Size: 0, Classes: 8},  // zero size
	}
	for i, c := range bad {
		if _, err := NewMiniCNN(c); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

// TestMACOrdering mirrors the paper's compute comparison: the GoogLeNet
// family must cost more MACs than AlexNet's mini version here (1.43G vs
// 724M at full scale), and ResNet-18 more than ResNet-10.
func TestMACOrdering(t *testing.T) {
	macs := map[string]int64{}
	for _, name := range Names() {
		m, err := Build(name, cfg32())
		if err != nil {
			t.Fatal(err)
		}
		macs[name] = m.MACs([]int{3, 32, 32})
		if macs[name] <= 0 {
			t.Fatalf("%s: MACs = %d", name, macs[name])
		}
	}
	if macs["mini-googlenet"] <= macs["minicnn"] {
		t.Fatalf("googlenet %d ≤ minicnn %d", macs["mini-googlenet"], macs["minicnn"])
	}
	if macs["mini-resnet18"] <= macs["mini-resnet10"] {
		t.Fatalf("resnet18 %d ≤ resnet10 %d", macs["mini-resnet18"], macs["mini-resnet10"])
	}
}

func TestParamCountPositiveAndDistinct(t *testing.T) {
	counts := map[string]int64{}
	for _, name := range Names() {
		m, err := Build(name, cfg32())
		if err != nil {
			t.Fatal(err)
		}
		counts[name] = ParamCount(m)
		if counts[name] <= 0 {
			t.Fatalf("%s: param count %d", name, counts[name])
		}
	}
	if counts["mini-vgg"] <= counts["minicnn"] {
		t.Fatalf("vgg %d ≤ minicnn %d params", counts["mini-vgg"], counts["minicnn"])
	}
}

func TestModelsDeterministicInit(t *testing.T) {
	a, err := Build("mini-resnet10", cfg32())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("mini-resnet10", cfg32())
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Net.Params(), b.Net.Params()
	if len(pa) != len(pb) {
		t.Fatal("param lists differ")
	}
	for i := range pa {
		for j := range pa[i].Data.Data {
			if pa[i].Data.Data[j] != pb[i].Data.Data[j] {
				t.Fatalf("param %s differs at %d", pa[i].Name, j)
			}
		}
	}
}

// separableSet draws n 1×16×16 samples of a trivially separable
// two-class problem: class 1 lifts the top half of the image, class 0
// the bottom half.
func separableSet(n int, seed int64) *nn.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := nn.NewTensor(n, 1, 16, 16)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		y[i] = i % 2
		for j := 0; j < 256; j++ {
			v := float32(rng.NormFloat64() * 0.1)
			if y[i] == 1 && j < 128 {
				v += 1
			}
			if y[i] == 0 && j >= 128 {
				v += 1
			}
			x.Data[i*256+j] = v
		}
	}
	return &nn.Dataset{X: x, Y: y}
}

// TestModelsTrainable does one quick sanity fit per architecture on a
// trivially separable two-class problem: loss must drop.
func TestModelsTrainable(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	ds := separableSet(32, 4)
	for _, name := range Names() {
		c := Config{Channels: 1, Size: 16, Classes: 2, Seed: 3}
		m, err := Build(name, c)
		if err != nil {
			t.Fatal(err)
		}
		losses := m.Train(ds, nn.TrainConfig{Epochs: 4, BatchSize: 8, LR: 0.02, Seed: 5})
		if losses[len(losses)-1] >= losses[0] {
			t.Errorf("%s: loss did not decrease: %v", name, losses)
		}
	}
}

// TestAccuracyProbeLeavesTrainingUnchanged trains each model twice, once
// with an AfterEpoch that evaluates Accuracy (as the experiments' per-epoch
// curves do) and once without, and requires every tensor Save writes —
// parameters and batch-norm running statistics — to match bit for bit.
// mini-vgg has batch norm and mini-alexnet dropout, so the probe must
// leave running statistics and the dropout stream alone.
func TestAccuracyProbeLeavesTrainingUnchanged(t *testing.T) {
	train, probe := separableSet(8, 4), separableSet(8, 6)
	for _, name := range []string{"minicnn", "mini-vgg", "mini-alexnet"} {
		run := func(probed bool) map[string][]float32 {
			m, err := Build(name, Config{Channels: 1, Size: 16, Classes: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			cfg := nn.TrainConfig{Epochs: 2, BatchSize: 4, LR: 0.02, Seed: 5}
			probes := 0
			if probed {
				cfg.AfterEpoch = func(int, float64) {
					m.Accuracy(probe)
					probes++
				}
			}
			m.Train(train, cfg)
			if probed && probes != cfg.Epochs {
				t.Fatalf("%s: %d probes over %d epochs", name, probes, cfg.Epochs)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			var saved struct{ Values map[string][]float32 }
			if err := gob.NewDecoder(&buf).Decode(&saved); err != nil {
				t.Fatal(err)
			}
			return saved.Values
		}
		plain, probed := run(false), run(true)
		if len(plain) == 0 || len(plain) != len(probed) {
			t.Fatalf("%s: %d tensors without the probe, %d with it", name, len(plain), len(probed))
		}
		for tensor, want := range plain {
			got := probed[tensor]
			if len(got) != len(want) {
				t.Fatalf("%s: %s has %d values with the probe, %d without", name, tensor, len(got), len(want))
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: %s[%d] = %v with the probe, %v without", name, tensor, i, got[i], want[i])
				}
			}
		}
	}
}
