package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3)
	if x.Len() != 6 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("tensor metadata wrong: %+v", x)
	}
	x.Data[5] = 7
	y := x.Clone()
	y.Data[5] = 9
	if x.Data[5] != 7 {
		t.Fatal("Clone aliases data")
	}
	r := x.Reshape(3, 2)
	if r.Dim(0) != 3 || &r.Data[0] != &x.Data[0] {
		t.Fatal("Reshape should alias data with new shape")
	}
}

func TestTensorReshapePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTensor(2, 3).Reshape(4)
}

func TestAddScaled(t *testing.T) {
	a := NewTensor(3)
	b := NewTensor(3)
	for i := range b.Data {
		b.Data[i] = float32(i + 1)
	}
	a.AddScaled(b, 2)
	if a.Data[2] != 6 {
		t.Fatalf("AddScaled got %v", a.Data)
	}
}

// matRef is a naive reference matmul for the GEMM tests.
func matRef(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				c[i*n+j] += a[i*k+p] * b[p*n+j]
			}
		}
	}
	return c
}

func TestGEMMVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := rng.Intn(17)+1, rng.Intn(17)+1, rng.Intn(17)+1
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		want := matRef(a, b, m, k, n)

		got := make([]float32, m*n)
		gemm(a, b, got, m, k, n)
		// Aᵀ stored: at[p*m+i] = a[i*k+p]
		at := make([]float32, k*m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at[p*m+i] = a[i*k+p]
			}
		}
		gotTN := make([]float32, m*n)
		gemmTN(at, b, gotTN, m, k, n)
		// Bᵀ stored: bt[j*k+p] = b[p*n+j]
		bt := make([]float32, n*k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt[j*k+p] = b[p*n+j]
			}
		}
		gotNT := make([]float32, m*n)
		gemmNT(a, bt, gotNT, m, k, n)

		for i := range want {
			for name, g := range map[string][]float32{"gemm": got, "gemmTN": gotTN, "gemmNT": gotNT} {
				if math.Abs(float64(g[i]-want[i])) > 1e-3 {
					t.Fatalf("trial %d %s[%d] = %g, want %g", trial, name, i, g[i], want[i])
				}
			}
		}
	}
}

func TestGEMMParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Big enough to trigger the parallel path.
	m, k, n := 64, 64, 64
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	got := make([]float32, m*n)
	gemm(a, b, got, m, k, n)
	want := matRef(a, b, m, k, n)
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-2 {
			t.Fatalf("parallel gemm[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestOutputShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D("c", 3, 8, 3, 1, 1, rng)
	shape, err := conv.OutputShape([]int{3, 32, 32})
	if err != nil || shape[0] != 8 || shape[1] != 32 || shape[2] != 32 {
		t.Fatalf("conv shape %v, %v", shape, err)
	}
	strided := NewConv2D("c2", 3, 8, 3, 2, 1, rng)
	shape, err = strided.OutputShape([]int{3, 32, 32})
	if err != nil || shape[1] != 16 {
		t.Fatalf("strided shape %v, %v", shape, err)
	}
	if _, err := conv.OutputShape([]int{4, 32, 32}); err == nil {
		t.Fatal("wrong channel count accepted")
	}
	pool := NewMaxPool2("p")
	shape, err = pool.OutputShape([]int{8, 32, 32})
	if err != nil || shape[1] != 16 {
		t.Fatalf("pool shape %v, %v", shape, err)
	}
	gap := NewGlobalAvgPool("g")
	shape, err = gap.OutputShape([]int{8, 4, 4})
	if err != nil || len(shape) != 1 || shape[0] != 8 {
		t.Fatalf("gap shape %v, %v", shape, err)
	}
	dense := NewDense("d", 128, 10, rng)
	if _, err := dense.OutputShape([]int{100}); err == nil {
		t.Fatal("dense feature mismatch accepted")
	}
}

func TestMACCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	conv := NewConv2D("c", 3, 16, 5, 1, 2, rng)
	// 16 output channels × 32×32 positions × 3·5·5 = 1,228,800.
	if got := conv.MACs([]int{3, 32, 32}); got != 1228800 {
		t.Fatalf("conv MACs = %d", got)
	}
	dense := NewDense("d", 256, 10, rng)
	if got := dense.MACs([]int{256}); got != 2560 {
		t.Fatalf("dense MACs = %d", got)
	}
	seq := NewSequential("s", conv, NewReLU("r"), NewMaxPool2("p"))
	if got := seq.MACs([]int{3, 32, 32}); got != 1228800 {
		t.Fatalf("seq MACs = %d", got)
	}
}

func TestConvKnownValues(t *testing.T) {
	// 1×1 input channel, 3×3 kernel of ones, no padding: output = sum of
	// the 3×3 patch.
	rng := rand.New(rand.NewSource(5))
	conv := NewConv2D("c", 1, 1, 3, 1, 0, rng)
	for i := range conv.W.Data.Data {
		conv.W.Data.Data[i] = 1
	}
	conv.B.Data.Data[0] = 0.5
	x := NewTensor(1, 1, 3, 3)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	out := conv.Forward(x, false)
	if out.Len() != 1 {
		t.Fatalf("out shape %v", out.Shape)
	}
	if out.Data[0] != 36.5 { // 0+1+...+8 + bias
		t.Fatalf("conv out = %g, want 36.5", out.Data[0])
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	x := NewTensor(1, 1, 2, 4)
	copy(x.Data, []float32{1, 5, 3, 2, 4, 0, 9, 8})
	out := NewMaxPool2("p").Forward(x, false)
	if out.Data[0] != 5 || out.Data[1] != 9 {
		t.Fatalf("pool out %v", out.Data)
	}
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm2D("bn", 2)
	x := randInput(rng, 8, 2, 4, 4)
	out := bn.Forward(x, true)
	// Per-channel mean ≈ 0, var ≈ 1 after normalization with γ=1, β=0.
	for ch := 0; ch < 2; ch++ {
		var s, s2 float64
		count := 0
		for i := 0; i < 8; i++ {
			base := (i*2 + ch) * 16
			for j := 0; j < 16; j++ {
				v := float64(out.Data[base+j])
				s += v
				s2 += v * v
				count++
			}
		}
		mean := s / float64(count)
		variance := s2/float64(count) - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d: mean %g var %g", ch, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2D("bn", 1)
	// Train on shifted data to move the running stats.
	for i := 0; i < 50; i++ {
		x := randInput(rng, 4, 1, 2, 2)
		for j := range x.Data {
			x.Data[j] += 10
		}
		bn.Forward(x, true)
	}
	if math.Abs(float64(bn.RunningMean.Data[0])-10) > 1 {
		t.Fatalf("running mean %g, want ≈10", bn.RunningMean.Data[0])
	}
	// Eval mode: an input at the running mean maps near β = 0.
	x := NewTensor(1, 1, 2, 2)
	for j := range x.Data {
		x.Data[j] = 10
	}
	out := bn.Forward(x, false)
	if math.Abs(float64(out.Data[0])) > 0.5 {
		t.Fatalf("eval output %g, want ≈0", out.Data[0])
	}
}

func TestDropoutTrainEval(t *testing.T) {
	d := NewDropout("drop", 0.5, 42)
	x := NewTensor(1, 1000)
	for i := range x.Data {
		x.Data[i] = 1
	}
	// Eval mode: identity.
	out := d.Forward(x, false)
	for i := range out.Data {
		if out.Data[i] != 1 {
			t.Fatal("eval dropout must be identity")
		}
	}
	// Train mode: roughly half zeroed, survivors scaled by 2.
	out = d.Forward(x, true)
	zeros, twos := 0, 0
	for i := range out.Data {
		switch out.Data[i] {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %g", out.Data[i])
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout zeroed %d of 1000", zeros)
	}
	if zeros+twos != 1000 {
		t.Fatal("dropout produced unexpected values")
	}
}

func TestSGDMomentumStep(t *testing.T) {
	p := newParam("w", 1)
	p.Data.Data[0] = 1
	p.Grad.Data[0] = 0.5
	opt := NewSGD(0.1, 0.9, 0)
	opt.Step([]*Param{p})
	// v = −0.05; w = 0.95; grad cleared.
	if math.Abs(float64(p.Data.Data[0])-0.95) > 1e-6 || p.Grad.Data[0] != 0 {
		t.Fatalf("after step: w=%g grad=%g", p.Data.Data[0], p.Grad.Data[0])
	}
	p.Grad.Data[0] = 0.5
	opt.Step([]*Param{p})
	// v = 0.9·(−0.05) − 0.05 = −0.095; w = 0.855.
	if math.Abs(float64(p.Data.Data[0])-0.855) > 1e-6 {
		t.Fatalf("after second step: w=%g", p.Data.Data[0])
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := newParam("w", 1)
	p.Data.Data[0] = 1
	opt := NewSGD(0.1, 0, 0.5)
	opt.Step([]*Param{p}) // grad 0 + wd → effective grad 0.5 → w = 0.95
	if math.Abs(float64(p.Data.Data[0])-0.95) > 1e-6 {
		t.Fatalf("w = %g", p.Data.Data[0])
	}
}

// makeBlobs builds a linearly separable 2-class dataset rendered as tiny
// "images" so the conv stack has something spatial to learn.
func makeBlobs(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := NewTensor(n, 1, 8, 8)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		class := i % 2
		y[i] = class
		for j := 0; j < 64; j++ {
			noise := float32(rng.NormFloat64() * 0.3)
			if class == 0 {
				// Bright top half.
				if j < 32 {
					x.Data[i*64+j] = 1 + noise
				} else {
					x.Data[i*64+j] = noise
				}
			} else {
				// Bright bottom half.
				if j >= 32 {
					x.Data[i*64+j] = 1 + noise
				} else {
					x.Data[i*64+j] = noise
				}
			}
		}
	}
	return &Dataset{X: x, Y: y}
}

func TestTrainingLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewSequential("tiny",
		NewConv2D("c1", 1, 4, 3, 1, 1, rng),
		NewReLU("r1"),
		NewMaxPool2("p1"),
		NewDense("fc", 4*4*4, 2, rng),
	)
	model := NewModel(net)
	train := makeBlobs(64, 1)
	test := makeBlobs(32, 2)
	losses := model.Train(train, TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.05, Seed: 3})
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
	if acc := model.Accuracy(test); acc < 0.95 {
		t.Fatalf("accuracy %.2f on separable data", acc)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	build := func() *Model {
		rng := rand.New(rand.NewSource(9))
		return NewModel(NewSequential("tiny",
			NewConv2D("c1", 1, 2, 3, 1, 1, rng),
			NewReLU("r1"),
			NewDense("fc", 2*8*8, 2, rng),
		))
	}
	run := func() []float64 {
		m := build()
		return m.Train(makeBlobs(32, 4), TrainConfig{Epochs: 3, BatchSize: 8, LR: 0.05, Seed: 5})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic: %v vs %v", a, b)
		}
	}
}

func TestAfterEpochCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := NewModel(NewDense("fc", 64, 2, rng))
	var epochs []int
	m.Train(makeBlobs(16, 5), TrainConfig{
		Epochs: 3, BatchSize: 8, Seed: 1,
		AfterEpoch: func(e int, loss float64) { epochs = append(epochs, e) },
	})
	if len(epochs) != 3 || epochs[0] != 1 || epochs[2] != 3 {
		t.Fatalf("callback epochs %v", epochs)
	}
}

func TestPredictMatchesProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewModel(NewDense("fc", 64, 3, rng))
	ds := makeBlobs(8, 6)
	pred := m.Predict(ds.X)
	probs := m.Probabilities(ds.X)
	for i, p := range pred {
		row := probs.Data[i*3 : (i+1)*3]
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best != p {
			t.Fatalf("sample %d: Predict %d, Probabilities argmax %d", i, p, best)
		}
	}
	// Probabilities sum to 1.
	for i := 0; i < 8; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += float64(probs.Data[i*3+j])
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("sample %d: probs sum %g", i, s)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	build := func(seed int64) *Model {
		rng := rand.New(rand.NewSource(seed))
		return NewModel(NewSequential("m",
			NewConv2D("c1", 1, 2, 3, 1, 1, rng),
			NewBatchNorm2D("bn1", 2),
			NewReLU("r1"),
			NewDense("fc", 2*8*8, 2, rng),
		))
	}
	src := build(1)
	src.Train(makeBlobs(32, 7), TrainConfig{Epochs: 2, BatchSize: 8, Seed: 2})
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := build(999) // different init, same topology
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	ds := makeBlobs(16, 8)
	a, b := src.Predict(ds.X), dst.Predict(ds.X)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestCheckpointRejectsMismatchedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := NewModel(NewDense("fc", 64, 2, rng))
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewModel(NewDense("other", 64, 2, rng))
	if err := other.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("load into mismatched model succeeded")
	}
}

// Property: softmax cross-entropy of one-hot-perfect logits approaches 0,
// and of uniform logits equals log(C).
func TestPropertyCrossEntropyBounds(t *testing.T) {
	f := func(c8 uint8) bool {
		c := int(c8)%8 + 2
		var loss SoftmaxCrossEntropy
		// Uniform logits.
		logits := NewTensor(1, c)
		got := loss.Forward(logits, []int{0})
		if math.Abs(got-math.Log(float64(c))) > 1e-5 {
			return false
		}
		// Strongly peaked logits on the true class.
		logits.Data[0] = 50
		return loss.Forward(logits, []int{0}) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConvForward32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D("c", 3, 16, 3, 1, 1, rng)
	x := randInput(rng, 16, 3, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := NewSequential("bench",
		NewConv2D("c1", 1, 8, 3, 1, 1, rng),
		NewReLU("r1"),
		NewMaxPool2("p1"),
		NewDense("fc", 8*4*4, 2, rng),
	)
	m := NewModel(net)
	ds := makeBlobs(32, 1)
	opt := NewSGD(0.05, 0.9, 0)
	params := net.Params()
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xb, yb := ds.Slice(idx)
		logits := net.Forward(xb, true)
		m.Loss.Forward(logits, yb)
		net.Backward(m.Loss.Backward(yb))
		opt.Step(params)
	}
}
