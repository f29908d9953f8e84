package nn

import (
	"fmt"
	"io"
	"math"
	"math/rand"
)

// SoftmaxCrossEntropy couples the softmax activation with the negative
// log-likelihood loss, the standard final stage of a classifier.
type SoftmaxCrossEntropy struct {
	probs *Tensor
}

// Forward returns the mean loss over the batch and caches probabilities.
func (l *SoftmaxCrossEntropy) Forward(logits *Tensor, labels []int) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	l.probs = NewTensor(n, c)
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			l.probs.Data[i*c+j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := 0; j < c; j++ {
			l.probs.Data[i*c+j] *= inv
		}
		p := float64(l.probs.Data[i*c+labels[i]])
		loss -= math.Log(math.Max(p, 1e-12))
	}
	return loss / float64(n)
}

// Backward returns dL/dlogits for the cached forward pass.
func (l *SoftmaxCrossEntropy) Backward(labels []int) *Tensor {
	n, c := l.probs.Dim(0), l.probs.Dim(1)
	grad := l.probs.Clone()
	inv := float32(1 / float64(n))
	for i := 0; i < n; i++ {
		grad.Data[i*c+labels[i]] -= 1
		for j := 0; j < c; j++ {
			grad.Data[i*c+j] *= inv
		}
	}
	return grad
}

// Probs exposes the cached softmax probabilities.
func (l *SoftmaxCrossEntropy) Probs() *Tensor { return l.probs }

// SGD is stochastic gradient descent with classical momentum and L2
// weight decay.
type SGD struct {
	LR, Momentum, WeightDecay float64
	velocity                  map[*Param]*Tensor
}

// NewSGD constructs the optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*Param]*Tensor{}}
}

// Step applies one update to every parameter and clears gradients.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		v := o.velocity[p]
		if v == nil {
			v = NewTensor(p.Data.Shape...)
			o.velocity[p] = v
		}
		lr := float32(o.LR)
		mu := float32(o.Momentum)
		wd := float32(o.WeightDecay)
		for i := range p.Data.Data {
			g := p.Grad.Data[i] + wd*p.Data.Data[i]
			v.Data[i] = mu*v.Data[i] - lr*g
			p.Data.Data[i] += v.Data[i]
			p.Grad.Data[i] = 0
		}
	}
}

// Dataset pairs input tensors with integer labels for training.
type Dataset struct {
	X *Tensor // [N, C, H, W]
	Y []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Dim(0) }

// Slice copies samples [i0, i1) into a new batch tensor.
func (d *Dataset) Slice(idx []int) (*Tensor, []int) {
	c, h, w := d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
	sample := c * h * w
	xb := NewTensor(len(idx), c, h, w)
	yb := make([]int, len(idx))
	for i, j := range idx {
		copy(xb.Data[i*sample:(i+1)*sample], d.X.Data[j*sample:(j+1)*sample])
		yb[i] = d.Y[j]
	}
	return xb, yb
}

// TrainConfig controls the training loop.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	// LRDecayEvery halves the learning rate every k epochs when > 0.
	LRDecayEvery int
	// ClipNorm rescales the global gradient L2 norm to this bound when
	// > 0, stabilizing batch-norm-free architectures at higher rates.
	ClipNorm float64
	Seed     int64
	// Log receives one line per epoch when non-nil.
	Log io.Writer
	// AfterEpoch runs after each epoch (e.g. Fig. 2b's per-epoch test
	// accuracy probes). Epoch is 1-based.
	AfterEpoch func(epoch int, trainLoss float64)
}

// withDefaults fills unset fields.
func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	return c
}

// Model couples a layer graph with its loss for training and inference.
type Model struct {
	Net  Layer
	Loss SoftmaxCrossEntropy
}

// NewModel wraps a network.
func NewModel(net Layer) *Model { return &Model{Net: net} }

// Train runs SGD over train for cfg.Epochs and returns per-epoch mean
// training losses.
func (m *Model) Train(train *Dataset, cfg TrainConfig) []float64 {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	params := m.Net.Params()
	n := train.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if cfg.LRDecayEvery > 0 && epoch > 1 && (epoch-1)%cfg.LRDecayEvery == 0 {
			opt.LR /= 2
		}
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, n)
			xb, yb := train.Slice(order[start:end])
			logits := m.Net.Forward(xb, true)
			loss := m.Loss.Forward(logits, yb)
			m.Net.Backward(m.Loss.Backward(yb))
			clipGradients(params, cfg.ClipNorm)
			opt.Step(params)
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		losses = append(losses, epochLoss)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d/%d  loss %.4f\n", epoch, cfg.Epochs, epochLoss)
		}
		if cfg.AfterEpoch != nil {
			cfg.AfterEpoch(epoch, epochLoss)
		}
	}
	return losses
}

// clipGradients rescales all gradients so their global L2 norm does not
// exceed maxNorm (no-op when maxNorm ≤ 0).
func clipGradients(params []*Param, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm {
		return
	}
	scale := float32(maxNorm / norm)
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= scale
		}
	}
}

// Predict returns the arg-max class for each sample, evaluating in
// inference mode with bounded batch sizes.
func (m *Model) Predict(x *Tensor) []int {
	n := x.Dim(0)
	out := make([]int, n)
	const batch = 64
	c, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	sample := c * h * w
	for start := 0; start < n; start += batch {
		end := min(start+batch, n)
		xb := &Tensor{Shape: []int{end - start, c, h, w}, Data: x.Data[start*sample : end*sample]}
		logits := m.Net.Forward(xb, false)
		classes := logits.Dim(1)
		for i := 0; i < end-start; i++ {
			row := logits.Data[i*classes : (i+1)*classes]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			out[start+i] = best
		}
	}
	return out
}

// Probabilities returns softmax class probabilities for each sample.
func (m *Model) Probabilities(x *Tensor) *Tensor {
	logits := m.Net.Forward(x, false)
	var sm SoftmaxCrossEntropy
	labels := make([]int, x.Dim(0)) // dummy labels; loss value unused
	sm.Forward(logits, labels)
	return sm.Probs()
}

// Accuracy evaluates top-1 accuracy on a dataset.
func (m *Model) Accuracy(ds *Dataset) float64 {
	pred := m.Predict(ds.X)
	correct := 0
	for i, p := range pred {
		if p == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// MACs reports per-sample multiply-accumulates for an input shape.
func (m *Model) MACs(in []int) int64 { return m.Net.MACs(in) }
