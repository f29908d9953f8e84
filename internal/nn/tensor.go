// Package nn is a from-scratch CPU neural-network framework — tensors,
// convolutional/pooling/dense/batch-norm layers, softmax cross-entropy,
// and SGD training — built because the paper's evaluation needs trainable
// CNNs and Go has no deep-learning substrate to lean on. It is deliberately
// small: float32 NCHW tensors, im2col convolutions on a hand-rolled GEMM,
// deterministic seeding, and MAC accounting for the energy model.
package nn

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense float32 array with row-major (C-order) layout.
// Convolutional data uses NCHW.
type Tensor struct {
	Shape []int
	Data  []float32
}

// NewTensor allocates a zeroed tensor of the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("nn: non-positive dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Reshape returns a view with a new shape of equal volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("nn: reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// FillNormal initializes elements from N(0, std²) using rng.
func (t *Tensor) FillNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// AddScaled computes t += alpha*o element-wise.
func (t *Tensor) AddScaled(o *Tensor, alpha float32) {
	if len(t.Data) != len(o.Data) {
		panic("nn: AddScaled size mismatch")
	}
	for i := range t.Data {
		t.Data[i] += alpha * o.Data[i]
	}
}

// Param is a trainable parameter with its gradient accumulator.
type Param struct {
	Name string
	Data *Tensor
	Grad *Tensor
}

// newParam allocates a parameter and matching zero gradient.
func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Data: NewTensor(shape...), Grad: NewTensor(shape...)}
}
