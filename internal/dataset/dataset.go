// Package dataset generates SynthNet, the synthetic labeled image dataset
// this reproduction uses in place of ImageNet (which cannot be shipped or
// trained on a CPU-only Go substrate). Classes are constructed directly in
// the frequency domain so that the paper's central premise holds by
// design: discriminative information lives in specific DCT bands, and
// classes come in pairs that share their low-frequency "shape" and differ
// only in a mid- or high-frequency signature band — the synthetic analogue
// of the paper's junco/robin pair (Fig. 3), which human-visual-system
// quantization confuses but a data-calibrated table preserves.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/imgutil"
	"repro/internal/nn"
)

// Config controls generation. The zero value is invalid; use Quick or
// Paper for ready-made profiles.
type Config struct {
	Classes       int
	Size          int // square image size, multiple of 8
	TrainPerClass int
	TestPerClass  int
	Color         bool
	NoiseStd      float64 // per-pixel Gaussian noise
	Seed          int64
}

// Quick is the profile used by tests and benchmarks: small enough to
// train CNNs in seconds.
func Quick() Config {
	return Config{Classes: 8, Size: 32, TrainPerClass: 80, TestPerClass: 40, Color: false, NoiseStd: 5, Seed: 1}
}

// Paper is the profile used to produce EXPERIMENTS.md numbers: more
// classes and samples, color images.
func Paper() Config {
	return Config{Classes: 12, Size: 32, TrainPerClass: 150, TestPerClass: 60, Color: true, NoiseStd: 5, Seed: 1}
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.Classes < 2 {
		return fmt.Errorf("dataset: need ≥2 classes, got %d", c.Classes)
	}
	if c.Size < 16 || c.Size%8 != 0 {
		return fmt.Errorf("dataset: size must be a multiple of 8 and ≥16, got %d", c.Size)
	}
	if c.TrainPerClass < 1 || c.TestPerClass < 1 {
		return fmt.Errorf("dataset: per-class counts must be positive")
	}
	if c.NoiseStd < 0 {
		return fmt.Errorf("dataset: negative noise std")
	}
	return nil
}

// Dataset is a labeled image collection.
type Dataset struct {
	Images  []*imgutil.RGB
	Labels  []int
	Classes int
	Size    int
}

// Len returns the number of images.
func (d *Dataset) Len() int { return len(d.Images) }

// classSpec describes the frequency-domain construction of one class.
type classSpec struct {
	// Low-frequency shape: Gaussian blob center (relative) and radius.
	cx, cy, radius float64
	shapeAmp       float64
	// Signature grating: a DCT-band-aligned sinusoid. Band indices are in
	// units of the 8×8 DCT grid (u horizontal, v vertical, 0..7).
	sigU, sigV int
	sigAmp     float64
	// Common background grating shared by all classes (non-discriminative
	// MF energy so the calibrated table sees realistic spectra).
	bgU, bgV int
	bgAmp    float64
	// Channel tint weights for color datasets.
	tint [3]float64
}

// mfBands and hfBands are signature band menus. MF bands sit in zig-zag
// positions 7–28; HF bands in the tail the default JPEG table crushes.
var mfBands = [][2]int{{3, 0}, {0, 3}, {2, 2}, {3, 1}, {1, 3}, {4, 0}}
var hfBands = [][2]int{{6, 1}, {1, 6}, {5, 4}, {4, 5}, {6, 5}, {7, 3}}

// specFor derives the deterministic class construction. Classes pair up:
// pair members share the shape and background; member 0 carries an MF
// signature band, member 1 an HF signature band, so the pair is separable
// only through that band.
func specFor(class int) classSpec {
	pair := class / 2
	member := class % 2
	spec := classSpec{
		cx:       0.25 + 0.5*float64((pair*37)%17)/17,
		cy:       0.25 + 0.5*float64((pair*53)%13)/13,
		radius:   0.18 + 0.10*float64((pair*7)%5)/5,
		shapeAmp: 55,
		sigAmp:   32,
		bgU:      2, bgV: 1,
		bgAmp: 12,
	}
	if member == 0 {
		b := mfBands[pair%len(mfBands)]
		spec.sigU, spec.sigV = b[0], b[1]
	} else {
		b := hfBands[pair%len(hfBands)]
		spec.sigU, spec.sigV = b[0], b[1]
	}
	// Deterministic tint per PAIR (not per class): color must not leak the
	// within-pair label, otherwise a classifier can sidestep the signature
	// band and the junco/robin phenomenon disappears.
	spec.tint = [3]float64{
		0.8 + 0.2*float64((pair*3)%5)/5,
		0.8 + 0.2*float64((pair*5)%7)/7,
		0.8 + 0.2*float64((pair*11)%3)/3,
	}
	return spec
}

// IsHFClass reports whether a class carries its signature in a
// high-frequency band (pair member 1).
func IsHFClass(class int) bool { return class%2 == 1 }

// renderSample draws one image of a class.
func renderSample(spec classSpec, size int, color bool, noiseStd float64, rng *rand.Rand) *imgutil.RGB {
	im := imgutil.NewRGB(size, size)
	// Per-sample jitter: blob offset, grating phase and amplitude wobble.
	dx := (rng.Float64() - 0.5) * 0.2
	dy := (rng.Float64() - 0.5) * 0.2
	phase := rng.Float64() * 2 * math.Pi
	bgPhase := rng.Float64() * 2 * math.Pi
	// Wide amplitude jitter: weak-signature samples sit near the decision
	// boundary, which is what makes quantization of the signature band
	// measurably costly (without it every sweep saturates at 100%).
	ampScale := 0.65 + 0.55*rng.Float64()
	base := 105 + rng.Float64()*30

	cx := (spec.cx + dx) * float64(size)
	cy := (spec.cy + dy) * float64(size)
	r2 := spec.radius * float64(size) * spec.radius * float64(size)

	// DCT basis frequency: band u corresponds to cos((2x+1)·u·π/16),
	// i.e. u/16 cycles per pixel — rendering the grating at exactly that
	// rate concentrates its energy in band (u, v) of every 8×8 block.
	fu := float64(spec.sigU) * math.Pi / 8
	fv := float64(spec.sigV) * math.Pi / 8
	bu := float64(spec.bgU) * math.Pi / 8
	bv := float64(spec.bgV) * math.Pi / 8

	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			fx, fy := float64(x), float64(y)
			v := base
			// Low-frequency shape: smooth Gaussian blob.
			d2 := (fx-cx)*(fx-cx) + (fy-cy)*(fy-cy)
			v += spec.shapeAmp * math.Exp(-d2/(2*r2))
			// Signature grating at the class band.
			v += spec.sigAmp * ampScale * math.Cos(fu*fx+fv*fy+phase)
			// Common background grating.
			v += spec.bgAmp * math.Cos(bu*fx+bv*fy+bgPhase)
			// Sensor noise.
			if noiseStd > 0 {
				v += rng.NormFloat64() * noiseStd
			}
			if color {
				im.Set(x, y, clamp8f(v*spec.tint[0]), clamp8f(v*spec.tint[1]), clamp8f(v*spec.tint[2]))
			} else {
				g := clamp8f(v)
				im.Set(x, y, g, g, g)
			}
		}
	}
	return im
}

func clamp8f(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// Generate produces deterministic train and test splits. Sample RNG
// streams are derived from (seed, split, class, index) so splits are
// disjoint and reproducible regardless of generation order.
func Generate(cfg Config) (train, test *Dataset, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	gen := func(split int64, perClass int) *Dataset {
		ds := &Dataset{Classes: cfg.Classes, Size: cfg.Size}
		for class := 0; class < cfg.Classes; class++ {
			spec := specFor(class)
			for i := 0; i < perClass; i++ {
				h := cfg.Seed*1_000_003 + split*101_159 + int64(class)*10_007 + int64(i)
				rng := rand.New(rand.NewSource(h))
				ds.Images = append(ds.Images, renderSample(spec, cfg.Size, cfg.Color, cfg.NoiseStd, rng))
				ds.Labels = append(ds.Labels, class)
			}
		}
		return ds
	}
	return gen(1, cfg.TrainPerClass), gen(2, cfg.TestPerClass), nil
}

// Tensors converts the dataset to an nn.Dataset. Grayscale mode uses the
// luma plane as a single channel; color mode uses three channels. Pixels
// are normalized to roughly zero-mean unit-range ((v−128)/64).
func (d *Dataset) Tensors(color bool) *nn.Dataset {
	channels := 1
	if color {
		channels = 3
	}
	n := d.Len()
	x := nn.NewTensor(n, channels, d.Size, d.Size)
	plane := d.Size * d.Size
	for i, im := range d.Images {
		if color {
			for p := 0; p < plane; p++ {
				x.Data[i*3*plane+0*plane+p] = (float32(im.Pix[3*p]) - 128) / 64
				x.Data[i*3*plane+1*plane+p] = (float32(im.Pix[3*p+1]) - 128) / 64
				x.Data[i*3*plane+2*plane+p] = (float32(im.Pix[3*p+2]) - 128) / 64
			}
		} else {
			g := im.ToGray()
			for p := 0; p < plane; p++ {
				x.Data[i*plane+p] = (float32(g.Pix[p]) - 128) / 64
			}
		}
	}
	return &nn.Dataset{X: x, Y: append([]int(nil), d.Labels...)}
}

// Map applies a transform to every image (e.g. a compress–decompress
// round trip), producing a new dataset with the same labels. A transform
// error aborts the mapping.
func (d *Dataset) Map(fn func(*imgutil.RGB) (*imgutil.RGB, error)) (*Dataset, error) {
	out := &Dataset{Classes: d.Classes, Size: d.Size, Labels: append([]int(nil), d.Labels...)}
	out.Images = make([]*imgutil.RGB, d.Len())
	for i, im := range d.Images {
		t, err := fn(im)
		if err != nil {
			return nil, fmt.Errorf("dataset: transforming image %d: %w", i, err)
		}
		out.Images[i] = t
	}
	return out, nil
}
