// Package annealing implements a simulated-annealing search over JPEG
// quantization tables, the approach the paper cites (Hopkins et al.,
// "Simulated annealing for JPEG quantization") as the search-based
// alternative to DeepN-JPEG's closed-form heuristic and dismisses as an
// intractable optimization for this setting. Having it in-tree lets the
// benchmarks quantify that claim: the annealer needs thousands of
// objective evaluations to approach the quality a single calibrated
// piece-wise linear mapping delivers.
//
// The objective is a rate–distortion Lagrangian measured on sampled DCT
// blocks: J(T) = rate(T) + λ·distortion(T), where rate is approximated by
// the total magnitude-category bits the entropy coder would emit and
// distortion is the (optionally band-weighted) quantization MSE.
package annealing

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dct"
	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// Objective scores candidate tables against sampled coefficient blocks.
type Objective struct {
	// Blocks holds un-quantized DCT coefficient blocks sampled from the
	// dataset.
	Blocks []dct.Block
	// Lambda trades rate against distortion; larger λ favors quality.
	Lambda float64
	// Weights optionally emphasizes distortion in important bands (e.g.
	// the δ ranking); nil weights every band equally.
	Weights *[64]float64
}

// CollectBlocks samples the luma DCT blocks of a set of images into
// objective form. every selects each k-th block (≤1 keeps all).
func CollectBlocks(images []*imgutil.Gray, every int) []dct.Block {
	if every < 1 {
		every = 1
	}
	var out []dct.Block
	count := 0
	var tile [64]uint8
	for _, img := range images {
		grid := imgutil.GridFor(img.W, img.H)
		for by := 0; by < grid.BlocksY; by++ {
			for bx := 0; bx < grid.BlocksX; bx++ {
				count++
				if count%every != 0 {
					continue
				}
				imgutil.ExtractBlock(img.Pix, img.W, img.H, bx, by, &tile)
				var blk dct.Block
				dct.LevelShift(tile[:], &blk)
				dct.ForwardAANBatch(blk[:])
				out = append(out, blk)
			}
		}
	}
	return out
}

// bitsFor approximates the entropy-coded cost of a quantized value as its
// JPEG magnitude category plus one structural bit (run/size symbol
// amortization); zeros are free, matching run-length coding's behavior.
func bitsFor(v int32) float64 {
	if v == 0 {
		return 0
	}
	if v < 0 {
		v = -v
	}
	n := 1.0
	for v > 0 {
		n++
		v >>= 1
	}
	return n
}

// Cost evaluates the Lagrangian for a table.
func (o *Objective) Cost(t qtable.Table) float64 {
	var rate, distortion float64
	for bi := range o.Blocks {
		blk := &o.Blocks[bi]
		for n := 0; n < 64; n++ {
			q := float64(t[n])
			v := math.Round(blk[n] / q)
			rate += bitsFor(int32(v))
			d := blk[n] - v*q
			if o.Weights != nil {
				d *= o.Weights[n]
			}
			distortion += d * d
		}
	}
	norm := float64(len(o.Blocks))
	if norm == 0 {
		return 0
	}
	return (rate + o.Lambda*distortion) / norm
}

// Config controls the annealing schedule.
type Config struct {
	// Iterations is the number of proposed moves.
	Iterations int
	// InitTemp is the starting Metropolis temperature.
	InitTemp float64
	// Cooling is the geometric decay per iteration (0 < Cooling < 1).
	Cooling float64
	// MaxStepDelta bounds a single move's change to one band's step.
	MaxStepDelta int
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultConfig is a schedule that converges on small block samples in a
// few thousand moves.
func DefaultConfig() Config {
	return Config{Iterations: 4000, InitTemp: 5, Cooling: 0.999, MaxStepDelta: 24, Seed: 1}
}

// Validate rejects unusable schedules.
func (c Config) Validate() error {
	if c.Iterations < 1 {
		return fmt.Errorf("annealing: iterations %d < 1", c.Iterations)
	}
	if c.InitTemp <= 0 {
		return fmt.Errorf("annealing: initial temperature %g must be positive", c.InitTemp)
	}
	if c.Cooling <= 0 || c.Cooling >= 1 {
		return fmt.Errorf("annealing: cooling %g outside (0,1)", c.Cooling)
	}
	if c.MaxStepDelta < 1 {
		return fmt.Errorf("annealing: max step delta %d < 1", c.MaxStepDelta)
	}
	return nil
}

// Result reports the search outcome.
type Result struct {
	Table       qtable.Table
	Cost        float64
	InitialCost float64
	Accepted    int
	Evaluations int
}

// Optimize anneals from the initial table toward a lower-cost one.
func Optimize(o *Objective, init qtable.Table, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := init.Validate(); err != nil {
		return Result{}, fmt.Errorf("annealing: initial table: %w", err)
	}
	if len(o.Blocks) == 0 {
		return Result{}, fmt.Errorf("annealing: no sample blocks")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cur := init
	curCost := o.Cost(cur)
	best := cur
	bestCost := curCost
	res := Result{InitialCost: curCost, Evaluations: 1}
	temp := cfg.InitTemp
	for it := 0; it < cfg.Iterations; it++ {
		// Propose: nudge one band's step.
		band := rng.Intn(64)
		delta := rng.Intn(2*cfg.MaxStepDelta+1) - cfg.MaxStepDelta
		if delta == 0 {
			delta = 1
		}
		next := cur
		step := int(next[band]) + delta
		if step < 1 {
			step = 1
		}
		if step > 255 {
			step = 255
		}
		next[band] = uint16(step)
		nextCost := o.Cost(next)
		res.Evaluations++
		if accept(nextCost-curCost, temp, rng) {
			cur, curCost = next, nextCost
			res.Accepted++
			if curCost < bestCost {
				best, bestCost = cur, curCost
			}
		}
		temp *= cfg.Cooling
	}
	res.Table = best
	res.Cost = bestCost
	return res, nil
}

// accept applies the Metropolis criterion.
func accept(deltaCost, temp float64, rng *rand.Rand) bool {
	if deltaCost <= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() < math.Exp(-deltaCost/temp)
}
