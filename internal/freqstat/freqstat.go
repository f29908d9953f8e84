// Package freqstat implements the frequency component analysis of
// DeepN-JPEG (Algorithm 1): class-stratified image sampling, block-wise
// DCT, and per-band statistics of the un-quantized coefficients. The
// standard deviation δ(i,j) of each band is the importance signal the
// quantization table design consumes — a large δ means the band carries
// energy across the dataset and therefore contributes to DNN feature
// learning (Eq. 2 of the paper).
package freqstat

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/dct"
	"repro/internal/imgutil"
)

// Accumulator gathers running per-band statistics with Welford's algorithm,
// so datasets of any size stream through in O(1) memory.
type Accumulator struct {
	n    int64
	mean [64]float64
	m2   [64]float64
	min  [64]float64
	max  [64]float64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	a := &Accumulator{}
	for i := range a.min {
		a.min[i] = math.Inf(1)
		a.max[i] = math.Inf(-1)
	}
	return a
}

// AddBlock folds one block of DCT coefficients (natural order) into the
// statistics.
func (a *Accumulator) AddBlock(b *dct.Block) {
	a.n++
	inv := 1 / float64(a.n)
	for i := 0; i < 64; i++ {
		v := b[i]
		d := v - a.mean[i]
		a.mean[i] += d * inv
		a.m2[i] += d * (v - a.mean[i])
		if v < a.min[i] {
			a.min[i] = v
		}
		if v > a.max[i] {
			a.max[i] = v
		}
	}
}

// AddPlane partitions a sample plane into 8×8 blocks (edge-replicated),
// applies the JPEG level shift and the orthonormal forward DCT one block
// row at a time through the batch kernel, and accumulates every block.
func (a *Accumulator) AddPlane(pix []uint8, w, h int) {
	grid := imgutil.GridFor(w, h)
	row := make([]float64, grid.BlocksX*dct.BlockSize2)
	var tile [64]uint8
	for by := 0; by < grid.BlocksY; by++ {
		for bx := 0; bx < grid.BlocksX; bx++ {
			imgutil.ExtractBlock(pix, w, h, bx, by, &tile)
			dct.LevelShift(tile[:], (*dct.Block)(row[bx*dct.BlockSize2:]))
		}
		dct.ForwardAANBatch(row)
		for bx := 0; bx < grid.BlocksX; bx++ {
			a.AddBlock((*dct.Block)(row[bx*dct.BlockSize2:]))
		}
	}
}

// AddRGBLuma accumulates the luma plane of a color image, the channel the
// paper's analysis (and the luma quantization table) is driven by. It
// converts luma only. Its samples equal the Y plane of
// imgutil.Planes.FromRGB, which a calibration that also gathers chroma
// feeds in its place, so the luma statistics do not depend on that
// choice.
func (a *Accumulator) AddRGBLuma(im *imgutil.RGB) {
	g := im.ToGray()
	a.AddPlane(g.Pix, g.W, g.H)
}

// Blocks reports how many blocks have been accumulated.
func (a *Accumulator) Blocks() int64 { return a.n }

// Merge folds the statistics of b into a, as if every block added to b
// had been added to a instead, using the parallel variance combination
// of Chan, Golub & LeVeque. It is how the per-chunk partial accumulators
// of the calibration pass collapse into one result; merging the chunks
// in a fixed order keeps the outcome independent of which worker folded
// which chunk, and when. b is left unchanged.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	na, nb := float64(a.n), float64(b.n)
	n := na + nb
	for i := 0; i < 64; i++ {
		d := b.mean[i] - a.mean[i]
		a.mean[i] += d * nb / n
		a.m2[i] += b.m2[i] + d*d*na*nb/n
		if b.min[i] < a.min[i] {
			a.min[i] = b.min[i]
		}
		if b.max[i] > a.max[i] {
			a.max[i] = b.max[i]
		}
	}
	a.n += b.n
}

// Stats snapshots the accumulated per-band statistics.
func (a *Accumulator) Stats() (*Stats, error) {
	if a.n < 2 {
		return nil, fmt.Errorf("freqstat: need at least 2 blocks, have %d", a.n)
	}
	s := &Stats{Blocks: a.n}
	for i := 0; i < 64; i++ {
		s.Mean[i] = a.mean[i]
		s.Std[i] = math.Sqrt(a.m2[i] / float64(a.n-1))
		s.Min[i] = a.min[i]
		s.Max[i] = a.max[i]
	}
	return s, nil
}

// Stats holds per-band coefficient statistics in natural (row-major)
// order: index = v*8+u for vertical frequency v and horizontal u.
type Stats struct {
	Blocks int64
	Mean   [64]float64
	Std    [64]float64 // δ(i,j) in the paper
	Min    [64]float64
	Max    [64]float64
}

// StatsBinarySize is the length of a Stats value's canonical binary
// encoding: the block count followed by the four per-band arrays.
const StatsBinarySize = 8 + 4*64*8

// AppendBinary appends the canonical binary encoding of the statistics to
// b and returns the extended slice: the block count as a big-endian
// int64, then Mean, Std, Min and Max as 64 big-endian IEEE-754 bit
// patterns each. Encoding the exact bit patterns (rather than a decimal
// rendering) makes persisted statistics round-trip bit-for-bit, which the
// profile format needs for byte-identical re-encodes.
func (s *Stats) AppendBinary(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(s.Blocks))
	for _, arr := range [...]*[64]float64{&s.Mean, &s.Std, &s.Min, &s.Max} {
		for _, v := range arr {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// StatsFromBinary parses the first StatsBinarySize bytes of b as a
// canonical statistics encoding, the exact inverse of AppendBinary.
func StatsFromBinary(b []byte) (*Stats, error) {
	if len(b) < StatsBinarySize {
		return nil, fmt.Errorf("freqstat: %d bytes for a %d-byte statistics encoding", len(b), StatsBinarySize)
	}
	s := &Stats{Blocks: int64(binary.BigEndian.Uint64(b))}
	b = b[8:]
	for _, arr := range [...]*[64]float64{&s.Mean, &s.Std, &s.Min, &s.Max} {
		for i := range arr {
			arr[i] = math.Float64frombits(binary.BigEndian.Uint64(b))
			b = b[8:]
		}
	}
	return s, nil
}

// MaxStd returns the largest per-band standard deviation, the δmax anchor
// used when fitting the LF segment of the piece-wise linear mapping.
func (s *Stats) MaxStd() float64 {
	m := 0.0
	for _, v := range s.Std {
		if v > m {
			m = v
		}
	}
	return m
}

// Band classifies a frequency component by importance.
type Band int

const (
	// LF marks the six most important bands (largest δ in magnitude-based
	// segmentation; lowest zig-zag positions in position-based).
	LF Band = iota
	// MF marks importance ranks 7–28.
	MF
	// HF marks importance ranks 29–64.
	HF
)

func (b Band) String() string {
	switch b {
	case LF:
		return "LF"
	case MF:
		return "MF"
	case HF:
		return "HF"
	default:
		return "?"
	}
}

// Band size boundaries from the paper (§3.2.2, following [25]): LF = ranks
// 1..6, MF = 7..28, HF = 29..64.
const (
	LFCount = 6
	MFCount = 22
)

// Segmentation assigns each of the 64 bands to LF/MF/HF and records the
// importance ranking that produced the assignment.
type Segmentation struct {
	Class [64]Band // per band, natural order
	// Rank maps natural index → importance rank (0 = most important).
	Rank [64]int
	// ByRank maps importance rank → natural index.
	ByRank [64]int
	// T1 and T2 are the δ thresholds at the HF/MF and MF/LF boundaries,
	// defined for magnitude-based segmentations (zero otherwise).
	T1, T2 float64
}

func classForRank(rank int) Band {
	switch {
	case rank < LFCount:
		return LF
	case rank < LFCount+MFCount:
		return MF
	default:
		return HF
	}
}

// SegmentByMagnitude ranks bands by descending δ — the paper's proposal.
// T1 is the δ at the MF→HF boundary and T2 at the LF→MF boundary, so that
// Q(δ) can dispatch on thresholds exactly as Eq. 3 does.
func SegmentByMagnitude(s *Stats) Segmentation {
	var seg Segmentation
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Std[idx[a]] > s.Std[idx[b]] })
	for rank, n := range idx {
		seg.Rank[n] = rank
		seg.ByRank[rank] = n
		seg.Class[n] = classForRank(rank)
	}
	// Thresholds sit at the last member of each class, so δ ≤ T1 ⇔ HF and
	// δ > T2 ⇔ LF for distinct δ values.
	seg.T1 = s.Std[seg.ByRank[LFCount+MFCount]] // largest HF δ
	seg.T2 = s.Std[seg.ByRank[LFCount]]         // largest MF δ
	return seg
}

// SegmentByPosition ranks bands by zig-zag position — the coarse-grained
// baseline ("position based") the paper compares against, which assumes
// low spatial frequency is always most important.
func SegmentByPosition() Segmentation {
	var seg Segmentation
	for rank := 0; rank < 64; rank++ {
		n := zigZagOrder[rank]
		seg.Rank[n] = rank
		seg.ByRank[rank] = n
		seg.Class[n] = classForRank(rank)
	}
	return seg
}

// zigZagOrder duplicates qtable.ZigZagOrder to keep freqstat free of a
// qtable dependency (plm composes the two packages).
var zigZagOrder = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// StratifiedIndices implements the sampling loop of Algorithm 1: for each
// class, keep every k-th image. labels maps image index → class. The
// returned indices preserve dataset order.
func StratifiedIndices(labels []int, k int) []int {
	if k <= 1 {
		out := make([]int, len(labels))
		for i := range out {
			out[i] = i
		}
		return out
	}
	perClass := map[int]int{}
	var out []int
	for i, class := range labels {
		perClass[class]++
		if perClass[class]%k == 0 {
			out = append(out, i)
		}
	}
	return out
}
