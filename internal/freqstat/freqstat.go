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

// AddPlane partitions a sample plane into 8×8 blocks (edge-replicated),
// applies the JPEG level shift and the orthonormal forward DCT, and
// accumulates every block, in row-major block order. It walks the plane
// once, one block row at a time: dct.GatherBlockRow builds the row's
// level-shifted tiles, and foldStrip transforms and folds them.
func (a *Accumulator) AddPlane(pix []uint8, w, h int) {
	plane, inv := stripScratch(w)
	for by := 0; by < imgutil.GridFor(w, h).BlocksY; by++ {
		dct.GatherBlockRow(plane, pix, w, h, by, len(inv))
		a.foldStrip(plane, inv)
	}
}

// AddRGBLuma accumulates the luma plane of a color image, the channel the
// paper's analysis (and the luma quantization table) is driven by. It
// converts luma only, by imgutil.LumaRow, one strip of at most eight
// rows at a time, and gathers and folds each strip as AddPlane does a
// block row, so no whole luma plane is ever built. Its samples equal the
// Y plane of imgutil.Planes.FromRGB, which a calibration that also
// gathers chroma feeds in its place, so the luma statistics do not
// depend on that choice.
func (a *Accumulator) AddRGBLuma(im *imgutil.RGB) {
	w, h := im.W, im.H
	plane, inv := stripScratch(w)
	luma := make([]uint8, 8*w)
	for y0 := 0; y0 < h; y0 += 8 {
		rows := min(8, h-y0)
		imgutil.LumaRow(luma[:rows*w], im.Pix[3*y0*w:3*(y0+rows)*w])
		// The strip's own row count as the height repeats the image's
		// last row in a partial strip, as ExtractBlock does.
		dct.GatherBlockRow(plane, luma, w, rows, 0, len(inv))
		a.foldStrip(plane, inv)
	}
}

// stripScratch returns the scratch of one block row of a plane w samples
// wide: its tiles in dct batch layout, and the Welford weight of each of
// its blocks. It lives for one Add call, outside the Accumulator, so
// Merge's copy of an accumulator shares no buffer.
func stripScratch(w int) (plane, inv []float64) {
	n := imgutil.GridFor(w, 1).BlocksX
	return make([]float64, n*dct.BlockSize2), make([]float64, n)
}

// foldStrip transforms the gathered tiles in plane and folds every block
// into the statistics with Welford's update, in block order, using inv
// for the blocks' weights. Each band's statistics depend on that band's
// coefficients alone, so the fold runs band by band over the strip's
// blocks, holding the band's running moments in registers, and yields
// the bits a block-by-block fold does: each coefficient is the raw
// butterfly output times its descale factor, the product
// dct.ForwardAANBatch stores, and block k's weight is 1/(n+k+1), as if n
// counted blocks one by one. Bands go four at a time, whose independent
// update chains overlap; one band alone waits on its own latency.
func (a *Accumulator) foldStrip(plane, inv []float64) {
	dct.ForwardAANRawBatch(plane)
	for k := range inv {
		inv[k] = 1 / float64(a.n+int64(k)+1)
	}
	for i := 0; i < 64; i += 4 {
		a.foldBands(plane, inv, i)
	}
	a.n += int64(len(inv))
}

// descale holds dct.AANForwardDescale for each band.
var descale = func() (f [64]float64) {
	for i := range f {
		f[i] = dct.AANForwardDescale(i)
	}
	return f
}()

// foldBands folds bands i..i+3 of every block of plane, whose weights
// are inv, into the statistics. The descale product is rounded by an
// explicit conversion, as fold's products are.
func (a *Accumulator) foldBands(plane, inv []float64, i int) {
	f := (*[4]float64)(descale[i:])
	mean := (*[4]float64)(a.mean[i:])
	m2 := (*[4]float64)(a.m2[i:])
	lo := (*[4]float64)(a.min[i:])
	hi := (*[4]float64)(a.max[i:])
	u0, u1, u2, u3 := mean[0], mean[1], mean[2], mean[3]
	q0, q1, q2, q3 := m2[0], m2[1], m2[2], m2[3]
	for k, w := range inv {
		b := (*[4]float64)(plane[k*dct.BlockSize2+i:])
		u0, q0 = fold(u0, q0, &lo[0], &hi[0], float64(b[0]*f[0]), w)
		u1, q1 = fold(u1, q1, &lo[1], &hi[1], float64(b[1]*f[1]), w)
		u2, q2 = fold(u2, q2, &lo[2], &hi[2], float64(b[2]*f[2]), w)
		u3, q3 = fold(u3, q3, &lo[3], &hi[3], float64(b[3]*f[3]), w)
	}
	mean[0], mean[1], mean[2], mean[3] = u0, u1, u2, u3
	m2[0], m2[1], m2[2], m2[3] = q0, q1, q2, q3
}

// fold is Welford's update of one band by one more coefficient v of
// weight w = 1/n: it returns the band's new running mean and sum of
// squared deviations from mean and m2, and widens the band's range
// [*lo, *hi] to hold v. Each product is rounded by an explicit
// conversion, so no compiler fuses it into the addition that follows.
func fold(mean, m2 float64, lo, hi *float64, v, w float64) (float64, float64) {
	d := v - mean
	mean += float64(d * w)
	if v < *lo {
		*lo = v
	}
	if v > *hi {
		*hi = v
	}
	return mean, m2 + float64(d*(v-mean))
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
