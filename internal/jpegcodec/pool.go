package jpegcodec

import (
	"bufio"
	"io"
	"sync"

	"repro/internal/bitio"
	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// This file holds the pooled per-call working set of the codec. Encoding
// an image needs a luma plane, two chroma planes (subsampled unless
// 4:4:4), one coefficient array per component, a marker writer, and an
// entropy bit writer; decoding reads the stream in place and needs an
// entropy bit reader, Huffman-table and restart-segment scratch, and for
// DecodeInto a buffer to read its io.Reader into — all of it state that
// dies with the call. Re-allocating it per image dominates the allocation
// profile once the codec sits in a batch pipeline's inner loop, so every
// piece is recycled through sync.Pools, which also makes both directions
// naturally worker-friendly: each concurrent encode or decode checks out
// its own scratch. Decoder *output* (planes, coefficient grids) is the
// caller's property and is recycled through DecodeInto instead.

// encScratch is the reusable working set of one encode call.
type encScratch struct {
	planes imgutil.Planes      // Y and subsampled Cb/Cr conversion buffers
	coefs  [3][][64]int32      // per-component quantized coefficient grids
	ext    [3][]uint8          // per-component block extents beside coefs
	comps  [3]component        // component descriptors
	refs   [3]*component       // backing array for the []*component slice
	fwd    [2]qtable.FwdScaled // fused forward divisors (luma, chroma), derived per encode
	thr    [2][64]float64      // squared zero thresholds of fwd (zeroThresholds), derived per encode
	plane  []float64           // flat block-row plane for the sequential transform stage
	rows   []uint8             // box-row chroma scratch for the sequential color conversion
}

var encScratchPool = sync.Pool{New: func() any { return new(encScratch) }}

func getEncScratch() *encScratch {
	s := encScratchPool.Get().(*encScratch)
	for i := range s.refs {
		s.refs[i] = &s.comps[i]
	}
	return s
}

// putEncScratch returns s to the pool, dropping references to caller
// memory (source pixels) while keeping the recyclable buffers.
func putEncScratch(s *encScratch) {
	s.comps = [3]component{}
	encScratchPool.Put(s)
}

// components hands out the scratch-backed descriptor slice for n
// components; the caller fills s.comps[:n] first.
func (s *encScratch) components(n int) []*component {
	return s.refs[:n]
}

// growCoefs returns a coefficient grid of n blocks, reusing b's backing
// array when it is large enough. Contents are unspecified: the forward
// transform and interleaved scans overwrite every block, while scan
// shapes that don't (non-interleaved, progressive) zero the grid first
// via zeroCoefs.
func growCoefs(b [][64]int32, n int) [][64]int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([][64]int32, n)
}

// zeroCoefs clears a recycled coefficient grid. Scans that do not
// overwrite every block slot — non-interleaved walks skip the MCU
// padding; progressive scans accumulate bits across scans — must start
// from zeroed grids instead of the previous decode's leftovers.
func zeroCoefs(b [][64]int32) {
	for i := range b {
		b[i] = [64]int32{}
	}
}

// growFloats returns a flat plane of n floats, reusing b's backing
// array when it is large enough. Contents are unspecified; the batch
// stages fully overwrite the plane before reading it.
func growFloats(b []float64, n int) []float64 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float64, n)
}

// planePool recycles flat block-row planes for the workers of a sharded
// transform or reconstruction, and for the sequential reconstruction;
// the sequential encode retains its plane on encScratch instead.
var planePool = sync.Pool{New: func() any { return new([]float64) }}

// getPlanes checks n planes out of planePool, one per worker.
func getPlanes(n int) []*[]float64 {
	planes := make([]*[]float64, n)
	for i := range planes {
		planes[i] = planePool.Get().(*[]float64)
	}
	return planes
}

// putPlanes returns the planes getPlanes handed out.
func putPlanes(planes []*[]float64) {
	for _, p := range planes {
		planePool.Put(p)
	}
}

// rowsPool recycles the box-row chroma scratch of the workers of a
// sharded color conversion.
var rowsPool = sync.Pool{New: func() any { return new([]uint8) }}

// spanPool recycles the segment table of the sharded scan writer.
var spanPool = sync.Pool{New: func() any { return new([]segSpan) }}

// bufwPool recycles the buffered marker/scan writers.
var bufwPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 1<<12) }}

// bitwPool recycles entropy bit writers; each retains its grown output
// buffer across encodes.
var bitwPool = sync.Pool{New: func() any { return bitio.NewWriter(io.Discard) }}

// decoderPool recycles the decoder parse state: the entropy bit reader,
// DecodeInto's input buffer, Huffman decode tables and component
// descriptors. Output buffers are NOT pooled here — they belong to the
// destination Decoded, which callers reuse through DecodeInto.
var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// Standard Annex-K Huffman specs never change, so their derived encoder
// tables are built once and shared by every non-optimized encode.
var (
	stdEncOnce   sync.Once
	stdEncTables [4]*encTable
	stdEncErr    error
)

func stdEncoderTables() ([4]*encTable, error) {
	stdEncOnce.Do(func() {
		specs := [4]*HuffmanSpec{&StdDCLuminance, &StdACLuminance, &StdDCChrominance, &StdACChrominance}
		for i, s := range specs {
			stdEncTables[i], stdEncErr = buildEncTable(s)
			if stdEncErr != nil {
				return
			}
		}
	})
	return stdEncTables, stdEncErr
}
