package dct

// Benchmarks for the batch-of-blocks kernels — the per-core throughput
// numbers behind BENCH_7. Each run reports ns/block (the figure to
// compare against the single-block Transform benchmarks) and MB/s over
// the plane bytes. The 128-block run is one luma block row of a 1024-wide
// frame, the codec's gather unit; 16 blocks models a small component
// row. Run with:
//
//	go test ./internal/dct -run XXX -bench Batch -benchmem

import (
	"math/rand"
	"testing"
)

const benchBatchBlocks = 128

func benchPlane(n int) []float64 {
	rng := rand.New(rand.NewSource(3))
	p := make([]float64, n*BlockSize2)
	for i := range p {
		p[i] = float64(rng.Intn(256) - 128)
	}
	return p
}

// runBatchBench times fn over a fresh copy of plane per iteration and
// normalizes to per-block cost.
func runBatchBench(b *testing.B, plane []float64, fn func([]float64)) {
	work := make([]float64, len(plane))
	blocks := len(plane) / BlockSize2
	b.ReportAllocs()
	b.SetBytes(int64(len(plane) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, plane)
		fn(work)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}

func BenchmarkForwardBatch(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		fn   func([]float64)
	}{
		{"aan-raw-16", 16, ForwardAANRawBatch},
		{"aan-raw-128", benchBatchBlocks, ForwardAANRawBatch},
		{"aan-128", benchBatchBlocks, ForwardAANBatch},
	} {
		b.Run(tc.name, func(b *testing.B) {
			runBatchBench(b, benchPlane(tc.n), tc.fn)
		})
	}
}

func BenchmarkInverseBatch(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int
		fn   func([]float64)
	}{
		{"aan-raw-16", 16, InverseAANRawBatch},
		{"aan-raw-128", benchBatchBlocks, InverseAANRawBatch},
		{"aan-128", benchBatchBlocks, InverseAANBatch},
	} {
		b.Run(tc.name, func(b *testing.B) {
			plane := benchPlane(tc.n)
			ForwardAANRawBatch(plane) // coefficient-domain input
			runBatchBench(b, plane, tc.fn)
		})
	}
}
