//go:build !dct_asm

package dct

// Shape pin for the pure-Go batch kernels. The batch entry points are
// deliberately asm-free: flat float64 loops the compiler lowers well on
// every GOARCH/GOAMD64 level, with no build-tagged assembly variant to
// drift out of sync. If a hand-written asm path is ever added behind a
// `dct_asm` build tag, this file keeps testing the fallback — the
// reference the asm must match bit for bit — on every other build, and
// the constants below document the layout contract the asm would have to
// honor.

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestBatchLayoutContract pins the flat-plane memory layout the kernels
// (and any future asm) assume: 64 contiguous float64 per block, block k
// at byte offset 512k, row-major within the block.
func TestBatchLayoutContract(t *testing.T) {
	if BlockSize2 != 64 {
		t.Fatalf("BlockSize2 = %d, want 64", BlockSize2)
	}
	var b Block
	if got := unsafe.Sizeof(b); got != 512 {
		t.Fatalf("Block occupies %d bytes, want 512 (64 contiguous float64)", got)
	}
	p := make([]float64, 3*BlockSize2)
	for k := 0; k < 3; k++ {
		blk := (*Block)(p[k*BlockSize2:])
		if unsafe.Pointer(blk) != unsafe.Pointer(&p[k*BlockSize2]) {
			t.Fatalf("block %d does not alias the plane at offset %d", k, k*BlockSize2)
		}
	}
}

// TestPureGoKernelsMatchStridedReference pins each flat kernel pass
// against the strided 1-D butterflies it restructures (fdctAAN1D/
// idctAAN1D with the matching off/stride schedule). A future asm path
// must reproduce these bits; the pure-Go fallback is the oracle.
func TestPureGoKernelsMatchStridedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 200; trial++ {
		var flat, ref Block
		for i := range flat {
			flat[i] = float64(rng.Intn(2048) - 1024)
			ref[i] = flat[i]
		}

		fdctAANRowsFlat(&flat)
		for y := 0; y < BlockSize; y++ {
			fdctAAN1D(ref[:], y*BlockSize, 1)
		}
		requireSameBits(t, "forward row pass", &flat, &ref)

		fdctAANColsFlat(&flat)
		for x := 0; x < BlockSize; x++ {
			fdctAAN1D(ref[:], x, BlockSize)
		}
		requireSameBits(t, "forward column pass", &flat, &ref)

		idctAANColsFlat(&flat)
		for x := 0; x < BlockSize; x++ {
			idctAAN1D(ref[:], x, BlockSize)
		}
		requireSameBits(t, "inverse column pass", &flat, &ref)

		idctAANRowsFlat(&flat)
		for y := 0; y < BlockSize; y++ {
			idctAAN1D(ref[:], y*BlockSize, 1)
		}
		requireSameBits(t, "inverse row pass", &flat, &ref)
	}
}

func requireSameBits(t *testing.T, stage string, got, want *Block) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v flat vs %v strided (bit mismatch)", stage, i, got[i], want[i])
		}
	}
}
