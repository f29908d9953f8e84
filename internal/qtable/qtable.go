// Package qtable defines JPEG quantization tables and the table families
// the DeepN-JPEG paper compares against:
//
//   - the Annex-K luminance/chrominance reference tables with IJG
//     quality-factor scaling (the standard "JPEG QF=n" baseline),
//   - RM-HF: the paper's "remove top-N highest-frequency components"
//     extension of the QF=100 table, and
//   - SAME-Q: a uniform step for all 64 bands.
//
// Tables are stored in natural (row-major) order; ZigZag/DeZigZag convert to
// and from the scan order used in DQT segments and entropy coding.
package qtable

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Table is a 64-entry quantization table in natural (row-major) order.
// Valid baseline-JPEG steps are 1..255.
type Table [64]uint16

// ZigZagOrder maps zig-zag index → natural index (ITU-T T.81 Figure 5).
var ZigZagOrder = [64]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// NaturalToZigZag maps natural index → zig-zag index (inverse of
// ZigZagOrder).
var NaturalToZigZag [64]int

func init() {
	for z, n := range ZigZagOrder {
		NaturalToZigZag[n] = z
	}
}

// StdLuminance is the Annex-K (Table K.1) luminance quantization table,
// natural order.
var StdLuminance = Table{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// StdChrominance is the Annex-K (Table K.2) chrominance quantization table,
// natural order.
var StdChrominance = Table{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// Uniform returns a SAME-Q table with every step equal to q (clamped to
// 1..255).
func Uniform(q int) Table {
	var t Table
	v := uint16(clampStep(q))
	for i := range t {
		t[i] = v
	}
	return t
}

func clampStep(q int) int {
	if q < 1 {
		return 1
	}
	if q > 255 {
		return 255
	}
	return q
}

// Scale applies the IJG quality-factor mapping to a base table:
// qf in [1,100]; qf=50 returns the base table, larger is finer.
func Scale(base Table, qf int) (Table, error) {
	if qf < 1 || qf > 100 {
		return Table{}, fmt.Errorf("qtable: quality factor %d out of range [1,100]", qf)
	}
	var scale int
	if qf < 50 {
		scale = 5000 / qf
	} else {
		scale = 200 - 2*qf
	}
	var out Table
	for i, q := range base {
		v := (int(q)*scale + 50) / 100
		out[i] = uint16(clampStep(v))
	}
	return out, nil
}

// MustScale is Scale for known-good quality factors; it panics on error and
// exists for table literals in tests and examples.
func MustScale(base Table, qf int) Table {
	t, err := Scale(base, qf)
	if err != nil {
		panic(err)
	}
	return t
}

// ZeroMask marks coefficients that an encoder should force to zero before
// entropy coding (true = drop). It implements the RM-HF scheme, which the
// paper describes as removing components "from the quantization table":
// dropping a band entirely is the limiting case of an infinite step.
type ZeroMask [64]bool

// TopZigZag returns a mask covering the n highest-frequency bands in
// zig-zag order (the tail of the scan). n is clamped to [0, 64].
func TopZigZag(n int) ZeroMask {
	if n < 0 {
		n = 0
	}
	if n > 64 {
		n = 64
	}
	var m ZeroMask
	for z := 64 - n; z < 64; z++ {
		m[ZigZagOrder[z]] = true
	}
	return m
}

// RMHF builds the paper's RM-HF baseline: the QF=100 luminance table plus a
// mask that zeroes the top-n zig-zag bands.
func RMHF(n int) (Table, ZeroMask) {
	return MustScale(StdLuminance, 100), TopZigZag(n)
}

// Validate checks that every step is a legal baseline value.
func (t Table) Validate() error {
	for i, q := range t {
		if q < 1 || q > 255 {
			return fmt.Errorf("qtable: step %d at index %d out of range [1,255]", q, i)
		}
	}
	return nil
}

// FromZigZag reconstructs a natural-order table from zig-zag order.
func FromZigZag(z [64]uint16) Table {
	var t Table
	for zi, n := range ZigZagOrder {
		t[n] = z[zi]
	}
	return t
}

// BinarySize is the length of a table's canonical binary encoding:
// 64 big-endian uint16 steps in natural order.
const BinarySize = 128

// AppendBinary appends the canonical binary encoding of the table to b
// and returns the extended slice. The encoding is deterministic, so a
// table always serializes to the same bytes — the property the persistent
// profile format builds its byte-identical round trips on.
func (t Table) AppendBinary(b []byte) []byte {
	for _, q := range t {
		b = binary.BigEndian.AppendUint16(b, q)
	}
	return b
}

// TableFromBinary parses the first BinarySize bytes of b as a canonical
// table encoding. It is the exact inverse of AppendBinary; values outside
// the legal baseline range are reported by Validate, not here, so callers
// decide how strict to be.
func TableFromBinary(b []byte) (Table, error) {
	var t Table
	if len(b) < BinarySize {
		return t, fmt.Errorf("qtable: %d bytes for a %d-byte table encoding", len(b), BinarySize)
	}
	for i := range t {
		t[i] = binary.BigEndian.Uint16(b[2*i:])
	}
	return t, nil
}

// Mean returns the average step, a coarse aggressiveness measure.
func (t Table) Mean() float64 {
	s := 0.0
	for _, q := range t {
		s += float64(q)
	}
	return s / 64
}

// String renders the table as an 8×8 grid.
func (t Table) String() string {
	var b strings.Builder
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			fmt.Fprintf(&b, "%4d", t[y*8+x])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
