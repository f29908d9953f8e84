package jpegcodec

import (
	"fmt"
	"sort"

	"repro/internal/bitio"
)

// HuffmanSpec is the wire-format description of a Huffman table: Counts[i]
// is the number of codes of length i+1 (1..16), Values lists the symbols in
// code order (ITU-T T.81 Annex C).
type HuffmanSpec struct {
	Counts [16]uint8
	Values []uint8
}

// totalCodes returns the number of symbols described by the spec.
func (s *HuffmanSpec) totalCodes() int {
	n := 0
	for _, c := range s.Counts {
		n += int(c)
	}
	return n
}

// Validate checks structural invariants: value count matches Counts, and
// the code space is not over-subscribed at any length (Kraft inequality).
func (s *HuffmanSpec) Validate() error {
	if s.totalCodes() != len(s.Values) {
		return fmt.Errorf("jpegcodec: huffman spec has %d counts but %d values", s.totalCodes(), len(s.Values))
	}
	if len(s.Values) == 0 {
		return fmt.Errorf("jpegcodec: empty huffman spec")
	}
	if len(s.Values) > 256 {
		return fmt.Errorf("jpegcodec: huffman spec has %d values (max 256)", len(s.Values))
	}
	code := 0
	for i, c := range s.Counts {
		code += int(c)
		if code > 1<<(i+1) {
			return fmt.Errorf("jpegcodec: huffman code space over-subscribed at length %d", i+1)
		}
		code <<= 1
	}
	return nil
}

// encTable maps a symbol to its canonical code and length for encoding.
type encTable struct {
	code [256]uint32
	size [256]uint8
}

// buildEncTable derives the canonical encoder table per Annex C.
func buildEncTable(spec *HuffmanSpec) (*encTable, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &encTable{}
	code := uint32(0)
	k := 0
	for length := 1; length <= 16; length++ {
		for i := 0; i < int(spec.Counts[length-1]); i++ {
			v := spec.Values[k]
			if t.size[v] != 0 {
				return nil, fmt.Errorf("jpegcodec: symbol %#x appears twice in huffman spec", v)
			}
			t.code[v] = code
			t.size[v] = uint8(length)
			code++
			k++
		}
		code <<= 1
	}
	return t, nil
}

// put writes the code for symbol v followed by the s magnitude bits mag
// in one Put: a code of up to 16 bits and s ≤ 11 fit in its 32. It and
// Put inline into the emit loops, so a code costs no call; the error
// for a symbol without a code is built only when it is read.
func (t *encTable) put(bw *bitio.Writer, v uint8, mag uint32, s int) error {
	n := t.size[v]
	if n == 0 {
		return noCodeError(v)
	}
	bw.Put(t.code[v]<<s|mag, uint(n)+uint(s))
	return nil
}

// noCodeError reports a symbol the Huffman table in use has no code for.
type noCodeError uint8

func (e noCodeError) Error() string {
	return fmt.Sprintf("jpegcodec: symbol %#x has no huffman code", uint8(e))
}

// lookupBits is the width of decTable's lookahead index: codes up to
// this long decode with one table read, longer ones finish with the
// MAXCODE walk.
const lookupBits = 9

// decTable decodes canonical codes: a lookahead table for codes of up to
// lookupBits bits, and the MINCODE/MAXCODE/VALPTR scheme of T.81 Annex
// F.2.2.3 for the longer ones.
type decTable struct {
	// lookup maps the next lookupBits bits of the stream to the code
	// they start with, as length<<8 | symbol; 0 when that code is longer
	// than lookupBits bits or unassigned.
	lookup  [1 << lookupBits]uint16
	minCode [17]int32 // index = code length
	maxCode [17]int32 // -1 when no codes of that length
	valPtr  [17]int32
	values  []uint8
}

// init (re)derives the decoder tables from a spec in place, reusing t's
// values buffer — the allocation-free path the pooled decoder relies on.
func (t *decTable) init(spec *HuffmanSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	t.values = append(t.values[:0], spec.Values...)
	t.lookup = [1 << lookupBits]uint16{}
	code := int32(0)
	k := int32(0)
	for length := 1; length <= 16; length++ {
		n := int32(spec.Counts[length-1])
		if n == 0 {
			t.maxCode[length] = -1
			t.minCode[length] = 0
			t.valPtr[length] = 0
		} else {
			t.valPtr[length] = k
			t.minCode[length] = code
			t.maxCode[length] = code + n - 1
		}
		if length <= lookupBits {
			// Every lookupBits-bit window that starts with this code.
			shift := lookupBits - length
			for i := int32(0); i < n; i++ {
				e := uint16(length)<<8 | uint16(t.values[k+i])
				lo := (code + i) << shift
				for j := lo; j < lo+1<<shift; j++ {
					t.lookup[j] = e
				}
			}
		}
		code += n
		k += n
		code <<= 1
	}
	return nil
}

// decode reads one symbol from the bit stream. Codes of up to lookupBits
// bits cost one table read; a code that needs bits past a marker or the
// end of input fails with the reader's pending error, as a
// bit-at-a-time walk would.
func (t *decTable) decode(br *bitio.Reader) (uint8, error) {
	bits, n := br.Peek16()
	if e := t.lookup[bits>>(16-lookupBits)]; e != 0 {
		if l := uint(e >> 8); l <= n {
			br.Skip(l)
			return uint8(e), nil
		}
		return 0, br.Fail()
	}
	return t.decodeLong(br, bits, n)
}

// fused matches the code at the head of bits — the next 32 bits of the
// stream, n of them real (Peek32) — together with the magnitude bits
// that follow it, when both are at hand: the code is in the lookup table
// and its s magnitude bits, s = symbol & sizeMask (at most 16), are
// real too. It returns the symbol, the number of bits the two take and
// the magnitude bits (0 when s is 0). Otherwise used is 0, and the caller
// decodes the code and reads the magnitude separately.
func (t *decTable) fused(bits uint32, n uint, sizeMask uint8) (sym uint8, used uint, mag uint32) {
	e := t.lookup[bits>>(32-lookupBits)]
	l, s := uint(e>>8), uint(uint8(e)&sizeMask)
	if e == 0 || s > 16 || l+s > n {
		return 0, 0, 0
	}
	return uint8(e), l + s, uint32(uint64(bits<<l) >> ((32 - s) & 63))
}

// decodeLong finishes a code longer than lookupBits bits with the
// canonical MAXCODE walk over the peeked bits, n of them real.
func (t *decTable) decodeLong(br *bitio.Reader, bits uint32, n uint) (uint8, error) {
	for l := lookupBits + 1; l <= 16; l++ {
		if uint(l) > n {
			return 0, br.Fail()
		}
		code := int32(bits >> (16 - l))
		if code <= t.maxCode[l] && code >= t.minCode[l] {
			br.Skip(uint(l))
			return t.values[t.valPtr[l]+code-t.minCode[l]], nil
		}
	}
	br.Skip(16)
	return 0, fmt.Errorf("jpegcodec: invalid huffman code (no symbol within 16 bits)")
}

// BuildOptimizedSpec constructs a length-limited (≤16 bit) Huffman table
// from symbol frequencies, following the IJG/Annex-K.2 procedure: a
// reserved pseudo-symbol guarantees no real symbol is assigned the all-ones
// code, and over-long codes are shortened by the standard BITS adjustment.
func BuildOptimizedSpec(freq *[256]int64) (*HuffmanSpec, error) {
	// freq2 includes the reserved symbol 256 with frequency 1.
	var freq2 [257]int64
	used := 0
	for i, f := range freq {
		if f < 0 {
			return nil, fmt.Errorf("jpegcodec: negative frequency for symbol %d", i)
		}
		freq2[i] = f
		if f > 0 {
			used++
		}
	}
	if used == 0 {
		return nil, fmt.Errorf("jpegcodec: no symbols to code")
	}
	freq2[256] = 1

	codesize := make([]int, 257)
	others := make([]int, 257)
	for i := range others {
		others[i] = -1
	}

	// Iteratively merge the two least-frequent "trees".
	for {
		// c1: least frequent symbol with nonzero freq; ties broken by the
		// larger symbol value (IJG convention, keeps symbol 256 longest).
		c1 := -1
		var v int64 = 1 << 62
		for i := 0; i <= 256; i++ {
			if freq2[i] > 0 && freq2[i] <= v {
				v = freq2[i]
				c1 = i
			}
		}
		// c2: next least frequent, distinct from c1.
		c2 := -1
		v = 1 << 62
		for i := 0; i <= 256; i++ {
			if i != c1 && freq2[i] > 0 && freq2[i] <= v {
				v = freq2[i]
				c2 = i
			}
		}
		if c2 < 0 {
			break // one tree left: done
		}
		freq2[c1] += freq2[c2]
		freq2[c2] = 0
		codesize[c1]++
		for others[c1] >= 0 {
			c1 = others[c1]
			codesize[c1]++
		}
		others[c1] = c2
		codesize[c2]++
		for others[c2] >= 0 {
			c2 = others[c2]
			codesize[c2]++
		}
	}

	// Count codes per length; lengths may exceed 16 at this point.
	var bits [60]int // generous upper bound on code length
	maxLen := 0
	for i := 0; i <= 256; i++ {
		if codesize[i] > 0 {
			if codesize[i] >= len(bits) {
				return nil, fmt.Errorf("jpegcodec: huffman code length %d out of range", codesize[i])
			}
			bits[codesize[i]]++
			if codesize[i] > maxLen {
				maxLen = codesize[i]
			}
		}
	}

	// Limit code lengths to 16 (Annex K.2 adjustment): repeatedly take a
	// pair of over-long codes and re-root them under a shorter prefix.
	for l := maxLen; l > 16; l-- {
		for bits[l] > 0 {
			// Find the longest length < l with at least one code.
			j := l - 2
			for bits[j] == 0 {
				j--
			}
			bits[l] -= 2
			bits[l-1]++
			bits[j+1] += 2
			bits[j]--
		}
	}

	// Remove the reserved symbol: it holds the longest code.
	for l := 16; l >= 1; l-- {
		if bits[l] > 0 {
			bits[l]--
			break
		}
	}

	// Emit symbols sorted by (codesize, symbol value).
	type sym struct {
		v    int
		size int
	}
	var syms []sym
	for i := 0; i < 256; i++ {
		if codesize[i] > 0 {
			syms = append(syms, sym{v: i, size: codesize[i]})
		}
	}
	sort.Slice(syms, func(a, b int) bool {
		if syms[a].size != syms[b].size {
			return syms[a].size < syms[b].size
		}
		return syms[a].v < syms[b].v
	})

	spec := &HuffmanSpec{}
	total := 0
	for l := 1; l <= 16; l++ {
		spec.Counts[l-1] = uint8(bits[l])
		total += bits[l]
	}
	if total != len(syms) {
		return nil, fmt.Errorf("jpegcodec: internal: bits total %d != symbol count %d", total, len(syms))
	}
	for _, s := range syms {
		spec.Values = append(spec.Values, uint8(s.v))
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("jpegcodec: optimized spec invalid: %w", err)
	}
	return spec, nil
}
