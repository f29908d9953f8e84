package bitio

// The word-wide Reader and Writer checked against byte-at-a-time oracles:
// the reader and the writer this package had before it moved machine
// words. The oracle reader fetches the next byte only when a read needs
// its bits; the oracle writer emits each byte as it completes. Every
// read, marker, error and output byte must come out the same, however
// far the lookahead ran ahead and however many bytes a store took.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// serialReader is the reader oracle: an MSB-first reader over a byte
// slice that removes JPEG byte stuffing and never holds more than the
// bits of the byte it is in.
type serialReader struct {
	b      []byte
	i      int
	acc    uint32
	nacc   uint
	marker byte
}

func (br *serialReader) readByte() (byte, error) {
	if br.i >= len(br.b) {
		return 0, io.EOF
	}
	b := br.b[br.i]
	br.i++
	return b, nil
}

func (br *serialReader) exhausted() bool {
	return br.i == len(br.b) && br.nacc < 8 && br.marker == 0
}

func (br *serialReader) readBits(n uint) (uint32, error) {
	if n > 24 {
		return 0, fmt.Errorf("bitio: ReadBits length %d exceeds 24", n)
	}
	for br.nacc < n {
		b, err := br.nextByte()
		if err != nil {
			return 0, err
		}
		br.acc = br.acc<<8 | uint32(b)
		br.nacc += 8
	}
	br.nacc -= n
	return (br.acc >> br.nacc) & ((1 << n) - 1), nil
}

func (br *serialReader) nextByte() (byte, error) {
	b, err := br.readByte()
	if err != nil {
		return 0, err
	}
	if b != 0xFF {
		return b, nil
	}
	b2, err := br.readByte()
	if err != nil {
		return 0, err
	}
	for b2 == 0xFF {
		if b2, err = br.readByte(); err != nil {
			return 0, err
		}
	}
	if b2 == 0x00 {
		return 0xFF, nil
	}
	br.marker = b2
	return 0, ErrMarker
}

func (br *serialReader) align() { br.nacc, br.acc = 0, 0 }

func (br *serialReader) readMarker() (byte, error) {
	br.align()
	if br.marker != 0 {
		m := br.marker
		br.marker = 0
		return m, nil
	}
	b, err := br.readByte()
	if err != nil {
		return 0, err
	}
	if b != 0xFF {
		return 0, fmt.Errorf("bitio: expected marker, found byte %#02x", b)
	}
	for b == 0xFF {
		if b, err = br.readByte(); err != nil {
			return 0, err
		}
	}
	if b == 0x00 {
		return 0, errors.New("bitio: stuffed byte where marker expected")
	}
	return b, nil
}

// serialWriter is the writer oracle: a 32-bit accumulator that emits
// each byte, stuffed, as soon as it completes.
type serialWriter struct {
	acc  uint32
	nacc uint
	buf  []byte
}

func (bw *serialWriter) writeBits(v uint32, n uint) {
	for n > 24 { // the oracle takes at most 24 bits at a time
		n -= 16
		bw.writeBits(v>>n, 16)
	}
	v &= (1 << n) - 1
	bw.acc = bw.acc<<n | v
	bw.nacc += n
	for bw.nacc >= 8 {
		bw.nacc -= 8
		bw.emit(byte(bw.acc >> bw.nacc))
	}
}

func (bw *serialWriter) emit(b byte) {
	bw.buf = append(bw.buf, b)
	if b == 0xFF {
		bw.buf = append(bw.buf, 0x00)
	}
}

func (bw *serialWriter) pad() {
	if bw.nacc > 0 {
		pad := 8 - bw.nacc
		bw.acc = bw.acc<<pad | ((1 << pad) - 1)
		bw.nacc = 0
		bw.emit(byte(bw.acc))
	}
}

// oracleStream builds a random entropy-coded-looking stream: data bytes
// (0xFF stuffed, sometimes behind fill bytes), markers with and without
// fill runs, and an ending that is a plain end of input, a dangling
// 0xFF run or a marker.
func oracleStream(rng *rand.Rand) []byte {
	var s []byte
	for n := rng.Intn(40); n > 0; n-- {
		switch k := rng.Intn(20); {
		case k < 14:
			s = append(s, byte(rng.Intn(256)))
		case k < 16:
			s = append(s, 0xFF, 0x00)
		case k == 16:
			s = append(s, 0xFF, 0xFF, 0x00)
		case k == 17:
			s = append(s, 0xFF, byte(0xD0+rng.Intn(8)))
		case k == 18:
			s = append(s, 0xFF, 0xFF, 0xD9)
		default:
			s = append(s, 0xFF, byte(1+rng.Intn(0xFE)))
		}
	}
	switch rng.Intn(4) {
	case 0:
		s = append(s, 0xFF)
	case 1:
		s = append(s, 0xFF, 0xFF)
	case 2:
		s = append(s, 0xFF, 0xD9)
	}
	return s
}

// sameErr reports whether two read errors agree: the same sentinel, or
// the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a == b || a.Error() == b.Error()
}

// Script operations for runReaderScript: each step is two bytes, the
// operation (mod 20) and its argument.
const (
	opReadBits = 1  // ..10: ReadBits(arg mod 25); 0 reads 25..32 bits
	opPeek16   = 11 // ..12: Peek16, then Skip(arg mod (real bits + 1))
	opPeek32   = 13 // ..14: Peek32, then Skip likewise
	opAlign    = 15 // ..16
	opMarker   = 17 // ..19: ReadMarker
)

// runReaderScript drives a Reader and the oracle over stream through the
// same script and reports the first step where values, errors, markers,
// Exhausted or, after a marker read, the consumed offset disagree. After
// a failed read only ReadMarker follows, as in the decoder: reading on
// past an error is unspecified. It stops at the first io.EOF from
// ReadMarker.
func runReaderScript(stream, script []byte) error {
	got := NewReader(stream)
	want := &serialReader{b: stream}
	failed := false
	for step := 0; step+1 < len(script); step += 2 {
		op, arg := int(script[step]%20), uint(script[step+1])
		if failed {
			op = opMarker
		}
		switch {
		case op < opPeek16:
			n := arg % 25
			if op == 0 {
				n = 25 + arg%8
			}
			gv, gerr := got.ReadBits(n)
			wv, werr := want.readBits(n)
			if gv != wv || !sameErr(gerr, werr) {
				return fmt.Errorf("step %d: ReadBits(%d) = %#x, %v; oracle %#x, %v", step, n, gv, gerr, wv, werr)
			}
			if errors.Is(gerr, ErrMarker) && got.marker != want.marker {
				return fmt.Errorf("step %d: marker %#x, oracle %#x", step, got.marker, want.marker)
			}
			failed = gerr != nil && n <= 24
		case op < opAlign:
			var bits uint32
			var n, width uint
			if op < opPeek32 {
				bits, n = got.Peek16()
				width = 16
			} else {
				bits, n = got.Peek32()
				width = 32
			}
			real := min(n, width)
			if real < width && bits&(1<<(width-real)-1) != 0 {
				return fmt.Errorf("step %d: peek %#x with %d of %d bits real, want zero fill", step, bits, real, width)
			}
			k := arg % (real + 1)
			got.Skip(k)
			hi, herr := want.readBits(k / 2)
			lo, lerr := want.readBits(k - k/2)
			if herr != nil || lerr != nil || hi<<(k-k/2)|lo != bits>>(width-k) {
				return fmt.Errorf("step %d: peek %#x (%d real), Skip(%d); oracle read %#x %#x, %v %v",
					step, bits, n, k, hi, lo, herr, lerr)
			}
		case op < opMarker:
			got.Align()
			want.align()
		default:
			gm, gerr := got.ReadMarker()
			wm, werr := want.readMarker()
			if gm != wm || !sameErr(gerr, werr) {
				return fmt.Errorf("step %d: ReadMarker = %#x, %v; oracle %#x, %v", step, gm, gerr, wm, werr)
			}
			if errors.Is(gerr, io.EOF) {
				return nil
			}
			if gerr == nil && got.Offset() != want.i {
				return fmt.Errorf("step %d: Offset %d after a marker, oracle %d", step, got.Offset(), want.i)
			}
			failed = false
		}
		if !failed && got.Exhausted() != want.exhausted() {
			return fmt.Errorf("step %d: Exhausted = %v, oracle %v", step, got.Exhausted(), want.exhausted())
		}
	}
	return nil
}

// TestReaderOracle drives the Reader and the oracle through the same
// random operations — reads of 0..24 bits and over-long reads,
// Peek16+Skip, Peek32+Skip, Align and ReadMarker — on random streams.
// Values, errors, markers and Exhausted must agree at every step.
func TestReaderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20000; trial++ {
		stream := oracleStream(rng)
		script := make([]byte, 120)
		rng.Read(script)
		if err := runReaderScript(stream, script); err != nil {
			t.Fatalf("trial %d, stream % X: %v", trial, stream, err)
		}
	}
}

// TestReaderRefillOracle puts each event the 8-byte refill must not
// swallow — a stuffed 0xFF, a fill run before a stuffed byte, a marker,
// a marker behind a fill run, a dangling 0xFF, the end of input — at
// every offset of the refill window, from every bit alignment, and
// holds the Reader to the oracle across it. Plain bytes fill the rest,
// so the word-wide refill runs right up to the event.
func TestReaderRefillOracle(t *testing.T) {
	events := map[string][]byte{
		"stuffed":      {0xFF, 0x00},
		"fill-stuffed": {0xFF, 0xFF, 0x00},
		"marker":       {0xFF, 0xD3},
		"fill-marker":  {0xFF, 0xFF, 0xFF, 0xD9},
		"dangling":     {0xFF},
		"dangling-run": {0xFF, 0xFF},
		"end":          nil,
	}
	plain := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(0x11 * (i%14 + 1)) // never 0xFF
		}
		return b
	}
	for name, ev := range events {
		for before := 0; before < 24; before++ {
			stream := append(append(plain(before), ev...), plain(11)...)
			for lead := 0; lead < 32; lead++ {
				// Read lead bits first, so the refill starts from every
				// alignment; then walk the stream in reads of each width,
				// then peek-and-skip it, ending in a marker read.
				for width := 1; width <= 24; width += 5 {
					script := []byte{opReadBits, byte(lead / 2), opReadBits, byte(lead - lead/2)}
					for range 40 {
						script = append(script, opReadBits, byte(width))
					}
					script = append(script, opMarker, 0)
					for range 20 {
						script = append(script, opPeek32, 255, opPeek16, byte(width))
					}
					script = append(script, opMarker, 0)
					if err := runReaderScript(stream, script); err != nil {
						t.Fatalf("%s after %d bytes, lead %d, width %d (stream % X): %v",
							name, before, lead, width, stream, err)
					}
				}
			}
		}
	}
}

// TestWriterOracle holds Put, WriteBits, Pad and Flush to the
// byte-at-a-time oracle: random put sequences of 0..32 bits, rich in
// all-ones values so 0xFF bytes and 0xFF runs keep crossing the 4-byte
// stores; 0xFF placed at each byte position of a store from every bit
// alignment; and Pad or Flush after every number of pending bits.
func TestWriterOracle(t *testing.T) {
	check := func(name string, puts [][2]uint32) {
		t.Helper()
		var flushed bytes.Buffer
		got, padded := NewWriter(&flushed), NewWriter(io.Discard)
		want := &serialWriter{}
		for _, p := range puts {
			v, n := p[0], uint(p[1])
			if n <= 24 && v&1 == 0 {
				if err := got.WriteBits(v, n); err != nil {
					t.Fatal(err)
				}
			} else {
				got.Put(v&(1<<n-1), n)
			}
			padded.Put(v&(1<<n-1), n)
			want.writeBits(v, n)
		}
		want.pad()
		if err := got.Flush(); err != nil {
			t.Fatal(err)
		}
		padded.Pad()
		if !bytes.Equal(flushed.Bytes(), want.buf) || !bytes.Equal(padded.Bytes(), want.buf) {
			t.Fatalf("%s: puts %v\nFlush % X\nPad   % X\noracle % X", name, puts, flushed.Bytes(), padded.Bytes(), want.buf)
		}
	}

	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 5000; trial++ {
		puts := make([][2]uint32, rng.Intn(40))
		for i := range puts {
			n := uint32(rng.Intn(33))
			v := rng.Uint32()
			if rng.Intn(3) == 0 {
				v = ^uint32(0)
			}
			puts[i] = [2]uint32{v, n}
		}
		check(fmt.Sprintf("random trial %d", trial), puts)
	}
	for lead := uint32(0); lead < 64; lead++ {
		// lead bits, then one 0xFF byte: over lead = 0..31 it lands at
		// every byte position of a store, at every bit alignment.
		check(fmt.Sprintf("FF after %d bits", lead), [][2]uint32{{0, lead / 2}, {0x2A, lead - lead/2}, {0xFF, 8}, {0x1234, 16}, {0, 9}})
		// A 0xFF run of 6 bytes crosses a store boundary from every
		// alignment.
		check(fmt.Sprintf("FF run after %d bits", lead), [][2]uint32{{0, lead / 2}, {1, lead - lead/2}, {^uint32(0), 32}, {0xFFFF, 16}, {0x7F, 7}})
		// Pad and Flush after every count of pending bits, across two
		// stores.
		check(fmt.Sprintf("%d bits then pad", lead), [][2]uint32{{0x5A5A5A5A, lead / 2}, {0xFFFFFFFF, lead - lead/2}})
	}
}
