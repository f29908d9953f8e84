// Package bitio provides MSB-first bit-level readers and writers with the
// byte-stuffing semantics required by JPEG entropy-coded segments.
//
// JPEG entropy-coded data is a big-endian bit stream in which any 0xFF byte
// produced by the coder must be followed by a stuffed 0x00 byte so that
// decoders can distinguish data from marker prefixes (ITU-T T.81 §B.1.1.5).
// Writer performs that stuffing transparently; Reader removes it, looks
// ahead up to 8 bytes but never past a marker, and stops cleanly at the
// first marker it encounters.
package bitio

import (
	"errors"
	"fmt"
	"io"
)

// ErrMarker is returned by Reader when the underlying stream reaches a JPEG
// marker (0xFF followed by a non-zero, non-fill byte) instead of more
// entropy-coded data.
var ErrMarker = errors.New("bitio: encountered JPEG marker in entropy data")

// Writer accumulates bits MSB-first and flushes them to an io.Writer.
// The zero value is not usable; construct with NewWriter.
type Writer struct {
	w    io.Writer
	acc  uint32 // bit accumulator, bits occupy the low `nacc` positions
	nacc uint   // number of valid bits in acc
	buf  []byte // pending output bytes
}

// NewWriter returns a Writer that performs JPEG byte stuffing.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 4096)}
}

// Reset discards all buffered state and redirects the Writer to w,
// keeping the allocated output buffer. It lets callers pool Writers
// across encodes.
func (bw *Writer) Reset(w io.Writer) {
	bw.w = w
	bw.acc = 0
	bw.nacc = 0
	bw.buf = bw.buf[:0]
}

// WriteBits appends the low n bits of v to the stream, most significant bit
// first. n must be in [0, 24]; larger writes must be split by the caller.
func (bw *Writer) WriteBits(v uint32, n uint) error {
	if n > 24 {
		return fmt.Errorf("bitio: WriteBits length %d exceeds 24", n)
	}
	if n == 0 {
		return nil
	}
	v &= (1 << n) - 1
	bw.acc = bw.acc<<n | v
	bw.nacc += n
	for bw.nacc >= 8 {
		bw.nacc -= 8
		b := byte(bw.acc >> bw.nacc)
		bw.emit(b)
	}
	return nil
}

func (bw *Writer) emit(b byte) {
	bw.buf = append(bw.buf, b)
	if b == 0xFF {
		bw.buf = append(bw.buf, 0x00)
	}
}

// Pad completes the final partial byte with 1-bits (the JPEG convention,
// which makes padding decode as a fill prefix of a marker) without
// flushing, so a segment encoder can take the finished bytes with Bytes
// and stitch them between restart markers itself.
func (bw *Writer) Pad() {
	if bw.nacc > 0 {
		pad := 8 - bw.nacc
		bw.acc = bw.acc<<pad | ((1 << pad) - 1)
		bw.nacc = 0
		bw.emit(byte(bw.acc))
	}
}

// Bytes returns the pending output bytes accumulated since the last Reset
// or Flush. The slice aliases the Writer's internal buffer and is
// invalidated by the next WriteBits, Pad, Flush or Reset.
func (bw *Writer) Bytes() []byte { return bw.buf }

// Flush pads the final partial byte with 1-bits and writes all pending
// bytes to the underlying writer.
func (bw *Writer) Flush() error {
	bw.Pad()
	if len(bw.buf) > 0 {
		if _, err := bw.w.Write(bw.buf); err != nil {
			return err
		}
		bw.buf = bw.buf[:0]
	}
	return nil
}

// Reader consumes an MSB-first bit stream, removing JPEG byte stuffing.
// The zero value is not usable; construct with NewReader.
//
// Reader looks ahead: it keeps up to 8 bytes of de-stuffed data in a
// 64-bit accumulator, topped up a whole byte at a time, so a Huffman
// decoder can inspect the next bits before deciding how many to take
// (Peek16, Skip). The lookahead never reads past a marker. When it
// reaches one — or the end of input, or an error from the source — it
// stops there and holds that outcome pending, and a read returns it only
// once the read needs more bits than are really buffered. So every read
// succeeds or fails exactly as it would on a reader that fetched one
// byte at a time, and the marker that ends a scan is still the next
// thing ReadMarker reports.
type Reader struct {
	r     io.ByteReader
	acc   uint64 // buffered bits, MSB-aligned: the next bit is bit 63, the bits below the valid ones are zero
	nbits uint   // number of valid bits in acc
	// err is why the lookahead stopped: ErrMarker (marker holds the
	// code), the source's error (io.EOF at the end of input), or nil
	// while more input may follow.
	err    error
	marker byte
	// dangling records that the lookahead consumed a 0xFF (fill run)
	// that the end of input cut off before its marker code.
	dangling bool
	sr       sliceReader // built-in source for ResetBytes
}

// sliceReader is the Reader's built-in byte source for ResetBytes: a
// cursor over a caller-owned slice, so segment-bounded reading costs no
// bytes.Reader allocation per segment.
type sliceReader struct {
	b []byte
	i int
}

func (sr *sliceReader) ReadByte() (byte, error) {
	if sr.i >= len(sr.b) {
		return 0, io.EOF
	}
	b := sr.b[sr.i]
	sr.i++
	return b, nil
}

// NewReader returns a Reader that removes JPEG byte stuffing and stops at
// markers.
func NewReader(r io.ByteReader) *Reader {
	return &Reader{r: r}
}

// Reset discards all buffered bits and any pending marker or error and
// redirects the Reader to r. It lets callers pool Readers across
// entropy-coded segments.
func (br *Reader) Reset(r io.ByteReader) {
	br.r = r
	br.clear()
	br.sr = sliceReader{}
}

// ResetBytes is Reset reading from a byte slice through the Reader's
// internal cursor. It is the segment-bounded mode sharded decoding uses:
// one restart segment per ResetBytes, no per-segment allocation, and
// Exhausted reports whether the segment was consumed completely.
func (br *Reader) ResetBytes(b []byte) {
	br.clear()
	br.sr = sliceReader{b: b}
	br.r = &br.sr
}

func (br *Reader) clear() {
	br.acc, br.nbits = 0, 0
	br.err, br.marker, br.dangling = nil, 0, false
}

// Exhausted reports whether a ResetBytes Reader has consumed its whole
// slice with fewer than 8 buffered bits remaining — i.e. nothing is left
// but (at most) the final byte's padding bits. A restart segment that
// finishes its MCU quota while whole bytes remain holds trailing data a
// sequential decoder would trip over at the next marker, so sharded
// decoding uses this as its segment-completeness check. Bytes the
// lookahead fetched but no read consumed count as remaining. Only
// meaningful after ResetBytes.
func (br *Reader) Exhausted() bool {
	return br.r == &br.sr && br.sr.i == len(br.sr.b) && br.nbits < 8 && br.marker == 0 && !br.dangling
}

// fill tops the accumulator up a whole byte at a time until it holds
// more than 56 bits or the lookahead stops at a marker, the end of input
// or a source error, which it records in err.
func (br *Reader) fill() {
	for br.nbits <= 56 && br.err == nil {
		b, err := br.r.ReadByte()
		if err != nil {
			br.err = err
			return
		}
		if b == 0xFF {
			// Distinguish stuffed data (FF 00) from a marker, skipping
			// any run of 0xFF fill bytes (T.81 B.1.1.2).
			b, err = br.r.ReadByte()
			for err == nil && b == 0xFF {
				b, err = br.r.ReadByte()
			}
			if err != nil {
				br.err, br.dangling = err, true
				return
			}
			if b != 0x00 {
				br.err, br.marker = ErrMarker, b
				return
			}
			b = 0xFF
		}
		br.acc |= uint64(b) << (56 - br.nbits)
		br.nbits += 8
	}
}

// Fail reports why the input stopped — ErrMarker, io.EOF or the source's
// error — to a caller that needs more bits than Peek16 found buffered,
// and consumes the buffered bits, as a read that runs past them does.
func (br *Reader) Fail() error {
	br.acc, br.nbits = 0, 0
	return br.err
}

// Peek16 returns the next 16 bits MSB-first without consuming them,
// together with the number n of bits really buffered (n ≥ 16 means all
// 16 are data). Past a marker or the end of input the lookahead is
// zero-filled, so a prefix code no longer than n bits can be matched
// against it exactly.
func (br *Reader) Peek16() (bits uint32, n uint) {
	if br.nbits < 16 {
		br.fill()
	}
	return uint32(br.acc >> 48), br.nbits
}

// Skip consumes n bits, which the last Peek16 must have reported real.
func (br *Reader) Skip(n uint) {
	br.acc <<= n
	br.nbits -= n
}

// ReadBits reads n bits (n ≤ 24) MSB-first and returns them in the low bits
// of the result. It returns ErrMarker when a JPEG marker interrupts the
// stream and io.EOF at end of input; either way the buffered bits are
// consumed.
func (br *Reader) ReadBits(n uint) (uint32, error) {
	if n > 24 || br.nbits < n {
		return br.readBitsSlow(n)
	}
	v := uint32(br.acc >> (64 - n))
	br.acc <<= n
	br.nbits -= n
	return v, nil
}

func (br *Reader) readBitsSlow(n uint) (uint32, error) {
	if n > 24 {
		return 0, fmt.Errorf("bitio: ReadBits length %d exceeds 24", n)
	}
	br.fill()
	if br.nbits < n {
		return 0, br.Fail()
	}
	v := uint32(br.acc >> (64 - n))
	br.acc <<= n
	br.nbits -= n
	return v, nil
}

// ReadBit reads a single bit.
func (br *Reader) ReadBit() (uint32, error) { return br.ReadBits(1) }

// Marker returns the marker code (the byte following 0xFF) that terminated
// the stream, valid only after a read returned ErrMarker.
func (br *Reader) Marker() byte { return br.marker }

// Align discards the rest of a partially read byte so that subsequent
// reads start at the next byte boundary.
func (br *Reader) Align() {
	k := br.nbits % 8
	br.acc <<= k
	br.nbits -= k
}

// ReadMarker aligns to a byte boundary and consumes the next JPEG marker,
// returning its code. A marker the lookahead already reached is returned
// without consuming input. If whole data bytes are still buffered, the
// next one is consumed and reported as an error, because a byte of data
// stands where the marker should be.
func (br *Reader) ReadMarker() (byte, error) {
	br.Align()
	if br.nbits > 0 {
		b := byte(br.acc >> 56)
		br.Skip(8)
		if b == 0xFF {
			return 0, errors.New("bitio: stuffed byte where marker expected")
		}
		return 0, fmt.Errorf("bitio: expected marker, found byte %#02x", b)
	}
	if br.marker != 0 {
		m := br.marker
		br.clear()
		return m, nil
	}
	if br.err != nil {
		return 0, br.err
	}
	b, err := br.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if b != 0xFF {
		return 0, fmt.Errorf("bitio: expected marker, found byte %#02x", b)
	}
	for b == 0xFF {
		b, err = br.r.ReadByte()
		if err != nil {
			return 0, err
		}
	}
	if b == 0x00 {
		return 0, errors.New("bitio: stuffed byte where marker expected")
	}
	return b, nil
}
