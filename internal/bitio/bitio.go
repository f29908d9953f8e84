// Package bitio provides MSB-first bit-level readers and writers with the
// byte-stuffing semantics required by JPEG entropy-coded segments.
//
// JPEG entropy-coded data is a big-endian bit stream in which any 0xFF byte
// produced by the coder must be followed by a stuffed 0x00 byte so that
// decoders can distinguish data from marker prefixes (ITU-T T.81 §B.1.1.5).
// Writer performs that stuffing transparently; Reader removes it, looks
// ahead up to 8 bytes but never past a marker, and stops cleanly at the
// first marker it encounters.
//
// Both sides move machine words where the data allows it. Writer keeps a
// 64-bit accumulator, takes up to 32 bits per Put and appends each full
// 4-byte word to its buffer as it stands; Pad then inserts the 0x00
// after every 0xFF of the words since the last Pad in one pass, so Put
// has no stuffing branch and inlines. Reader parses a byte slice and
// refills 8 bytes at once when none of them is 0xFF. A word that holds a
// 0xFF — stuffing, fill bytes or a marker — takes the byte-at-a-time
// path, so the stream's bytes and every read's outcome are exactly those
// of a coder that moves one byte at a time.
package bitio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// ErrMarker is returned by Reader when the underlying stream reaches a JPEG
// marker (0xFF followed by a non-zero, non-fill byte) instead of more
// entropy-coded data.
var ErrMarker = errors.New("bitio: encountered JPEG marker in entropy data")

// Lane masks for the SWAR 0xFF test: x holds a 0xFF byte exactly when
// ^x holds a zero byte, and v has a zero byte exactly when
// (v - lo) & ^v & hi is nonzero.
const (
	lo64 = 0x0101010101010101
	hi64 = 0x8080808080808080
)

// Writer accumulates bits MSB-first and flushes them to an io.Writer.
// The zero value is not usable; construct with NewWriter.
type Writer struct {
	w    io.Writer
	acc  uint64 // bit accumulator: the pending bits are its low nacc bits
	nacc uint   // number of pending bits, < 32 between calls
	buf  []byte // pending output bytes; those from clean on are not yet stuffed
	// clean is the length of buf's stuffed prefix: Put appends whole
	// words unstuffed, and stuff inserts their 0x00s.
	clean int
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
	bw.clean = 0
}

// WriteBits appends the low n bits of v to the stream, most significant bit
// first. n must be in [0, 24]; larger writes must be split by the caller.
func (bw *Writer) WriteBits(v uint32, n uint) error {
	if n > 24 {
		return fmt.Errorf("bitio: WriteBits length %d exceeds 24", n)
	}
	bw.Put(v&(1<<n-1), n)
	return nil
}

// Put appends the n low bits of v, most significant first, with no
// checks: n must be at most 32 and v must be below 1<<n. It is the
// entropy coder's hot path — a Huffman code and the magnitude bits that
// follow it go in one call — and it inlines: a full 4-byte word goes
// into the buffer as it stands, and Pad stuffs it later. The shift
// counts are masked to 6 bits, which they never exceed, so the compiler
// drops its handling of shifts by 64 or more.
func (bw *Writer) Put(v uint32, n uint) {
	bw.acc = bw.acc<<(n&63) | uint64(v)
	bw.nacc += n
	if bw.nacc >= 32 {
		bw.nacc -= 32
		bw.buf = binary.BigEndian.AppendUint32(bw.buf, uint32(bw.acc>>(bw.nacc&63)))
	}
}

// Pad completes the final partial byte with 1-bits (the JPEG convention,
// which makes padding decode as a fill prefix of a marker) without
// flushing, so a segment encoder can take the finished bytes with Bytes
// and stitch them between restart markers itself. The whole bytes still
// in the accumulator go out first, and every byte since the last Pad is
// stuffed.
func (bw *Writer) Pad() {
	for bw.nacc >= 8 {
		bw.nacc -= 8
		bw.buf = append(bw.buf, byte(bw.acc>>bw.nacc))
	}
	if bw.nacc > 0 {
		pad := 8 - bw.nacc
		bw.acc = bw.acc<<pad | (1<<pad - 1)
		bw.nacc = 0
		bw.buf = append(bw.buf, byte(bw.acc))
	}
	bw.stuff()
}

// stuff inserts a 0x00 after every 0xFF in buf[clean:], the bytes
// appended since the last stuff, in place: it counts them, grows buf
// once, and moves the run after each 0xFF right, last run first.
func (bw *Writer) stuff() {
	b := bw.buf
	k := bytes.Count(b[bw.clean:], ff)
	if k > 0 {
		end := len(b)
		b = slices.Grow(b, k)[:end+k]
		for ; k > 0; k-- {
			// The 0xFF at i has k−1 others before it in the unstuffed
			// bytes, so it lands at i+k−1, its 0x00 at i+k, and the run
			// after it moves k bytes right.
			i := bw.clean + bytes.LastIndexByte(b[bw.clean:end], 0xFF)
			copy(b[i+1+k:end+k], b[i+1:end])
			b[i+k-1], b[i+k] = 0xFF, 0x00
			end = i
		}
		bw.buf = b
	}
	bw.clean = len(bw.buf)
}

// ff is the byte that JPEG stuffing follows with a 0x00.
var ff = []byte{0xFF}

// Bytes returns the pending output bytes accumulated since the last Reset
// or Flush, stuffed. Bits still in the accumulator are not included, so
// callers Pad first. The slice aliases the Writer's internal buffer and
// is invalidated by the next Put, WriteBits, Pad, Flush or Reset.
func (bw *Writer) Bytes() []byte {
	bw.stuff()
	return bw.buf
}

// Flush pads the final partial byte with 1-bits and writes all pending
// bytes to the underlying writer.
func (bw *Writer) Flush() error {
	bw.Pad()
	if len(bw.buf) > 0 {
		if _, err := bw.w.Write(bw.buf); err != nil {
			return err
		}
		bw.buf = bw.buf[:0]
		bw.clean = 0
	}
	return nil
}

// Reader consumes an MSB-first bit stream from a byte slice, removing
// JPEG byte stuffing. The zero value reads an empty slice; construct with
// NewReader or Reset.
//
// Reader looks ahead: it keeps up to 8 bytes of de-stuffed data in a
// 64-bit accumulator, so a Huffman decoder can inspect the next bits
// before deciding how many to take (Peek16, Peek32, Skip). When none of
// the next 8 input bytes is 0xFF, a refill loads as many of them as fit
// in one word; otherwise it goes a byte at a time, removing stuffing and
// fill bytes. The lookahead never reads past a marker. When it reaches
// one — or the end of the slice — it stops there and holds that outcome
// pending, and a read returns it only once the read needs more bits than
// are really buffered. So every read succeeds or fails exactly as it
// would on a reader that fetched one byte at a time, and the marker that
// ends a scan is still the next thing ReadMarker reports.
type Reader struct {
	b     []byte // input
	i     int    // next unread index in b
	acc   uint64 // buffered bits, MSB-aligned: the next bit is bit 63, the bits below the valid ones are zero
	nbits uint   // number of valid bits in acc
	// err is why the lookahead stopped: ErrMarker (marker holds the
	// code), io.EOF at the end of the slice, or nil while more input may
	// follow.
	err    error
	marker byte
	// dangling records that the lookahead consumed a 0xFF (fill run)
	// that the end of input cut off before its marker code.
	dangling bool
}

// NewReader returns a Reader over b that removes JPEG byte stuffing and
// stops at markers. The Reader does not copy b.
func NewReader(b []byte) *Reader {
	return &Reader{b: b}
}

// Reset discards all buffered bits and any pending marker or error and
// redirects the Reader to b. It lets callers pool Readers across
// entropy-coded segments with no allocation per segment.
func (br *Reader) Reset(b []byte) {
	*br = Reader{b: b}
}

// Offset returns how many bytes of the slice the Reader has consumed,
// the bytes its lookahead buffered included. Right after ReadMarker
// returns a marker it is the index just past that marker.
func (br *Reader) Offset() int { return br.i }

// Exhausted reports whether the Reader has consumed its whole slice with
// fewer than 8 buffered bits remaining — i.e. nothing is left but (at
// most) the final byte's padding bits. A restart segment that finishes
// its MCU quota while whole bytes remain holds trailing data a
// sequential decoder would trip over at the next marker, so sharded
// decoding uses this as its segment-completeness check. Bytes the
// lookahead fetched but no read consumed count as remaining.
func (br *Reader) Exhausted() bool {
	return br.i == len(br.b) && br.nbits < 8 && br.marker == 0 && !br.dangling
}

// fill tops the accumulator up until it holds more than 56 bits or the
// lookahead stops at a marker or the end of input, which it records in
// err. While the next 8 bytes hold no 0xFF it loads them as one word.
func (br *Reader) fill() {
	for br.nbits <= 56 && br.err == nil {
		if len(br.b)-br.i >= 8 {
			w := binary.BigEndian.Uint64(br.b[br.i:])
			if (^w-lo64)&w&hi64 == 0 {
				// Take the whole bytes that fit; the bits of a byte that
				// only partly fits are cleared, so bits below the valid
				// ones stay zero.
				k := (64 - br.nbits) >> 3
				br.acc |= w >> br.nbits
				br.nbits += k << 3
				br.acc &^= ^uint64(0) >> br.nbits
				br.i += int(k)
				return
			}
		}
		br.fillByte()
	}
}

// fillByte buffers the next de-stuffed byte, or records why there is
// none: the end of input, or a marker, skipping any run of 0xFF fill
// bytes before it (T.81 B.1.1.2).
func (br *Reader) fillByte() {
	if br.i >= len(br.b) {
		br.err = io.EOF
		return
	}
	b := br.b[br.i]
	br.i++
	if b == 0xFF {
		for br.i < len(br.b) && br.b[br.i] == 0xFF {
			br.i++
		}
		if br.i >= len(br.b) {
			br.err, br.dangling = io.EOF, true
			return
		}
		b2 := br.b[br.i]
		br.i++
		if b2 != 0x00 {
			br.err, br.marker = ErrMarker, b2
			return
		}
	}
	br.acc |= uint64(b) << (56 - br.nbits)
	br.nbits += 8
}

// Fail reports why the input stopped — ErrMarker or io.EOF — to a caller
// that needs more bits than Peek16 or Peek32 found buffered, and consumes
// the buffered bits, as a read that runs past them does.
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

// Peek32 is Peek16 for the next 32 bits: enough for a Huffman code of up
// to 16 bits and the up to 16 magnitude bits that follow it.
func (br *Reader) Peek32() (bits uint32, n uint) {
	if br.nbits < 32 {
		br.fill()
	}
	return uint32(br.acc >> 32), br.nbits
}

// Skip consumes n bits, which the last Peek16 or Peek32 must have
// reported real.
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
		br.acc, br.err, br.marker, br.dangling = 0, nil, 0, false
		return m, nil
	}
	if br.err != nil {
		return 0, br.err
	}
	if br.i >= len(br.b) {
		return 0, io.EOF
	}
	b := br.b[br.i]
	br.i++
	if b != 0xFF {
		return 0, fmt.Errorf("bitio: expected marker, found byte %#02x", b)
	}
	for b == 0xFF {
		if br.i >= len(br.b) {
			return 0, io.EOF
		}
		b = br.b[br.i]
		br.i++
	}
	if b == 0x00 {
		return 0, errors.New("bitio: stuffed byte where marker expected")
	}
	return b, nil
}
