package bitio

// The lookahead Reader checked against a byte-at-a-time oracle: the
// reader this package had before the accumulator, which fetched the
// next byte only when a read needed its bits. Every read, marker and
// error must come out the same, however far the lookahead ran ahead.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// serialReader is the oracle: an MSB-first reader that removes JPEG
// byte stuffing and never holds more than the bits of the byte it is in.
type serialReader struct {
	r      io.ByteReader
	acc    uint32
	nacc   uint
	marker byte
	sr     sliceReader
}

func (br *serialReader) resetBytes(b []byte) {
	*br = serialReader{sr: sliceReader{b: b}}
	br.r = &br.sr
}

func (br *serialReader) exhausted() bool {
	return br.r == &br.sr && br.sr.i == len(br.sr.b) && br.nacc < 8 && br.marker == 0
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
	b, err := br.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if b != 0xFF {
		return b, nil
	}
	b2, err := br.r.ReadByte()
	if err != nil {
		return 0, err
	}
	for b2 == 0xFF {
		if b2, err = br.r.ReadByte(); err != nil {
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
	b, err := br.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if b != 0xFF {
		return 0, fmt.Errorf("bitio: expected marker, found byte %#02x", b)
	}
	for b == 0xFF {
		if b, err = br.r.ReadByte(); err != nil {
			return 0, err
		}
	}
	if b == 0x00 {
		return 0, errors.New("bitio: stuffed byte where marker expected")
	}
	return b, nil
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

// TestReaderOracle drives the Reader and the oracle through the same
// random operations — reads of 0..24 bits and over-long reads, single
// bits, Peek16+Skip, Align and ReadMarker — on random streams, from an
// io.ByteReader and from ResetBytes. Values, errors, markers and
// Exhausted must agree at every step. After a failed read only
// ReadMarker follows: reading on past an error is unspecified.
func TestReaderOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
trials:
	for trial := 0; trial < 20000; trial++ {
		stream := oracleStream(rng)
		slice := trial%2 == 0
		got := &Reader{}
		want := &serialReader{}
		if slice {
			got.ResetBytes(stream)
			want.resetBytes(stream)
		} else {
			got.Reset(bytes.NewReader(stream))
			want.r = bytes.NewReader(stream)
		}
		failed := false
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (stream % X, slice %v) step %d: %s",
				trial, stream, slice, step, fmt.Sprintf(format, args...))
		}
		for step := 0; step < 60; step++ {
			op := rng.Intn(20)
			if failed {
				op = 19
			}
			switch {
			case op < 12:
				n := uint(rng.Intn(25))
				if op == 0 {
					n = 25 + uint(rng.Intn(8))
				}
				gv, gerr := got.ReadBits(n)
				wv, werr := want.readBits(n)
				if gv != wv || !sameErr(gerr, werr) {
					fail(step, "ReadBits(%d) = %#x, %v; oracle %#x, %v", n, gv, gerr, wv, werr)
				}
				if errors.Is(gerr, ErrMarker) && got.Marker() != want.marker {
					fail(step, "Marker %#x, oracle %#x", got.Marker(), want.marker)
				}
				failed = gerr != nil && n <= 24
			case op < 15:
				bits, n := got.Peek16()
				if n < 16 && bits&(1<<(16-n)-1) != 0 {
					fail(step, "Peek16 = %#04x with %d real bits, want zero fill", bits, n)
				}
				k := uint(rng.Intn(int(min(n, 16)) + 1))
				got.Skip(k)
				wv, werr := want.readBits(k)
				if werr != nil || wv != bits>>(16-k) {
					fail(step, "Peek16 %#04x (%d real), Skip(%d); oracle read %#x, %v", bits, n, k, wv, werr)
				}
			case op < 17:
				got.Align()
				want.align()
			default:
				gm, gerr := got.ReadMarker()
				wm, werr := want.readMarker()
				if gm != wm || !sameErr(gerr, werr) {
					fail(step, "ReadMarker = %#x, %v; oracle %#x, %v", gm, gerr, wm, werr)
				}
				if errors.Is(gerr, io.EOF) {
					continue trials
				}
				failed = false
			}
			if slice && !failed && got.Exhausted() != want.exhausted() {
				fail(step, "Exhausted = %v, oracle %v", got.Exhausted(), want.exhausted())
			}
		}
	}
}
