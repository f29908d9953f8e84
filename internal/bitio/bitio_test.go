package bitio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteBitsBasic(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// 0b1010_1010 = 0xAA, written as 4+4 bits.
	if err := w.WriteBits(0b1010, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0b1010, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0xAA {
		t.Fatalf("got % X, want AA", got)
	}
}

func TestFlushPadsWithOnes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBits(0, 3); err != nil { // 000 then pad 11111
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0x1F {
		t.Fatalf("got % X, want 1F", got)
	}
}

func TestByteStuffing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteBits(0xFF, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBits(0x12, 8); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xFF, 0x00, 0x12}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("got % X, want % X", buf.Bytes(), want)
	}
}

func TestReaderUnstuffs(t *testing.T) {
	r := NewReader([]byte{0xFF, 0x00, 0x12})
	v, err := r.ReadBits(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFF {
		t.Fatalf("first byte = %#x, want 0xFF", v)
	}
	v, err = r.ReadBits(8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x12 {
		t.Fatalf("second byte = %#x, want 0x12", v)
	}
}

func TestReaderStopsAtMarker(t *testing.T) {
	// Data byte, then an EOI marker (FF D9).
	r := NewReader([]byte{0xAB, 0xFF, 0xD9})
	if v, err := r.ReadBits(8); err != nil || v != 0xAB {
		t.Fatalf("ReadBits = %#x, %v", v, err)
	}
	_, err := r.ReadBits(8)
	if !errors.Is(err, ErrMarker) {
		t.Fatalf("err = %v, want ErrMarker", err)
	}
	if r.marker != 0xD9 {
		t.Fatalf("marker = %#x, want 0xD9", r.marker)
	}
}

func TestReaderSkipsFillBytes(t *testing.T) {
	// FF FF FF D9: run of fill bytes then EOI.
	r := NewReader([]byte{0xFF, 0xFF, 0xFF, 0xD9})
	_, err := r.ReadBits(1)
	if !errors.Is(err, ErrMarker) {
		t.Fatalf("err = %v, want ErrMarker", err)
	}
	if r.marker != 0xD9 {
		t.Fatalf("marker = %#x, want 0xD9", r.marker)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader([]byte{0xA0})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestWriteBitsRejectsWideWrites(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.WriteBits(0, 25); err == nil {
		t.Fatal("expected error for 25-bit write")
	}
	r := NewReader(nil)
	if _, err := r.ReadBits(25); err == nil {
		t.Fatal("expected error for 25-bit read")
	}
}

func TestAlign(t *testing.T) {
	r := NewReader([]byte{0xF0, 0x0F})
	if v, _ := r.ReadBits(4); v != 0xF {
		t.Fatalf("got %#x", v)
	}
	r.Align()
	if v, _ := r.ReadBits(8); v != 0x0F {
		t.Fatalf("after Align got %#x, want 0x0F", v)
	}
}

// TestRoundTripRandom writes random bit groups and reads them back,
// exercising stuffing on random data.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var widths []uint
		var values []uint32
		total := uint(0)
		for i := 0; i < 200; i++ {
			n := uint(rng.Intn(24) + 1)
			widths = append(widths, n)
			values = append(values, rng.Uint32()&((1<<n)-1))
			total += n
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i, n := range widths {
			if err := w.WriteBits(values[i], n); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(buf.Bytes())
		for i, n := range widths {
			v, err := r.ReadBits(n)
			if err != nil {
				t.Fatalf("trial %d read %d: %v", trial, i, err)
			}
			if v != values[i] {
				t.Fatalf("trial %d group %d: got %#x want %#x (width %d)", trial, i, v, values[i], n)
			}
		}
	}
}

// Property: for any byte sequence, writing it through a stuffing writer and
// reading through a stuffing reader is the identity.
func TestPropertyStuffRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, b := range data {
			if err := w.WriteBits(uint32(b), 8); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(buf.Bytes())
		for _, b := range data {
			v, err := r.ReadBits(8)
			if err != nil || v != uint32(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stuffed output never contains 0xFF followed by a byte that is
// neither 0x00 nor another 0xFF (i.e. never forges a marker).
func TestPropertyNoForgedMarkers(t *testing.T) {
	f := func(data []byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, b := range data {
			if err := w.WriteBits(uint32(b), 8); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		out := buf.Bytes()
		for i := 0; i+1 < len(out); i++ {
			if out[i] == 0xFF && out[i+1] != 0x00 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pad+Bytes yields exactly the byte sequence Flush would have
// written, including stuffed bytes — the contract the sharded encoder
// relies on when it stitches segment buffers between restart markers.
func TestPropertyPadBytesMatchesFlush(t *testing.T) {
	f := func(data []byte, tail uint8) bool {
		nTail := uint(tail % 8) // 0..7 trailing bits forcing a partial byte
		var buf bytes.Buffer
		flushed := NewWriter(&buf)
		padded := NewWriter(io.Discard)
		for _, b := range data {
			if err := flushed.WriteBits(uint32(b), 8); err != nil {
				return false
			}
			if err := padded.WriteBits(uint32(b), 8); err != nil {
				return false
			}
		}
		if nTail > 0 {
			v := uint32(tail) & ((1 << nTail) - 1)
			if err := flushed.WriteBits(v, nTail); err != nil {
				return false
			}
			if err := padded.WriteBits(v, nTail); err != nil {
				return false
			}
		}
		if err := flushed.Flush(); err != nil {
			return false
		}
		padded.Pad()
		return bytes.Equal(buf.Bytes(), padded.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPadStuffsPaddedByte(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteBits(0x7F, 7); err != nil { // 1111111 + pad 1 → 0xFF
		t.Fatal(err)
	}
	w.Pad()
	if got := w.Bytes(); !bytes.Equal(got, []byte{0xFF, 0x00}) {
		t.Fatalf("got % X, want FF 00", got)
	}
}

func TestPadOnByteBoundaryIsNoop(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteBits(0xAB, 8); err != nil {
		t.Fatal(err)
	}
	w.Pad()
	w.Pad()
	if got := w.Bytes(); !bytes.Equal(got, []byte{0xAB}) {
		t.Fatalf("got % X, want AB", got)
	}
}

func TestResetBytesReadsSlice(t *testing.T) {
	r := NewReader(nil)
	r.Reset([]byte{0xFF, 0x00, 0x12}) // stuffed 0xFF then 0x12
	if v, err := r.ReadBits(8); err != nil || v != 0xFF {
		t.Fatalf("got %#x, %v; want 0xFF", v, err)
	}
	if v, err := r.ReadBits(8); err != nil || v != 0x12 {
		t.Fatalf("got %#x, %v; want 0x12", v, err)
	}
	if _, err := r.ReadBits(1); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

func TestResetBytesClearsPendingMarker(t *testing.T) {
	r := NewReader([]byte{0xFF, 0xD0})
	if _, err := r.ReadBits(8); !errors.Is(err, ErrMarker) {
		t.Fatalf("got %v, want ErrMarker", err)
	}
	r.Reset([]byte{0x42})
	if v, err := r.ReadBits(8); err != nil || v != 0x42 {
		t.Fatalf("got %#x, %v; want 0x42", v, err)
	}
}

func TestExhausted(t *testing.T) {
	r := NewReader(nil)

	// Fully consumed slice with only padding bits left.
	r.Reset([]byte{0xA5})
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted() {
		t.Fatal("Exhausted false with 3 padding bits left")
	}

	// Whole unread byte buffered: not exhausted.
	r.Reset([]byte{0xA5, 0x5A})
	if _, err := r.ReadBits(5); err != nil {
		t.Fatal(err)
	}
	if r.Exhausted() {
		t.Fatal("Exhausted true with a whole unread byte buffered")
	}
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if !r.Exhausted() {
		t.Fatal("Exhausted false after consuming all whole bytes")
	}

	// Unread bytes still in the slice: not exhausted.
	r.Reset([]byte{0x01, 0x02})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if r.Exhausted() {
		t.Fatal("Exhausted true with an unread slice byte")
	}

	// A marker inside the segment keeps it from counting as exhausted.
	r.Reset([]byte{0xFF, 0xD3})
	if _, err := r.ReadBits(8); !errors.Is(err, ErrMarker) {
		t.Fatalf("got %v, want ErrMarker", err)
	}
	if r.Exhausted() {
		t.Fatal("Exhausted true with a pending marker")
	}
}

func BenchmarkWriteBits(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteBits(uint32(i)&0x3FF, 10); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<20 {
			buf.Reset()
		}
	}
}

func BenchmarkReadBits(b *testing.B) {
	data := make([]byte, 1<<16)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	// Pre-stuff the data so the reader sees a valid stream.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, d := range data {
		w.WriteBits(uint32(d), 8)
	}
	w.Flush()
	stream := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(stream)
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadBits(10); err != nil {
			r.Reset(stream)
		}
	}
}
