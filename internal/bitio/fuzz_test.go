package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzReaderOracle runs a fuzzed byte string and a fuzzed script of
// reads, peeks, skips, aligns and marker reads (runReaderScript) through
// the Reader and the byte-at-a-time oracle, which must agree on every
// value and error. It then reads the script as a sequence of puts of
// 0..32 bits, writes them with the Writer and the oracle writer, which
// must produce the same bytes, and reads every put back through the
// Reader.
func FuzzReaderOracle(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	for range 16 {
		script := make([]byte, 2*(1+rng.Intn(40)))
		rng.Read(script)
		f.Add(oracleStream(rng), script)
	}
	f.Add([]byte{0x12, 0xFF, 0x00, 0x34, 0xFF, 0xFF, 0xD0, 0x56}, []byte{opPeek32, 9, opReadBits, 20, opMarker, 0, opReadBits, 8})
	f.Fuzz(func(t *testing.T, stream, script []byte) {
		if err := runReaderScript(stream, script); err != nil {
			t.Fatalf("stream % X, script % X: %v", stream, script, err)
		}

		var puts [][2]uint32
		w, oracle := NewWriter(nil), &serialWriter{}
		for i := 0; i+1 < len(script); i += 2 {
			n := uint32(script[i]) % 33
			v := uint32(script[i+1]) * 0x01010101 & uint32(1<<n-1)
			puts = append(puts, [2]uint32{v, n})
			w.Put(v, uint(n))
			oracle.writeBits(v, uint(n))
		}
		w.Pad()
		oracle.pad()
		if !bytes.Equal(w.Bytes(), oracle.buf) {
			t.Fatalf("puts %v: Writer % X, oracle % X", puts, w.Bytes(), oracle.buf)
		}
		r := NewReader(w.Bytes())
		for i, p := range puts {
			v, n := p[0], uint(p[1])
			hi, herr := r.ReadBits(n / 2)
			lo, lerr := r.ReadBits(n - n/2)
			if herr != nil || lerr != nil || hi<<(n-n/2)|lo != v {
				t.Fatalf("put %d of %v: read back %#x %#x, %v %v", i, puts, hi, lo, herr, lerr)
			}
		}
		if !r.Exhausted() {
			t.Fatalf("puts %v: bytes left after reading every put back", puts)
		}
	})
}
