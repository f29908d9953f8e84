package jpegcodec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

func TestStdSpecsValid(t *testing.T) {
	for name, spec := range map[string]*HuffmanSpec{
		"DC-luma": &StdDCLuminance, "DC-chroma": &StdDCChrominance,
		"AC-luma": &StdACLuminance, "AC-chroma": &StdACChrominance,
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if len(StdACLuminance.Values) != 162 || len(StdACChrominance.Values) != 162 {
		t.Fatal("AC tables must have 162 symbols")
	}
}

func TestSpecValidationRejectsBadSpecs(t *testing.T) {
	// Count/value mismatch.
	bad := HuffmanSpec{Counts: [16]uint8{0, 2}, Values: []uint8{1}}
	if err := bad.Validate(); err == nil {
		t.Error("count/value mismatch accepted")
	}
	// Over-subscribed code space: 3 codes of length 1.
	bad = HuffmanSpec{Counts: [16]uint8{3}, Values: []uint8{1, 2, 3}}
	if err := bad.Validate(); err == nil {
		t.Error("over-subscribed code space accepted")
	}
	// Empty.
	bad = HuffmanSpec{}
	if err := bad.Validate(); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestEncTableRejectsDuplicateSymbols(t *testing.T) {
	spec := HuffmanSpec{Counts: [16]uint8{0, 2}, Values: []uint8{7, 7}}
	if _, err := buildEncTable(&spec); err == nil {
		t.Fatal("duplicate symbol accepted")
	}
}

func TestEncTableCanonicalCodes(t *testing.T) {
	// DC luminance: first code (symbol 0) has length 2, code 00.
	enc, err := buildEncTable(&StdDCLuminance)
	if err != nil {
		t.Fatal(err)
	}
	if enc.size[0] != 2 || enc.code[0] != 0 {
		t.Fatalf("symbol 0: code %b size %d, want 00", enc.code[0], enc.size[0])
	}
	// Symbols 1..5 have length 3 with consecutive codes 010..110.
	for i, want := range []uint32{0b010, 0b011, 0b100, 0b101, 0b110} {
		sym := uint8(i + 1)
		if enc.size[sym] != 3 || enc.code[sym] != want {
			t.Fatalf("symbol %d: code %03b size %d, want %03b size 3", sym, enc.code[sym], enc.size[sym], want)
		}
	}
}

// encodeDecodeSymbols pushes a symbol sequence through an encoder and
// decoder pair built from the same spec.
func encodeDecodeSymbols(t *testing.T, spec *HuffmanSpec, syms []uint8) {
	t.Helper()
	enc, err := buildEncTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	var dec decTable
	if err := dec.init(spec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	for _, s := range syms {
		if err := enc.emit(bw, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bitio.NewReader(bytes.NewReader(buf.Bytes()))
	for i, want := range syms {
		got, err := dec.decode(br)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d: got %#x want %#x", i, got, want)
		}
	}
}

func TestHuffmanRoundTripStdTables(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, spec := range []*HuffmanSpec{&StdDCLuminance, &StdACLuminance, &StdDCChrominance, &StdACChrominance} {
		syms := make([]uint8, 500)
		for i := range syms {
			syms[i] = spec.Values[rng.Intn(len(spec.Values))]
		}
		encodeDecodeSymbols(t, spec, syms)
	}
}

func TestBuildOptimizedSpecSingleSymbol(t *testing.T) {
	var freq [256]int64
	freq[42] = 100
	spec, err := BuildOptimizedSpec(&freq)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Values) != 1 || spec.Values[0] != 42 {
		t.Fatalf("values = %v, want [42]", spec.Values)
	}
	encodeDecodeSymbols(t, spec, []uint8{42, 42, 42})
}

func TestBuildOptimizedSpecEmptyFails(t *testing.T) {
	var freq [256]int64
	if _, err := BuildOptimizedSpec(&freq); err == nil {
		t.Fatal("empty frequency table accepted")
	}
	freq[3] = -1
	if _, err := BuildOptimizedSpec(&freq); err == nil {
		t.Fatal("negative frequency accepted")
	}
}

func TestBuildOptimizedSpecSkewed(t *testing.T) {
	// Highly skewed distribution: frequent symbols must get short codes.
	var freq [256]int64
	freq[0] = 1_000_000
	freq[1] = 1000
	freq[2] = 10
	freq[3] = 1
	spec, err := BuildOptimizedSpec(&freq)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := buildEncTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if enc.size[0] > enc.size[1] || enc.size[1] > enc.size[2] {
		t.Fatalf("code lengths not monotone in frequency: %d %d %d %d",
			enc.size[0], enc.size[1], enc.size[2], enc.size[3])
	}
}

func TestBuildOptimizedSpecAllSymbols(t *testing.T) {
	// All 256 symbols used forces the length-limiting path.
	var freq [256]int64
	rng := rand.New(rand.NewSource(2))
	for i := range freq {
		freq[i] = int64(rng.Intn(1_000_000) + 1)
	}
	spec, err := BuildOptimizedSpec(&freq)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.totalCodes(); got != 256 {
		t.Fatalf("spec has %d codes, want 256", got)
	}
	syms := make([]uint8, 2000)
	for i := range syms {
		syms[i] = uint8(rng.Intn(256))
	}
	encodeDecodeSymbols(t, spec, syms)
}

// Property: optimized tables from arbitrary frequency profiles always
// produce decodable prefix codes no longer than 16 bits.
func TestPropertyOptimizedSpecRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%64 + 1
		var freq [256]int64
		var present []uint8
		for i := 0; i < count; i++ {
			s := uint8(rng.Intn(256))
			freq[s] += int64(rng.Intn(10000) + 1)
			present = append(present, s)
		}
		spec, err := BuildOptimizedSpec(&freq)
		if err != nil {
			return false
		}
		for _, c := range spec.Counts {
			_ = c // lengths implicitly ≤16 by construction of the array
		}
		enc, err := buildEncTable(spec)
		if err != nil {
			return false
		}
		var dec decTable
		if err := dec.init(spec); err != nil {
			return false
		}
		var buf bytes.Buffer
		bw := bitio.NewWriter(&buf)
		for _, s := range present {
			if err := enc.emit(bw, s); err != nil {
				return false
			}
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		br := bitio.NewReader(bytes.NewReader(buf.Bytes()))
		for _, want := range present {
			got, err := dec.decode(br)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitCategory(t *testing.T) {
	cases := []struct {
		v    int32
		want int
	}{
		{0, 0}, {1, 1}, {-1, 1}, {2, 2}, {3, 2}, {-3, 2}, {4, 3}, {7, 3},
		{8, 4}, {255, 8}, {-255, 8}, {256, 9}, {1023, 10}, {-1024, 11},
	}
	for _, c := range cases {
		if got := bitCategory(c.v); got != c.want {
			t.Errorf("bitCategory(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestDecodeInvalidCode(t *testing.T) {
	// A spec with a single 1-bit code "0": reading a stream of 1s must fail
	// within 16 bits rather than loop.
	spec := HuffmanSpec{Counts: [16]uint8{1}, Values: []uint8{5}}
	var dec decTable
	if err := dec.init(&spec); err != nil {
		t.Fatal(err)
	}
	br := bitio.NewReader(bytes.NewReader([]byte{0xFF, 0x00, 0xFF, 0x00, 0xFF, 0x00}))
	if _, err := dec.decode(br); err == nil {
		t.Fatal("expected invalid-code error")
	}
}
