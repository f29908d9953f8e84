package jpegcodec

// Cross-commit decode pins: every base stream below is decoded together
// with a few hundred seeded mutants of it (bit flips, truncations,
// random bytes, inserted 0xFF xx pairs, deleted bytes), sequentially and
// with two restart shards. Each decode contributes its verdict to the
// base's digest — the error text on reject, a SHA-256 of the
// coefficients and the RGBInto pixels on accept — and the digests are
// recorded in testdata/decode_verdicts.txt. A change to the bit reader,
// the Huffman decoder, reconstruction or color conversion that moves a
// single pixel, coefficient, accept/reject decision or error string
// fails here by base name. Regenerate only after a deliberate change,
// with
//
//	UPDATE_DECODE_VERDICTS=1 go test -run '^TestDecodeVerdictDigests$' ./internal/jpegcodec

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/imgutil"
)

const decodeVerdictsPath = "testdata/decode_verdicts.txt"

// verdictMutantsPerKind is the number of mutants of each kind derived
// from one base stream.
const verdictMutantsPerKind = 78

// verdictBases returns the named base streams: the fuzz seeds, the
// checked-in progressive fixtures, the chroma layouts the sampling
// matrix covers with and without restart intervals, and one frame
// large enough for the auto-sharded path.
func verdictBases(t *testing.T) map[string][]byte {
	t.Helper()
	bases := map[string][]byte{}
	for name, data := range seedStreams(t) {
		bases["seed/"+name] = data
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "progressive", "*.jpg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) != len(progCases) {
		t.Fatalf("found %d progressive fixtures, want %d", len(fixtures), len(progCases))
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bases["progressive/"+strings.TrimSuffix(filepath.Base(path), ".jpg")] = data
	}
	encode := func(name string, img *imgutil.RGB, opts Options) {
		var buf bytes.Buffer
		if err := EncodeRGB(&buf, img, &opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bases[name] = buf.Bytes()
	}
	small := testImageRGB(37, 29, 31)
	for _, sub := range []Subsampling{Sub420, Sub444, Sub422, Sub411} {
		for _, ri := range []int{0, 3} {
			encode(fmt.Sprintf("encode/%s/ri%d", sub, ri), small, Options{Subsampling: sub, RestartInterval: ri})
		}
	}
	encode("encode/4:2:0-512x512/ri16", testImageRGB(512, 512, 37), Options{RestartInterval: 16})
	return bases
}

// verdictMutants returns base followed by its seeded mutants. Half of
// the edit positions are uniform over the stream; the other half land
// within a few bytes of a 0xFF byte (a marker or a stuffed data byte),
// where the entropy reader's marker and end-of-input handling lives.
func verdictMutants(base []byte, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var ffs []int
	for i, b := range base {
		if b == 0xFF {
			ffs = append(ffs, i)
		}
	}
	pos := func() int {
		if len(ffs) == 0 || rng.Intn(2) == 0 {
			return rng.Intn(len(base))
		}
		p := ffs[rng.Intn(len(ffs))] + rng.Intn(17) - 8
		return min(max(p, 0), len(base)-1)
	}
	out := [][]byte{base}
	for i := 0; i < verdictMutantsPerKind; i++ {
		flip := bytes.Clone(base)
		p := pos()
		flip[p] ^= 1 << rng.Intn(8)

		trunc := bytes.Clone(base[:pos()])

		random := bytes.Clone(base)
		random[pos()] = byte(rng.Intn(256))

		p = pos()
		insert := make([]byte, 0, len(base)+2)
		insert = append(insert, base[:p]...)
		insert = append(insert, 0xFF, byte(rng.Intn(256)))
		insert = append(insert, base[p:]...)

		p = pos()
		del := make([]byte, 0, len(base)-1)
		del = append(del, base[:p]...)
		del = append(del, base[p+1:]...)

		out = append(out, flip, trunc, random, insert, del)
	}
	return out
}

// writeVerdict decodes data with the given shard request and writes the
// outcome to h: the error text, or a digest of the geometry, every
// component's coefficients and the RGBInto pixels.
func writeVerdict(h hash.Hash, data []byte, workers int, dec *Decoded, rgb **imgutil.RGB) {
	opts := DecodeOptions{ShardWorkers: workers, MaxPixels: fuzzMaxPixels}
	if err := DecodeInto(bytes.NewReader(data), dec, &opts); err != nil {
		fmt.Fprintf(h, "w%d err %s\n", workers, err)
		return
	}
	sum := sha256.New()
	fmt.Fprintf(sum, "%dx%d c%d\n", dec.W, dec.H, dec.Components)
	var word [4]byte
	for ci := 0; ci < dec.Components; ci++ {
		blocks, bx, by := dec.Coefficients(ci)
		fmt.Fprintf(sum, "comp %d %dx%d\n", ci, bx, by)
		for i := range blocks {
			for _, v := range blocks[i] {
				binary.LittleEndian.PutUint32(word[:], uint32(v))
				sum.Write(word[:])
			}
		}
	}
	*rgb = dec.RGBInto(*rgb)
	sum.Write((*rgb).Pix)
	fmt.Fprintf(h, "w%d ok %x\n", workers, sum.Sum(nil))
}

// decodeVerdicts computes one digest per base over the verdicts of the
// base and all its mutants, each decoded sequentially and with two
// restart shards.
func decodeVerdicts(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	var dec Decoded
	var rgb *imgutil.RGB
	for name, base := range verdictBases(t) {
		seed := fnv.New64a()
		seed.Write([]byte(name))
		h := sha256.New()
		for _, data := range verdictMutants(base, int64(seed.Sum64())) {
			writeVerdict(h, data, 1, &dec, &rgb)
			writeVerdict(h, data, 2, &dec, &rgb)
		}
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// TestDecodeVerdictDigests holds the decoder's pixels, coefficients,
// accept/reject decisions and error text to the checked-in digests and
// reports every base that moved, not just the first.
func TestDecodeVerdictDigests(t *testing.T) {
	if raceEnabled {
		t.Skip("about 90 s under -race; the decode leg of make check runs it without")
	}
	got := decodeVerdicts(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if os.Getenv("UPDATE_DECODE_VERDICTS") != "" {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(decodeVerdictsPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(decodeVerdictsPath)
	if err != nil {
		t.Fatalf("verdict file missing (regenerate with UPDATE_DECODE_VERDICTS=1): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed verdict line %q", sc.Text())
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: not pinned", k)
		} else if w != got[k] {
			t.Errorf("%s moved:\n  pinned %s\n  now    %s", k, w, got[k])
		}
	}
	if len(want) != len(keys) {
		t.Errorf("verdict file has %d lines, the test computes %d", len(want), len(keys))
	}
}
