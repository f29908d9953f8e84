package profile

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/freqstat"
	"repro/internal/plm"
	"repro/internal/qtable"
)

// syntheticProfile builds a fully deterministic profile from handcrafted
// numbers — no calibration pass, no floating-point paths that could vary
// across platforms — so golden bytes are stable everywhere.
func syntheticProfile(chroma bool) *Profile {
	stats := func(seed float64) *freqstat.Stats {
		s := &freqstat.Stats{Blocks: 4096}
		for i := 0; i < 64; i++ {
			f := float64(i)
			s.Mean[i] = seed + f/8
			s.Std[i] = 80 - f + seed/10
			s.Min[i] = -(seed + 2*f)
			s.Max[i] = seed + 2*f
		}
		return s
	}
	p := &Profile{
		Name:         "synthetic",
		Version:      3,
		CreatedUnix:  1700000000,
		Comment:      "handcrafted golden fixture",
		SampledCount: 512,
		Params: plm.Params{
			A: 255, B: 80, C: 240,
			K1: 9.75, K2: 1, K3: 3,
			T1: 20, T2: 60,
			QMin: 5, QMax: 255,
		},
		LumaStats: stats(1),
	}
	for i := range p.Luma {
		p.Luma[i] = uint16(1 + (i*3)%255)
		p.Chroma[i] = uint16(1 + (i*7)%255)
	}
	if chroma {
		p.ChromaCalibrated = true
		p.ChromaStats = stats(2)
	}
	return p
}

// calibratedProfile runs the real design flow on SynthNet and captures it,
// for tests that need a profile whose framework actually restores the
// calibrated state.
func calibratedProfile(tb testing.TB, chroma bool) (*Profile, *core.Framework) {
	tb.Helper()
	cfg := dataset.Quick()
	cfg.TrainPerClass, cfg.TestPerClass = 8, 1
	cfg.Color = chroma
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	fw, err := core.Calibrate(train, core.CalibrateOptions{Chroma: chroma})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := FromFramework(fw, Meta{Name: "synthnet", Version: 1, CreatedUnix: 42})
	if err != nil {
		tb.Fatal(err)
	}
	return p, fw
}

func encodeOK(tb testing.TB, p *Profile) []byte {
	tb.Helper()
	data, err := p.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func TestRoundTrip(t *testing.T) {
	for _, chroma := range []bool{false, true} {
		p := syntheticProfile(chroma)
		data := encodeOK(t, p)
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("chroma=%v: %v", chroma, err)
		}
		again := encodeOK(t, back)
		if !bytes.Equal(data, again) {
			t.Fatalf("chroma=%v: decode→encode is not byte-identical", chroma)
		}
		if back.Ref() != "synthetic@3" || back.SampledCount != 512 || back.CreatedUnix != 1700000000 {
			t.Fatalf("chroma=%v: fields did not survive: %+v", chroma, back)
		}
		if back.LumaStats.Blocks != 4096 || back.LumaStats.Std[0] != p.LumaStats.Std[0] {
			t.Fatalf("chroma=%v: statistics did not survive", chroma)
		}
	}
}

func TestCalibratedRoundTripRestoresFramework(t *testing.T) {
	p, fw := calibratedProfile(t, true)
	back, err := Decode(encodeOK(t, p))
	if err != nil {
		t.Fatal(err)
	}
	fw2, err := back.Framework()
	if err != nil {
		t.Fatal(err)
	}
	if fw2.LumaTable != fw.LumaTable || fw2.ChromaTable != fw.ChromaTable {
		t.Fatal("restored tables differ from calibrated ones")
	}
	if fw2.SampledCount != fw.SampledCount {
		t.Fatal("restored metadata differs")
	}
	if *fw2.Stats != *fw.Stats {
		t.Fatal("restored statistics differ")
	}
	if fw2.Seg.ByRank != fw.Seg.ByRank {
		t.Fatal("recomputed segmentation ranks differ")
	}
}

// TestGolden pins the canonical bytes: the checked-in golden file must
// decode to the synthetic fixture and the fixture must encode to exactly
// the golden bytes. Regenerate with UPDATE_GOLDEN=1 after a deliberate
// format change (which must also bump FormatVersion).
func TestGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden.dnp")
	want := encodeOK(t, syntheticProfile(true))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("golden bytes drifted: the canonical encoding changed without a format-version bump")
	}
	p, err := Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeOK(t, p); !bytes.Equal(again, got) {
		t.Fatal("golden re-encode is not byte-identical")
	}
}

// engineOffset is the position of the engine byte in p's encoding: it
// follows the fixed header, the name, version, creation time and
// comment.
func engineOffset(p *Profile) int {
	return len(Magic) + 2 + 2 + 2 + len(p.Name) + 4 + 8 + 2 + len(p.Comment)
}

// withEngineByte re-encodes p with its engine byte set to e.
func withEngineByte(tb testing.TB, p *Profile, e byte) []byte {
	tb.Helper()
	data := encodeOK(tb, p)
	data[engineOffset(p)] = e
	return patchCRC(data)
}

// TestEngineByteZeroRestoresLikeOne pins the legacy engine byte: a
// profile written with byte 0 (the naive DCT, when engines were
// selectable) decodes, re-encodes to exactly its own bytes, and restores
// to a codec that encodes exactly like its byte-1 twin.
func TestEngineByteZeroRestoresLikeOne(t *testing.T) {
	p, _ := calibratedProfile(t, true)
	one := encodeOK(t, p)
	if one[engineOffset(p)] != 1 {
		t.Fatalf("new profiles must write engine byte 1, wrote %d", one[engineOffset(p)])
	}
	zero := withEngineByte(t, p, 0)
	p0, err := Decode(zero)
	if err != nil {
		t.Fatalf("engine byte 0 rejected: %v", err)
	}
	if again := encodeOK(t, p0); !bytes.Equal(again, zero) {
		t.Fatal("byte-0 profile does not re-encode to its own bytes")
	}
	fw0, err := p0.Framework()
	if err != nil {
		t.Fatal(err)
	}
	fw1, err := p.Framework()
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.Quick()
	cfg.TrainPerClass, cfg.TestPerClass, cfg.Color = 1, 1, true
	imgs, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range imgs.Images {
		a, err := fw0.Scheme().EncodeRGB(img)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fw1.Scheme().EncodeRGB(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("image %d: byte-0 profile encodes differently from its byte-1 twin", i)
		}
	}
}

// patchCRC recomputes the trailing checksum after a deliberate mutation,
// so corruption tests reach the validation they target instead of
// stopping at ErrChecksum.
func patchCRC(data []byte) []byte {
	sum := crc32.ChecksumIEEE(data[:len(data)-4])
	data[len(data)-4] = byte(sum >> 24)
	data[len(data)-3] = byte(sum >> 16)
	data[len(data)-2] = byte(sum >> 8)
	data[len(data)-1] = byte(sum)
	return data
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := encodeOK(t, syntheticProfile(true))
	// Offsets inside the fixed header: magic(4) format(2) flags(2)
	// nameLen(2) name(9 = len "synthetic")...
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrBadMagic},
		{"not a profile", func(b []byte) []byte { return []byte("PNG\x89 definitely not") }, ErrBadMagic},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic},
		{"future format version", func(b []byte) []byte { b[5] = 99; return patchCRC(b) }, ErrFormatVersion},
		{"unknown flag bits", func(b []byte) []byte { b[6] = 0x80; return patchCRC(b) }, ErrCorrupt},
		{"truncated header", func(b []byte) []byte { return b[:7] }, ErrCorrupt},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }, ErrCorrupt},
		{"truncated crc", func(b []byte) []byte { return b[:len(b)-2] }, ErrCorrupt},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }, ErrChecksum},
		{"flipped crc byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, ErrChecksum},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, ErrCorrupt},
		{"oversized name length", func(b []byte) []byte { b[8], b[9] = 0xFF, 0xFF; return patchCRC(b) }, ErrCorrupt},
		{"illegal name character", func(b []byte) []byte { b[10] = '@'; return patchCRC(b) }, ErrCorrupt},
		{"uppercase name", func(b []byte) []byte { b[10] = 'S'; return patchCRC(b) }, ErrCorrupt},
		{"bad transform", func(b []byte) []byte {
			b[engineOffset(syntheticProfile(true))] = 2
			return patchCRC(b)
		}, ErrCorrupt},
		{"version zero", func(b []byte) []byte {
			off := 10 + len("synthetic") // version uint32 follows the name
			for i := 0; i < 4; i++ {
				b[off+i] = 0
			}
			return patchCRC(b)
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(bytes.Clone(valid))
			p, err := Decode(data)
			if err == nil {
				t.Fatalf("corrupt input decoded: %+v", p)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want %v", err, tc.wantErr)
			}
		})
	}
	// Every truncation of the valid encoding must fail cleanly (and
	// never panic): the CRC is last, so no prefix can be valid.
	for n := 0; n < len(valid); n++ {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	base := func() *Profile { return syntheticProfile(true) }
	cases := []struct {
		name   string
		mutate func(*Profile)
		want   string
	}{
		{"empty name", func(p *Profile) { p.Name = "" }, "name"},
		{"illegal name", func(p *Profile) { p.Name = "No/Slash" }, "name"},
		{"version zero", func(p *Profile) { p.Version = 0 }, "version"},
		{"zero table step", func(p *Profile) { p.Luma[0] = 0 }, "luma table"},
		{"nil stats", func(p *Profile) { p.LumaStats = nil }, "statistics"},
		{"chroma mismatch", func(p *Profile) { p.ChromaStats = nil }, "chroma"},
		{"stats NaN", func(p *Profile) { p.LumaStats.Std[5] = nan() }, "non-finite"},
		{"params inf", func(p *Profile) { p.Params.K2 = inf() }, "non-finite"},
		{"oversized comment", func(p *Profile) { p.Comment = strings.Repeat("x", MaxCommentLen+1) }, "comment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.mutate(p)
			if _, err := p.Encode(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

func TestWriteReadAtomic(t *testing.T) {
	dir := t.TempDir()
	p := syntheticProfile(false)
	path := filepath.Join(dir, p.FileName())
	if err := p.Write(path); err != nil {
		t.Fatal(err)
	}
	back, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Ref() != p.Ref() {
		t.Fatalf("read back %s, want %s", back.Ref(), p.Ref())
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after an atomic write, want 1", len(entries))
	}
}

func TestParseRef(t *testing.T) {
	if name, v, has, err := ParseRef("imagenet@12"); err != nil || name != "imagenet" || v != 12 || !has {
		t.Fatalf("got %q %d %v %v", name, v, has, err)
	}
	if name, _, has, err := ParseRef("imagenet"); err != nil || name != "imagenet" || has {
		t.Fatalf("got %q %v %v", name, has, err)
	}
	for _, bad := range []string{"", "UPPER", "a@0", "a@x", "a@", "a b", "a@1@2", "-lead"} {
		if _, _, _, err := ParseRef(bad); err == nil {
			t.Fatalf("ParseRef(%q) accepted", bad)
		}
	}
}

// TestTableBinaryRoundTrip pins the qtable helper the format builds on.
func TestTableBinaryRoundTrip(t *testing.T) {
	var tbl qtable.Table
	for i := range tbl {
		tbl[i] = uint16(i*401 + 1)
	}
	buf := tbl.AppendBinary(nil)
	if len(buf) != qtable.BinarySize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), qtable.BinarySize)
	}
	back, err := qtable.TableFromBinary(buf)
	if err != nil || back != tbl {
		t.Fatalf("round trip: %v", err)
	}
}

// TestStatsBinaryRoundTrip pins the freqstat helper the format builds on,
// including exact bit patterns for awkward floats.
func TestStatsBinaryRoundTrip(t *testing.T) {
	s := &freqstat.Stats{Blocks: 1 << 40}
	for i := 0; i < 64; i++ {
		s.Mean[i] = 1.0 / float64(i+3)
		s.Std[i] = 3.25 * float64(i)
		s.Min[i] = -1e-300
		s.Max[i] = 1e300
	}
	buf := s.AppendBinary(nil)
	if len(buf) != freqstat.StatsBinarySize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), freqstat.StatsBinarySize)
	}
	back, err := freqstat.StatsFromBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *s {
		t.Fatal("round trip drifted")
	}
	if _, err := freqstat.StatsFromBinary(buf[:10]); err == nil {
		t.Fatal("truncated stats accepted")
	}
}
