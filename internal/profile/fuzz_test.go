package profile

// Native fuzz target for the profile decoder: whatever bytes a registry
// scan or an operator upload presents, Decode may reject but never
// panic, and anything it accepts must re-encode to exactly the input
// (the canonical-bytes invariant the CRC and golden tests pin) and
// restore to a working framework. Regression seeds live in
// testdata/fuzz and are regenerated by TestWriteProfileFuzzSeeds.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// profileSeeds covers both flag shapes plus structured damage.
func profileSeeds(tb testing.TB) map[string][]byte {
	seeds := make(map[string][]byte)
	plain := encodeOK(tb, syntheticProfile(false))
	chroma := encodeOK(tb, syntheticProfile(true))
	seeds["plain"] = plain
	seeds["chroma"] = chroma
	seeds["truncated-header"] = plain[:8]
	seeds["truncated-stats"] = plain[:len(plain)/2]
	flipped := bytes.Clone(chroma)
	flipped[len(flipped)/3] ^= 0x10
	seeds["bitflip"] = flipped
	seeds["magic-only"] = []byte(Magic)
	return seeds
}

func FuzzProfileDecode(f *testing.F) {
	for _, data := range profileSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		again, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted profile does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted profile re-encodes to different bytes (non-canonical decode)")
		}
		// An accepted profile must restore: Decode already enforces the
		// table invariants Restore checks.
		if _, err := p.Framework(); err != nil {
			t.Fatalf("accepted profile does not restore: %v", err)
		}
	})
}

// TestWriteProfileFuzzSeeds regenerates the checked-in regression corpus
// under testdata/fuzz when UPDATE_FUZZ_SEEDS=1 is set; otherwise it
// verifies the corpus exists so a lost checkout fails loudly.
func TestWriteProfileFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzProfileDecode")
	if os.Getenv("UPDATE_FUZZ_SEEDS") == "" {
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("regression corpus missing (rerun with UPDATE_FUZZ_SEEDS=1): %v", err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range profileSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
