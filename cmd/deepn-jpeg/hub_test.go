package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/profilehub"
)

// TestProfilesPullCreatesDir pulls a profile from an origin into a -dir
// that does not exist yet, two levels deep: the pull creates it and
// writes the origin's bytes under the profile's canonical file name.
func TestProfilesPullCreatesDir(t *testing.T) {
	root := t.TempDir()
	originDir := filepath.Join(root, "origin")
	if err := os.Mkdir(originDir, 0o755); err != nil {
		t.Fatal(err)
	}
	published := filepath.Join(originDir, "fleet@1.dnp")
	if err := runCalibrate([]string{"-name", "fleet", "-pversion", "1", "-classes", "2", "-per-class", "4", "-size", "16", "-out", published}); err != nil {
		t.Fatal(err)
	}
	origin, err := profilehub.NewOrigin(profilehub.OriginOptions{Dir: originDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin)
	defer ts.Close()

	dir := filepath.Join(root, "pulled", "nested")
	if err := runProfilesPull([]string{"-ref", "fleet@1", "-origin", ts.URL, "-dir", dir, "-cache", filepath.Join(root, "cache")}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(published)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fleet@1.dnp"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pulled %d bytes, the origin published %d other bytes", len(got), len(want))
	}
}
