package core

// Tests for the framework's scaled-table cache: the transform-folded
// quantization divisors must be built exactly once per Framework and
// shared by every Scheme — never rebuilt per image or per block — while
// a Framework whose tables were mutated after construction must fall
// back to correct streams rather than serve the stale cache.

import (
	"bytes"
	"testing"

	"repro/internal/jpegcodec"
	"repro/internal/qtable"
)

func TestSchemeReusesScaledTableCache(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := f.Scheme(), f.Scheme()
	if s1.Opts.Scaled == nil {
		t.Fatal("calibrated framework hands out schemes without the scaled-table cache")
	}
	if s1.Opts.Scaled != s2.Opts.Scaled {
		t.Fatal("Scheme rebuilt the scaled tables instead of sharing the per-framework cache")
	}
	// Scheme construction itself must stay allocation-free: the cache is
	// built once at calibration, not per scheme (and certainly not per
	// image or block downstream).
	if allocs := testing.AllocsPerRun(100, func() { _ = f.Scheme() }); allocs > 0 {
		t.Fatalf("Scheme makes %.1f allocs/op, want 0 (scaled tables rebuilt per call?)", allocs)
	}
}

func TestRestoredFrameworkCarriesScaledCache(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(f.Params, f.Stats, nil, f.LumaTable, f.ChromaTable, f.SampledCount)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme().Opts.Scaled == nil {
		t.Fatal("restored framework lacks the scaled-table cache")
	}
	if r.Scheme().Opts.Scaled != r.Scheme().Opts.Scaled {
		t.Fatal("restored framework rebuilds scaled tables per scheme")
	}
}

// TestMutatedFrameworkFallsBackToFreshTables pins the stale-cache guard
// end to end: copying a framework and swapping its luma table must
// produce exactly the stream a cache-less encode under the new table
// produces.
func TestMutatedFrameworkFallsBackToFreshTables(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mutated := *f
	mutated.LumaTable = qtable.MustScale(qtable.StdLuminance, 70)

	img := ds.Images[0]
	got, err := mutated.Scheme().EncodeRGB(img)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	opts := jpegcodec.Options{
		LumaTable:   mutated.LumaTable,
		ChromaTable: f.ChromaTable,
	}
	if err := jpegcodec.EncodeRGB(&want, img, &opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("mutated framework encoded through its stale scaled-table cache")
	}
}
