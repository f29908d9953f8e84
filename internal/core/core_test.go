package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/freqstat"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/plm"
	"repro/internal/qtable"
)

func quickDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.Quick()
	cfg.TrainPerClass, cfg.TestPerClass = 10, 2
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return train
}

func TestCalibrateProducesValidTable(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.LumaTable.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := f.ChromaTable.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.SampledCount != ds.Len() {
		t.Fatalf("sampled %d of %d", f.SampledCount, ds.Len())
	}
	// The DeepN table must protect the energetic bands: the finest steps
	// go to LF bands, the coarsest to HF.
	var lfMean, hfMean float64
	var lfN, hfN int
	for i := range f.LumaTable {
		switch f.Seg.Class[i] {
		case freqstat.LF:
			lfMean += float64(f.LumaTable[i])
			lfN++
		case freqstat.HF:
			hfMean += float64(f.LumaTable[i])
			hfN++
		}
	}
	if lfMean/float64(lfN) >= hfMean/float64(hfN) {
		t.Fatalf("LF mean step %.1f ≥ HF mean step %.1f", lfMean/float64(lfN), hfMean/float64(hfN))
	}
}

func TestCalibrateSampling(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{SampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.SampledCount != ds.Len()/2 {
		t.Fatalf("sampled %d, want %d", f.SampledCount, ds.Len()/2)
	}
}

func TestCalibratePaperParams(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{UsePaperParams: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.Params != plm.PaperImageNet() {
		t.Fatalf("params %+v", f.Params)
	}
}

func TestCalibrateChroma(t *testing.T) {
	cfg := dataset.Quick()
	cfg.Color = true
	cfg.TrainPerClass, cfg.TestPerClass = 8, 2
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Calibrate(train, CalibrateOptions{Chroma: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.ChromaStats == nil {
		t.Fatal("chroma stats missing")
	}
	if err := f.ChromaTable.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCalibratePositionBased(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{PositionBased: true})
	if err != nil {
		t.Fatal(err)
	}
	// Positional segmentation puts DC in LF regardless of statistics.
	if f.Seg.Class[0] != freqstat.LF {
		t.Fatal("position-based DC not LF")
	}
}

func TestCalibrateEmptyDataset(t *testing.T) {
	if _, err := Calibrate(&dataset.Dataset{}, CalibrateOptions{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestSchemes(t *testing.T) {
	orig := SchemeOriginal()
	if orig.Opts.LumaTable[0] != 1 {
		t.Fatal("original scheme must be QF 100")
	}
	j50 := SchemeJPEG(50)
	if j50.Opts.LumaTable != qtable.StdLuminance {
		t.Fatal("QF 50 must be the Annex-K table")
	}
	rm, _ := qtable.RMHF(3)
	rmhf := SchemeRMHF(3)
	if rmhf.Opts.LumaTable != rm || rmhf.Opts.ZeroMask == nil || rmhf.Opts.ZeroMask.Count() != 3 {
		t.Fatal("RM-HF scheme wrong")
	}
	sq := SchemeSameQ(8)
	if sq.Opts.LumaTable != qtable.Uniform(8) {
		t.Fatal("SAME-Q scheme wrong")
	}
	if orig.Name != "original" || j50.Name != "jpeg-qf50" || rmhf.Name != "rm-hf3" || sq.Name != "same-q8" {
		t.Fatalf("scheme names: %s %s %s %s", orig.Name, j50.Name, rmhf.Name, sq.Name)
	}
}

func TestTranscodePreservesLabelsAndCountsBytes(t *testing.T) {
	ds := quickDataset(t)
	res, err := Transcode(ds, SchemeOriginal(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset.Len() != ds.Len() {
		t.Fatalf("transcoded %d of %d", res.Dataset.Len(), ds.Len())
	}
	for i := range ds.Labels {
		if res.Dataset.Labels[i] != ds.Labels[i] {
			t.Fatal("labels scrambled")
		}
	}
	if res.TotalBytes <= 0 {
		t.Fatal("no bytes counted")
	}
	// QF-100 gray transcode should be nearly lossless.
	psnr, err := imgutil.PSNR(ds.Images[0].ToGray().Pix, res.Dataset.Images[0].ToGray().Pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 45 {
		t.Fatalf("QF-100 transcode PSNR %.1f", psnr)
	}
}

func TestDeepNCompressionBeatsOriginal(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	origSize, err := CompressedSize(ds, SchemeOriginal(), true)
	if err != nil {
		t.Fatal(err)
	}
	deepSize, err := CompressedSize(ds, f.Scheme(), true)
	if err != nil {
		t.Fatal(err)
	}
	cr := CompressionRatio(origSize, deepSize)
	if cr < 2 {
		t.Fatalf("DeepN-JPEG CR = %.2f, want ≥ 2 over QF-100", cr)
	}
}

func TestCompressionRatio(t *testing.T) {
	if CompressionRatio(1000, 250) != 4 {
		t.Fatal("CR arithmetic wrong")
	}
	if CompressionRatio(1000, 0) != 0 {
		t.Fatal("zero denominator must yield 0")
	}
}

func TestSchemeEncodeDecodableByCodec(t *testing.T) {
	ds := quickDataset(t)
	f, err := Calibrate(ds, CalibrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Scheme().EncodeRGB(ds.Images[0])
	if err != nil {
		t.Fatal(err)
	}
	dec, err := jpegcodec.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// The DQT in the stream must be the calibrated table.
	if dec.QuantTables[0] != f.LumaTable {
		t.Fatal("calibrated table not embedded in stream")
	}
}

// TestMutatedFrameworkFallsBackToFreshTables pins that a Scheme encodes
// with the framework's current tables: copying a framework and swapping
// its luma table must produce exactly the stream a plain encode under
// the new table produces.
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
		t.Fatal("mutated framework did not encode with its current tables")
	}
}

func TestRemoveHFComponents(t *testing.T) {
	ds := quickDataset(t)
	img := ds.Images[0].ToGray()
	out := RemoveHFComponents(img, 6)
	if out.W != img.W || out.H != img.H {
		t.Fatal("dimensions changed")
	}
	// Removing nothing is identity (modulo rounding in DCT round trip).
	same := RemoveHFComponents(img, 0)
	psnr, err := imgutil.PSNR(img.Pix, same.Pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 48 {
		t.Fatalf("n=0 should be near-identity, PSNR %.1f", psnr)
	}
	// Removing 6 HF bands changes pixels but only subtly (the paper's
	// "indistinguishable by human eyes").
	psnr6, err := imgutil.PSNR(img.Pix, out.Pix)
	if err != nil {
		t.Fatal(err)
	}
	if psnr6 >= psnr {
		t.Fatal("removing bands did not change the image")
	}
	if psnr6 < 20 {
		t.Fatalf("removing 6 HF bands destroyed the image: PSNR %.1f", psnr6)
	}
	// Verify the bands are actually gone: re-analyze the filtered image.
	acc := freqstat.NewAccumulator()
	acc.AddGray(out)
	stats, err := acc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	mask := qtable.TopZigZag(6)
	for band := 0; band < 64; band++ {
		if mask[band] && stats.Std[band] > 0.51 {
			t.Fatalf("band %d still has σ = %.2f after removal", band, stats.Std[band])
		}
	}
}

func TestRemoveHFComponentsRGB(t *testing.T) {
	cfg := dataset.Quick()
	cfg.Color = true
	cfg.TrainPerClass, cfg.TestPerClass = 2, 1
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := RemoveHFComponentsRGB(train.Images[0], 9)
	if out.W != train.Images[0].W {
		t.Fatal("dimensions changed")
	}
	if bytes.Equal(out.Pix, train.Images[0].Pix) {
		t.Fatal("no change applied")
	}
}
