// Package core implements the DeepN-JPEG framework itself — the paper's
// primary contribution. It wires the pipeline of Fig. 4 end to end:
//
//  1. sample the labeled dataset (Algorithm 1, freqstat.StratifiedIndices),
//  2. characterize per-band DCT coefficient statistics (freqstat),
//  3. segment bands by δ magnitude and fit the piece-wise linear mapping
//     (plm), and
//  4. emit a DNN-favorable quantization table consumed by the from-scratch
//     baseline JPEG codec (jpegcodec).
//
// It also defines the compression Schemes the evaluation compares —
// Original (QF 100), JPEG at a quality factor, RM-HF, SAME-Q and
// DeepN-JPEG — together with dataset transcoding and compression-ratio
// accounting used by every experiment.
package core

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/dct"
	"repro/internal/freqstat"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/pipeline"
	"repro/internal/plm"
	"repro/internal/qtable"
)

// CalibrateOptions controls the DeepN-JPEG design flow.
type CalibrateOptions struct {
	// Anchors are the sensitivity-sweep anchor points (Fig. 5/6). The zero
	// value uses the paper's anchors.
	Anchors plm.Anchors
	// SampleEvery is Algorithm 1's per-class sampling interval k; ≤1 uses
	// every image.
	SampleEvery int
	// UsePaperParams bypasses fitting and applies the published ImageNet
	// constants directly (the "no calibration" ablation).
	UsePaperParams bool
	// Chroma additionally calibrates a chroma table from the Cb/Cr planes;
	// otherwise the Annex-K chroma table scaled to QF 95 is used.
	Chroma bool
	// PositionBased switches band segmentation to the zig-zag position
	// baseline (the Fig. 5 comparison); thresholds then come from the δ
	// values at the positional boundaries.
	PositionBased bool
	// Workers fans the frequency-statistics accumulation across a worker
	// pool. Values ≤ 1 run it as one chunk on one worker. Each worker owns a
	// deterministic contiguous slice of the sampled images and the partial
	// accumulators merge in worker order, so a given worker count always
	// produces the same result regardless of goroutine scheduling.
	Workers int
}

// Framework is a calibrated DeepN-JPEG instance.
type Framework struct {
	Params       plm.Params
	Seg          freqstat.Segmentation
	Stats        *freqstat.Stats
	ChromaStats  *freqstat.Stats // nil unless calibrated
	LumaTable    qtable.Table
	ChromaTable  qtable.Table
	SampledCount int // images used for calibration
}

// Calibrate runs the full design flow on a labeled dataset.
func Calibrate(ds *dataset.Dataset, opts CalibrateOptions) (*Framework, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if opts.Anchors == (plm.Anchors{}) {
		opts.Anchors = plm.PaperAnchors()
	}
	idx := freqstat.StratifiedIndices(ds.Labels, opts.SampleEvery)
	if len(idx) == 0 {
		return nil, fmt.Errorf("core: sampling interval %d selected no images", opts.SampleEvery)
	}
	acc, chromaAcc := accumulateStats(ds, idx, opts.Chroma, opts.Workers)
	stats, err := acc.Stats()
	if err != nil {
		return nil, fmt.Errorf("core: luma statistics: %w", err)
	}

	f := &Framework{Stats: stats, SampledCount: len(idx)}
	if opts.PositionBased {
		f.Seg = freqstat.SegmentByPosition()
		// Positional segmentation has no natural δ thresholds; take them
		// from the δ values at the positional class boundaries.
		f.Seg.T1 = stats.Std[f.Seg.ByRank[freqstat.LFCount+freqstat.MFCount]]
		f.Seg.T2 = stats.Std[f.Seg.ByRank[freqstat.LFCount]]
	} else {
		f.Seg = freqstat.SegmentByMagnitude(stats)
	}

	if opts.UsePaperParams {
		f.Params = plm.PaperImageNet()
	} else {
		p, err := plm.Fit(opts.Anchors, f.Seg.T1, f.Seg.T2, stats.MaxStd())
		if err != nil {
			return nil, fmt.Errorf("core: fitting PLM: %w", err)
		}
		f.Params = p
	}
	f.LumaTable, err = f.Params.Table(stats)
	if err != nil {
		return nil, err
	}

	if opts.Chroma {
		cstats, err := chromaAcc.Stats()
		if err != nil {
			return nil, fmt.Errorf("core: chroma statistics: %w", err)
		}
		f.ChromaStats = cstats
		f.ChromaTable, err = f.Params.Table(cstats)
		if err != nil {
			return nil, err
		}
	} else {
		f.ChromaTable = qtable.MustScale(qtable.StdChrominance, 95)
	}
	return f, nil
}

// Restore rebuilds a Framework from persisted calibration state — the
// statistics, PLM parameters and tables a calibration profile carries —
// without rerunning the design flow. The segmentation is recomputed from
// the statistics by δ magnitude (the paper's proposal and the only
// segmentation persisted profiles are written from); everything the
// encode, decode and requantize paths consume (tables, statistics) is
// taken verbatim, so a restored Framework encodes byte-identically to the
// one it was saved from.
func Restore(params plm.Params, stats, chromaStats *freqstat.Stats, luma, chroma qtable.Table, sampled int) (*Framework, error) {
	if stats == nil {
		return nil, fmt.Errorf("core: Restore needs luma statistics")
	}
	if err := luma.Validate(); err != nil {
		return nil, fmt.Errorf("core: restored luma table: %w", err)
	}
	if err := chroma.Validate(); err != nil {
		return nil, fmt.Errorf("core: restored chroma table: %w", err)
	}
	return &Framework{
		Params:       params,
		Seg:          freqstat.SegmentByMagnitude(stats),
		Stats:        stats,
		ChromaStats:  chromaStats,
		LumaTable:    luma,
		ChromaTable:  chroma,
		SampledCount: sampled,
	}, nil
}

// accumulateStats folds the sampled images into per-band accumulators,
// one per chunk, on the pipeline worker pool. Each chunk is a contiguous
// slice of idx fixed by index arithmetic, and the partial accumulators
// merge in chunk order, so the outcome depends only on the worker count
// — never on goroutine scheduling. One chunk (workers ≤ 1) folds every
// image in order with nothing to merge. With chroma, each image converts
// to YCbCr once: Y feeds the luma accumulator, Cb then Cr the chroma one.
func accumulateStats(ds *dataset.Dataset, idx []int, chroma bool, workers int) (luma, chromaAcc *freqstat.Accumulator) {
	chunks := max(1, min(workers, len(idx)))
	lumaParts := make([]*freqstat.Accumulator, chunks)
	chromaParts := make([]*freqstat.Accumulator, chunks)
	pipeline.Run(context.Background(), chunks, chunks, func(_ context.Context, c int) error {
		la, ca := freqstat.NewAccumulator(), freqstat.NewAccumulator()
		var p imgutil.Planes
		for _, i := range idx[c*len(idx)/chunks : (c+1)*len(idx)/chunks] {
			im := ds.Images[i]
			if !chroma {
				la.AddRGBLuma(im)
				continue
			}
			p.FromRGB(im)
			la.AddPlane(p.Y, im.W, im.H)
			ca.AddPlane(p.Cb, im.W, im.H)
			ca.AddPlane(p.Cr, im.W, im.H)
		}
		lumaParts[c], chromaParts[c] = la, ca
		return nil
	})
	luma, chromaAcc = lumaParts[0], chromaParts[0]
	for c := 1; c < chunks; c++ {
		luma.Merge(lumaParts[c])
		chromaAcc.Merge(chromaParts[c])
	}
	return luma, chromaAcc
}

// Scheme names one compression configuration of the evaluation.
type Scheme struct {
	Name string
	Opts jpegcodec.Options
}

// SchemeOriginal is the paper's reference point: JPEG at QF 100 (CR = 1).
func SchemeOriginal() Scheme {
	return Scheme{Name: "original", Opts: jpegcodec.Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 100),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 100),
	}}
}

// SchemeJPEG is standard JPEG at a quality factor.
func SchemeJPEG(qf int) Scheme {
	return Scheme{Name: fmt.Sprintf("jpeg-qf%d", qf), Opts: jpegcodec.Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, qf),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, qf),
	}}
}

// SchemeRMHF removes the top-n zig-zag bands from the QF-100 table.
func SchemeRMHF(n int) Scheme {
	tbl, mask := qtable.RMHF(n)
	return Scheme{Name: fmt.Sprintf("rm-hf%d", n), Opts: jpegcodec.Options{
		LumaTable:   tbl,
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 100),
		ZeroMask:    &mask,
	}}
}

// SchemeSameQ quantizes every band with the same step.
func SchemeSameQ(q int) Scheme {
	return Scheme{Name: fmt.Sprintf("same-q%d", q), Opts: jpegcodec.Options{
		LumaTable:   qtable.Uniform(q),
		ChromaTable: qtable.Uniform(q),
	}}
}

// Scheme returns the calibrated DeepN-JPEG scheme: the framework's
// current luma and chroma tables over the codec's defaults.
func (f *Framework) Scheme() Scheme {
	return Scheme{Name: "deepn-jpeg", Opts: jpegcodec.Options{
		LumaTable:   f.LumaTable,
		ChromaTable: f.ChromaTable,
	}}
}

// EncodeGray compresses a grayscale image under the scheme.
func (s Scheme) EncodeGray(img *imgutil.Gray) ([]byte, error) {
	var buf bytes.Buffer
	opts := s.Opts
	if err := jpegcodec.EncodeGray(&buf, img, &opts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeRGB compresses a color image under the scheme.
func (s Scheme) EncodeRGB(img *imgutil.RGB) ([]byte, error) {
	var buf bytes.Buffer
	opts := s.Opts
	if err := jpegcodec.EncodeRGB(&buf, img, &opts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TranscodeResult is a dataset pushed through a compress–decompress round
// trip, with size accounting for compression-ratio and energy analyses.
type TranscodeResult struct {
	Dataset    *dataset.Dataset
	TotalBytes int64
}

// Transcode compresses and decompresses every image of a dataset under a
// scheme. gray encodes only the luma plane (faster; used by the quick
// experiment profiles), otherwise full color.
func Transcode(ds *dataset.Dataset, s Scheme, gray bool) (*TranscodeResult, error) {
	var total int64
	out, err := ds.Map(func(im *imgutil.RGB) (*imgutil.RGB, error) {
		var data []byte
		var err error
		if gray {
			data, err = s.EncodeGray(im.ToGray())
		} else {
			data, err = s.EncodeRGB(im)
		}
		if err != nil {
			return nil, err
		}
		total += int64(len(data))
		var dec jpegcodec.Decoded
		if err := jpegcodec.DecodeBytes(data, &dec, nil); err != nil {
			return nil, err
		}
		return dec.RGB(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: transcoding with %s: %w", s.Name, err)
	}
	return &TranscodeResult{Dataset: out, TotalBytes: total}, nil
}

// CompressedSize returns the total bytes of the dataset under a scheme
// without decoding (for size-only sweeps).
func CompressedSize(ds *dataset.Dataset, s Scheme, gray bool) (int64, error) {
	var total int64
	for i, im := range ds.Images {
		var data []byte
		var err error
		if gray {
			data, err = s.EncodeGray(im.ToGray())
		} else {
			data, err = s.EncodeRGB(im)
		}
		if err != nil {
			return 0, fmt.Errorf("core: sizing image %d with %s: %w", i, s.Name, err)
		}
		total += int64(len(data))
	}
	return total, nil
}

// CompressionRatio is original size ÷ scheme size, the paper's CR metric.
func CompressionRatio(originalBytes, schemeBytes int64) float64 {
	if schemeBytes <= 0 {
		return 0
	}
	return float64(originalBytes) / float64(schemeBytes)
}

// RemoveHFComponents reproduces the Fig. 3 manipulation: per 8×8 block,
// forward DCT, zero the top-n zig-zag bands, inverse DCT — no
// quantization, so the only change is the removed high-frequency content.
func RemoveHFComponents(img *imgutil.Gray, n int) *imgutil.Gray {
	mask := qtable.TopZigZag(n)
	out := img.Clone()
	grid := imgutil.GridFor(img.W, img.H)
	var tile [64]uint8
	var blk dct.Block
	for by := 0; by < grid.BlocksY; by++ {
		for bx := 0; bx < grid.BlocksX; bx++ {
			imgutil.ExtractBlock(img.Pix, img.W, img.H, bx, by, &tile)
			dct.LevelShift(tile[:], &blk)
			dct.ForwardAANBatch(blk[:])
			for i := 0; i < 64; i++ {
				if mask[i] {
					blk[i] = 0
				}
			}
			dct.InverseAANBatch(blk[:])
			dct.LevelUnshift(&blk, tile[:])
			imgutil.StoreBlock(out.Pix, img.W, img.H, bx, by, &tile)
		}
	}
	return out
}

// RemoveHFComponentsRGB applies RemoveHFComponents to each channel.
func RemoveHFComponentsRGB(img *imgutil.RGB, n int) *imgutil.RGB {
	out := imgutil.NewRGB(img.W, img.H)
	for ch := 0; ch < 3; ch++ {
		plane := imgutil.NewGray(img.W, img.H)
		for i := 0; i < img.W*img.H; i++ {
			plane.Pix[i] = img.Pix[3*i+ch]
		}
		filtered := RemoveHFComponents(plane, n)
		for i := 0; i < img.W*img.H; i++ {
			out.Pix[3*i+ch] = filtered.Pix[i]
		}
	}
	return out
}
