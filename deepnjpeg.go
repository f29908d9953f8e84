// Package deepnjpeg is the public API of the DeepN-JPEG reproduction: a
// deep-neural-network-favorable JPEG compression framework (Liu et al.,
// DAC 2018). Instead of the human-visual-system quantization table that
// ships with JPEG, DeepN-JPEG derives a table from the statistics of the
// dataset itself — per-band DCT coefficient standard deviations mapped
// through a piece-wise linear function — preserving the frequency content
// DNN classifiers rely on. The paper reports ~3.5× the compression of
// quality-matched JPEG on ImageNet. On this repository's synthetic
// dataset the margin is much smaller: DeepN-JPEG reaches compression
// ratio 2.61 against 2.41 for JPEG QF 50 (deepn-experiments Fig. 8,
// quick profile), and 2.02 against 1.94 on the paper profile.
//
// Typical use:
//
//	codec, err := deepnjpeg.Calibrate(trainImages, deepnjpeg.CalibrateConfig{})
//	data, err := codec.Encode(img)       // DeepN-JPEG compressed (real JFIF)
//	img2, err := deepnjpeg.Decode(data)  // decodable by any JPEG decoder
//
// The emitted streams are standard baseline JFIF: any JPEG decoder
// (including Go's image/jpeg) reads them.
//
// # Batch throughput
//
// The paper motivates DeepN-JPEG with the image volume of IoT and
// data-center DNN systems, where the codec is an inner-loop primitive
// invoked millions of times. For that regime the package offers a
// concurrent batch API — Codec.EncodeBatch, Codec.EncodeGrayBatch and
// DecodeBatch — that fans items across a worker pool with
// order-preserving results, per-item error collection and context
// cancellation:
//
//	streams, err := codec.EncodeBatch(ctx, imgs, deepnjpeg.BatchOptions{})
//	imgs2, err := deepnjpeg.DecodeBatch(ctx, streams, deepnjpeg.BatchOptions{})
//
// A Codec is safe for concurrent use: the hot path draws its scratch
// (color planes, coefficient grids, entropy buffers) from sync.Pools, so
// steady-state encodes allocate little and workers never contend on
// shared mutable state.
//
// # Block transform
//
// Every encode, decode and calibration runs one 8×8 DCT: the
// Arai–Agui–Nakajima fast transform over flat batches of blocks. Its
// scale factors are folded into the quantization tables (libjpeg's
// scaled-table trick): the codec runs only the raw butterflies and
// quantizes through fused divisors derived once per encode, so the hot
// loop is a single multiply or divide per coefficient with no descale
// pass. The emitted coefficients equal those of the textbook
// DCT quantized by the integer steps — the floating-point differences,
// folding included, are absorbed by the tie-snapping quantizer — and
// decoded pixels are within one grey level of the textbook inverse.
//
// Within one image, restart intervals are the unit of parallelism: a
// frame of at least 1024 MCUs split into two or more restart segments
// (EncodeOptions.RestartInterval) runs every stage across up to
// GOMAXPROCS workers. Encode converts color over MCU-row bands, then
// transforms and quantizes block rows, then entropy-codes the segments;
// decode entropy-decodes the segments, then reconstructs block rows,
// then converts color over row bands. The codec makes that choice
// itself, and frames without a restart interval run sequentially;
// output bytes and decoded pixels are identical to a sequential run.
//
// Decode-side buffers are reusable too: DecodeInto fills a caller-owned
// image and DecodeBatchInto a caller-owned slice of them, making the
// steady-state decode loop allocation-free on top of the pooled decoder
// state every decode already shares; the batch APIs additionally keep
// one decoded working set per pool worker for the life of a batch.
//
// # Archive requantization
//
// Requantize, RequantizeBatch and their RequantizeJPEG counterparts
// re-target existing baseline or progressive JPEG streams onto new
// tables entirely in the coefficient domain — each coefficient
// dequantized with the coded table and requantized with the new one in
// exact integer arithmetic — skipping the IDCT→pixels→DCT round trip and
// its second generation loss; no pixel is reconstructed on the way. The
// output is always a baseline stream. This is how a storage system
// retrofits DeepN-JPEG tables onto an archive of already-compressed
// images. Any legal baseline sampling layout transcodes (4:4:4, 4:2:2,
// 4:2:0, 4:4:0, 4:1:1, …), and the source's APPn/COM segments — EXIF,
// ICC profiles, comments — pass through byte-identical unless
// RequantizeOptions.StripMetadata opts out.
//
// # Calibration profiles
//
// Calibration is the expensive step — a statistics pass over the whole
// training set — and its product is worth managing like any model
// artifact. SaveProfile persists a calibrated Codec as a named,
// versioned, CRC-protected profile file (including the quantization
// tables, the fitted mapping, and the per-band statistics they came
// from); LoadProfile and NewCodecFromProfile restore it, producing
// streams byte-identical to the original codec:
//
//	err  = codec.SaveProfile("profiles/imagenet@1.dnp",
//	    deepnjpeg.ProfileMeta{Name: "imagenet", Version: 1})
//	p, _ := deepnjpeg.LoadProfile("profiles/imagenet@1.dnp")
//	codec2, _ := deepnjpeg.NewCodecFromProfile(p)
//
// A directory of profiles becomes a serving registry: ServerOptions.
// ProfileDir loads it, DefaultProfile selects the table set the server
// boots with (no startup calibration), tenants pin their own default via
// TenantLimits.Profile, and any request may select one with ?profile=
// name or name@version. The `deepn-jpeg calibrate` and `deepn-jpeg
// profiles` subcommands write, list, inspect and verify profile files
// from the command line.
//
// # Serving over HTTP
//
// NewServer wraps a calibrated Codec in a multi-tenant HTTP service
// (POST /v1/encode, /v1/decode, /v1/requantize, multipart /v1/batch,
// GET /healthz and /metrics) that dispatches through the same pooled
// hot paths as the batch API, with per-API-key concurrency limits and
// request accounting:
//
//	srv, err := deepnjpeg.NewServer(codec, deepnjpeg.ServerOptions{})
//	go srv.ListenAndServe(":8080")
//	...
//	err = srv.Shutdown(ctx) // graceful: drains in-flight requests
//
// The same service is reachable from the command line as
// `deepn-jpeg serve`; see the README for endpoint and curl details.
package deepnjpeg

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/pipeline"
	"repro/internal/plm"
	"repro/internal/profile"
	"repro/internal/qtable"
	"repro/internal/server"
)

// Image is an interleaved 8-bit RGB image.
type Image = imgutil.RGB

// Gray is a single-plane 8-bit grayscale image.
type Gray = imgutil.Gray

// QuantTable is a 64-entry JPEG quantization table in row-major order.
type QuantTable = qtable.Table

// Subsampling selects the chroma layout of color encodes. The decoder
// side accepts any legal baseline factor combination regardless of this
// option.
type Subsampling = jpegcodec.Subsampling

const (
	// Sub420 halves chroma both ways (2×2 luma factors), the default.
	Sub420 = jpegcodec.Sub420
	// Sub444 keeps chroma at full resolution.
	Sub444 = jpegcodec.Sub444
	// Sub422 halves chroma horizontally only.
	Sub422 = jpegcodec.Sub422
	// Sub440 halves chroma vertically only.
	Sub440 = jpegcodec.Sub440
	// Sub411 quarters chroma horizontally.
	Sub411 = jpegcodec.Sub411
)

// ParseSubsampling maps the conventional ratio notation ("444", "422",
// "420", "440", "411") onto a Subsampling value, as the CLI and server
// surfaces do.
func ParseSubsampling(v string) (Subsampling, error) { return jpegcodec.ParseSubsampling(v) }

// NewImage allocates a zeroed color image.
func NewImage(w, h int) *Image { return imgutil.NewRGB(w, h) }

// NewGray allocates a zeroed grayscale image.
func NewGray(w, h int) *Gray { return imgutil.NewGray(w, h) }

// CalibrateConfig tunes the calibration flow. The zero value follows the
// paper: every image sampled, magnitude-based band segmentation, anchors
// from the published sensitivity sweeps.
type CalibrateConfig struct {
	// SampleEvery keeps every k-th image per class (Algorithm 1); ≤1 keeps
	// all.
	SampleEvery int
	// Chroma additionally calibrates a chroma table from Cb/Cr statistics.
	Chroma bool
	// UsePaperParams applies the published ImageNet PLM constants instead
	// of fitting to this dataset.
	UsePaperParams bool
}

// Codec is a calibrated DeepN-JPEG encoder/decoder.
type Codec struct {
	fw *core.Framework
}

// Calibrate runs the DeepN-JPEG design flow on a labeled image set:
// frequency component analysis, band segmentation by δ magnitude, and
// piece-wise linear mapping to a quantization table. labels[i] is the
// class of images[i]; classes drive the stratified sampling. The
// result depends only on the images, labels and cfg, not on GOMAXPROCS.
func Calibrate(images []*Image, labels []int, cfg CalibrateConfig) (*Codec, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("deepnjpeg: no images")
	}
	if len(images) != len(labels) {
		return nil, fmt.Errorf("deepnjpeg: %d images but %d labels", len(images), len(labels))
	}
	ds := &dataset.Dataset{Images: images, Labels: labels, Size: images[0].W}
	fw, err := core.Calibrate(ds, core.CalibrateOptions{
		SampleEvery:    cfg.SampleEvery,
		Chroma:         cfg.Chroma,
		UsePaperParams: cfg.UsePaperParams,
	})
	if err != nil {
		return nil, err
	}
	return &Codec{fw: fw}, nil
}

// LumaTable returns the calibrated luminance quantization table.
func (c *Codec) LumaTable() QuantTable { return c.fw.LumaTable }

// ChromaTable returns the chrominance quantization table (calibrated when
// CalibrateConfig.Chroma was set, Annex-K/QF-95 otherwise).
func (c *Codec) ChromaTable() QuantTable { return c.fw.ChromaTable }

// BandSigma returns the measured standard deviation δ(i,j) of the DCT
// band at natural index n (v*8+u), the statistic the table derives from.
func (c *Codec) BandSigma(n int) float64 { return c.fw.Stats.Std[n] }

// PLMParams returns the fitted piece-wise linear mapping parameters.
func (c *Codec) PLMParams() plm.Params { return c.fw.Params }

// Encode compresses a color image with the calibrated tables (4:2:0).
func (c *Codec) Encode(img *Image) ([]byte, error) {
	return c.fw.Scheme().EncodeRGB(img)
}

// EncodeGray compresses a grayscale image with the calibrated luma table.
func (c *Codec) EncodeGray(img *Gray) ([]byte, error) {
	return c.fw.Scheme().EncodeGray(img)
}

// EncodeOptions tunes the stream-shaping knobs of EncodeWith and
// EncodeGrayWith beyond the calibrated defaults of Encode.
type EncodeOptions struct {
	// RestartInterval inserts RSTn markers every n MCUs when > 0 (valid
	// range [0, 65535] — the DRI payload is 16-bit). Restart segments
	// bound error propagation in the stream and are the unit of
	// single-image parallelism on both the encode and decode side: a
	// frame of at least 1024 MCUs in two or more segments runs color
	// conversion, transform and entropy coding across workers, and its
	// decode runs entropy decoding, reconstruction and color conversion
	// across workers.
	RestartInterval int
	// OptimizeHuffman derives per-image Huffman tables (two-pass encode),
	// matching libjpeg's -optimize flag.
	OptimizeHuffman bool
	// Subsampling selects the chroma layout (Sub420 by default); ignored
	// by the grayscale encoders.
	Subsampling Subsampling
}

// EncodeWith is Encode with explicit stream-shaping options — restart
// intervals, Huffman optimization, chroma subsampling — on top of the
// calibrated tables.
func (c *Codec) EncodeWith(img *Image, opts EncodeOptions) ([]byte, error) {
	s := c.fw.Scheme()
	s.Opts.RestartInterval = opts.RestartInterval
	s.Opts.OptimizeHuffman = opts.OptimizeHuffman
	s.Opts.Subsampling = opts.Subsampling
	return s.EncodeRGB(img)
}

// EncodeGrayWith is EncodeGray with explicit stream-shaping options.
func (c *Codec) EncodeGrayWith(img *Gray, opts EncodeOptions) ([]byte, error) {
	s := c.fw.Scheme()
	s.Opts.RestartInterval = opts.RestartInterval
	s.Opts.OptimizeHuffman = opts.OptimizeHuffman
	return s.EncodeGray(img)
}

// BatchOptions configures the concurrent batch API.
type BatchOptions struct {
	// Workers is the worker-pool size; ≤ 0 selects runtime.GOMAXPROCS.
	// The pool never exceeds the number of items.
	Workers int
}

// BatchError aggregates the per-item failures of a batch call. Use
// errors.As to recover it from a batch API error and inspect which
// indices failed; all other items completed normally.
type BatchError = pipeline.BatchError

// ItemError is one entry of a BatchError.
type ItemError = pipeline.ItemError

// EncodeBatch compresses a batch of color images concurrently with the
// calibrated tables. streams[i] corresponds to imgs[i] regardless of
// scheduling. Items that fail leave a nil entry and are reported through
// a *BatchError; canceling ctx stops unstarted items and the returned
// error then matches ctx.Err. The Codec is safe for concurrent use, so
// one Codec can serve many in-flight batches.
func (c *Codec) EncodeBatch(ctx context.Context, imgs []*Image, opts BatchOptions) ([][]byte, error) {
	scheme := c.fw.Scheme()
	return pipeline.Map(ctx, len(imgs), opts.Workers, func(_ context.Context, i int) ([]byte, error) {
		return scheme.EncodeRGB(imgs[i])
	})
}

// EncodeGrayBatch compresses a batch of grayscale images concurrently
// with the calibrated luma table, under the same contract as EncodeBatch.
func (c *Codec) EncodeGrayBatch(ctx context.Context, imgs []*Gray, opts BatchOptions) ([][]byte, error) {
	scheme := c.fw.Scheme()
	return pipeline.Map(ctx, len(imgs), opts.Workers, func(_ context.Context, i int) ([]byte, error) {
		return scheme.EncodeGray(imgs[i])
	})
}

// DecodeOptions configures the decode-side APIs.
type DecodeOptions struct {
	// MaxPixels rejects streams whose declared width×height exceeds it
	// (0 = unlimited). Set it when decoding untrusted bytes: the decoder
	// sizes its working set from the header, so a tiny hostile stream can
	// otherwise demand gigabytes.
	MaxPixels int
}

// DecodeBatch decodes a batch of baseline JFIF/JPEG streams concurrently
// under the same contract as EncodeBatch: out[i] decodes streams[i],
// failed items stay nil and surface through a *BatchError. Each pool
// worker holds one Decoded working set for the whole batch, so only the
// output images themselves are allocated per item.
func DecodeBatch(ctx context.Context, streams [][]byte, opts BatchOptions) ([]*Image, error) {
	return DecodeBatchInto(ctx, streams, nil, opts, DecodeOptions{})
}

// DecodeBatchInto is DecodeBatch with explicit decode options and
// optional output reuse: when dst is non-nil it must have one entry per
// stream (entries may be nil), item i decodes into dst[i]'s buffers, and
// dst itself is returned. A transcode loop that keeps its dst slice
// across batches therefore stops paying per-image output allocations.
// Items that fail decode leave their dst entry untouched and surface
// through a *BatchError, as in DecodeBatch.
func DecodeBatchInto(ctx context.Context, streams [][]byte, dst []*Image, opts BatchOptions, dopts DecodeOptions) ([]*Image, error) {
	if dst == nil {
		dst = make([]*Image, len(streams))
	} else if len(dst) != len(streams) {
		return nil, fmt.Errorf("deepnjpeg: %d reuse buffers for %d streams", len(dst), len(streams))
	}
	jopts := jpegcodec.DecodeOptions{MaxPixels: dopts.MaxPixels}
	// One Decoded per pool worker, checked out for the whole batch: items
	// share their worker's planes instead of cycling them through the
	// pool per stream.
	nw := pipeline.Workers(opts.Workers, len(streams))
	decs := make([]*jpegcodec.Decoded, nw)
	for w := range decs {
		decs[w] = decodedPool.Get().(*jpegcodec.Decoded)
	}
	defer func() {
		for _, d := range decs {
			decodedPool.Put(d)
		}
	}()
	err := pipeline.RunWorker(ctx, len(streams), opts.Workers, func(_ context.Context, w, i int) error {
		if err := jpegcodec.DecodeBytes(streams[i], decs[w], &jopts); err != nil {
			return err
		}
		dst[i] = decs[w].RGBInto(dst[i])
		return nil
	})
	return dst, err
}

// decodedPool recycles the intermediate Decoded working sets behind
// Decode/DecodeInto/DecodeGray: only the final image escapes to the
// caller, so planes, coefficient grids and table maps are reused across
// calls (and across workers — each concurrent decode checks out its own).
var decodedPool = sync.Pool{New: func() any { return new(jpegcodec.Decoded) }}

// Decode parses any baseline or progressive JFIF/JPEG stream into a
// color image.
func Decode(data []byte) (*Image, error) {
	return DecodeInto(nil, data, DecodeOptions{})
}

// DecodeInto is Decode with explicit options, reusing dst's pixel buffer
// when its capacity suffices. A nil dst allocates a fresh image; the
// decoded image is returned either way. On error dst is unchanged.
func DecodeInto(dst *Image, data []byte, opts DecodeOptions) (*Image, error) {
	dec := decodedPool.Get().(*jpegcodec.Decoded)
	defer decodedPool.Put(dec)
	jopts := jpegcodec.DecodeOptions{MaxPixels: opts.MaxPixels}
	if err := jpegcodec.DecodeBytes(data, dec, &jopts); err != nil {
		return nil, err
	}
	return dec.RGBInto(dst), nil
}

// DecodeGray parses a baseline or progressive JFIF/JPEG stream and
// returns its luma plane.
func DecodeGray(data []byte) (*Gray, error) {
	dec := decodedPool.Get().(*jpegcodec.Decoded)
	defer decodedPool.Put(dec)
	if err := jpegcodec.DecodeBytes(data, dec, nil); err != nil {
		return nil, err
	}
	return dec.Gray(), nil
}

// StreamInfo is the marker-structure report of Inspect: every segment
// in stream order, the parsed frame header, and each scan's
// spectral-selection and successive-approximation parameters.
type StreamInfo = jpegcodec.StreamInfo

// UnsupportedFormatError reports a JPEG coding process this codec does
// not decode (arithmetic coding, lossless, hierarchical). Inspect still
// walks such streams; Decode returns this error, and the HTTP server
// maps it to a 415 unsupported_format response.
type UnsupportedFormatError = jpegcodec.UnsupportedFormatError

// Inspect walks a JPEG stream's marker structure without decoding
// entropy data. It tolerates coding processes Decode rejects, which is
// when a structure dump is most useful; on a truncated stream it
// returns the readable prefix alongside the error.
func Inspect(data []byte) (*StreamInfo, error) {
	return jpegcodec.Inspect(bytes.NewReader(data))
}

// EncodeJPEG compresses with the standard Annex-K tables at a quality
// factor (the baseline DeepN-JPEG is compared against).
func EncodeJPEG(img *Image, qf int) ([]byte, error) {
	luma, chroma, err := stdTables(qf)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	opts := jpegcodec.Options{LumaTable: luma, ChromaTable: chroma}
	if err := jpegcodec.EncodeRGB(&buf, img, &opts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// stdTables scales the Annex-K reference tables to a quality factor.
func stdTables(qf int) (luma, chroma QuantTable, err error) {
	if luma, err = qtable.Scale(qtable.StdLuminance, qf); err != nil {
		return luma, chroma, err
	}
	chroma, err = qtable.Scale(qtable.StdChrominance, qf)
	return luma, chroma, err
}

// RequantizeOptions configures the coefficient-domain requantization
// APIs. The zero value emits standard Huffman tables and applies no
// frame-size limit.
type RequantizeOptions struct {
	// OptimizeHuffman derives per-stream Huffman tables (two-pass),
	// matching libjpeg's -optimize flag.
	OptimizeHuffman bool
	// MaxPixels rejects source frames larger than this (0 = unlimited),
	// as in DecodeOptions.MaxPixels.
	MaxPixels int
	// RestartInterval controls the output stream's restart interval:
	// 0 preserves the source stream's interval (transcoding is
	// structure-preserving by default), a negative value strips restart
	// markers, and a positive value ≤ 65535 sets a new interval.
	RestartInterval int
	// StripMetadata drops the source stream's APPn/COM segments (EXIF,
	// ICC profiles, comments) instead of passing them through
	// byte-identical, which is the default.
	StripMetadata bool
}

// Requantize re-targets an existing baseline or progressive JPEG stream
// onto the codec's calibrated tables entirely in the coefficient domain,
// emitting a baseline stream: coefficients are dequantized with the
// table they were coded with and requantized with the calibrated one,
// skipping the IDCT→pixels→DCT round trip and its second generation
// loss. This is how a storage system retrofits DeepN-JPEG tables onto an
// archive of already-compressed JPEGs.
func (c *Codec) Requantize(src []byte, opts RequantizeOptions) ([]byte, error) {
	dec := decodedPool.Get().(*jpegcodec.Decoded)
	defer decodedPool.Put(dec)
	return requantizeInto(dec, src, c.fw.LumaTable, c.fw.ChromaTable, opts)
}

// RequantizeBatch requantizes a batch of JPEG streams onto the codec's
// calibrated tables concurrently, under the batch contract of
// EncodeBatch: out[i] requantizes streams[i], failed items stay nil and
// surface through a *BatchError. Each pool worker reuses one decoded
// working set for the whole batch.
func (c *Codec) RequantizeBatch(ctx context.Context, streams [][]byte, bopts BatchOptions, opts RequantizeOptions) ([][]byte, error) {
	return requantizeBatch(ctx, streams, c.fw.LumaTable, c.fw.ChromaTable, bopts, opts)
}

// RequantizeJPEG is Requantize onto the standard Annex-K tables scaled to
// a quality factor — coefficient-domain re-targeting of an existing
// baseline or progressive JPEG, emitted as baseline, without a
// calibrated codec.
func RequantizeJPEG(src []byte, qf int, opts RequantizeOptions) ([]byte, error) {
	luma, chroma, err := stdTables(qf)
	if err != nil {
		return nil, err
	}
	dec := decodedPool.Get().(*jpegcodec.Decoded)
	defer decodedPool.Put(dec)
	return requantizeInto(dec, src, luma, chroma, opts)
}

// RequantizeJPEGBatch is RequantizeBatch onto the standard Annex-K tables
// scaled to a quality factor.
func RequantizeJPEGBatch(ctx context.Context, streams [][]byte, qf int, bopts BatchOptions, opts RequantizeOptions) ([][]byte, error) {
	luma, chroma, err := stdTables(qf)
	if err != nil {
		return nil, err
	}
	return requantizeBatch(ctx, streams, luma, chroma, bopts, opts)
}

// requantizeInto decodes src into dec and re-encodes its coefficients
// under the given tables. dec's buffers are reused across calls.
func requantizeInto(dec *jpegcodec.Decoded, src []byte, luma, chroma QuantTable, opts RequantizeOptions) ([]byte, error) {
	dopts := jpegcodec.DecodeOptions{MaxPixels: opts.MaxPixels}
	if err := jpegcodec.DecodeBytes(src, dec, &dopts); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	jopts := jpegcodec.Options{
		OptimizeHuffman: opts.OptimizeHuffman,
		RestartInterval: opts.RestartInterval,
		StripMetadata:   opts.StripMetadata,
	}
	if err := jpegcodec.Requantize(&buf, dec, luma, chroma, &jopts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// requantizeBatch fans requantizeInto across the worker pool with one
// Decoded working set per worker.
func requantizeBatch(ctx context.Context, streams [][]byte, luma, chroma QuantTable, bopts BatchOptions, opts RequantizeOptions) ([][]byte, error) {
	nw := pipeline.Workers(bopts.Workers, len(streams))
	decs := make([]*jpegcodec.Decoded, nw)
	for w := range decs {
		decs[w] = decodedPool.Get().(*jpegcodec.Decoded)
	}
	defer func() {
		for _, d := range decs {
			decodedPool.Put(d)
		}
	}()
	return pipeline.MapWorker(ctx, len(streams), bopts.Workers, func(_ context.Context, w, i int) ([]byte, error) {
		return requantizeInto(decs[w], streams[i], luma, chroma, opts)
	})
}

// Profile is a persisted calibration artifact: named, versioned,
// CRC-protected, carrying the quantization tables plus the statistics
// and mapping parameters that produced them. See repro/internal/profile
// for the on-disk format.
type Profile = profile.Profile

// ProfileMeta names a calibration being saved as a profile.
type ProfileMeta struct {
	// Name identifies the calibration (typically the dataset or task):
	// 1..64 characters of [a-z0-9._-], starting with a letter or digit.
	Name string
	// Version distinguishes successive calibrations under one name
	// (≥ 1); registries resolve a bare name to its highest version.
	Version uint32
	// Comment is free-form provenance.
	Comment string
	// CreatedUnix stamps the profile; 0 means time.Now.
	CreatedUnix int64
}

// Profile captures the codec's calibration as a persistable profile.
func (c *Codec) Profile(meta ProfileMeta) (*Profile, error) {
	if meta.CreatedUnix == 0 {
		meta.CreatedUnix = time.Now().Unix()
	}
	return profile.FromFramework(c.fw, profile.Meta{
		Name:        meta.Name,
		Version:     meta.Version,
		Comment:     meta.Comment,
		CreatedUnix: meta.CreatedUnix,
	})
}

// SaveProfile persists the codec's calibration to path (conventionally
// <name>@<version>.dnp) with an atomic write, so profile directories
// being served never expose a torn file.
func (c *Codec) SaveProfile(path string, meta ProfileMeta) error {
	p, err := c.Profile(meta)
	if err != nil {
		return err
	}
	return p.Write(path)
}

// LoadProfile reads and verifies one profile file (magic, structure,
// CRC).
func LoadProfile(path string) (*Profile, error) { return profile.Read(path) }

// NewCodecFromProfile restores the codec a profile was saved from. The
// restored codec produces streams byte-identical to the original — the
// property that makes profiles safe substitutes for boot-time
// calibration.
func NewCodecFromProfile(p *Profile) (*Codec, error) {
	fw, err := p.Framework()
	if err != nil {
		return nil, err
	}
	return &Codec{fw: fw}, nil
}

// TenantLimits configures one API key of a Server.
type TenantLimits = server.TenantConfig

// ServerOptions configures NewServer. The zero value serves open access
// (no API keys) with conservative body/dimension/concurrency limits.
type ServerOptions struct {
	// MaxBodyBytes caps request bodies (default 32 MiB → 413 beyond).
	MaxBodyBytes int64
	// MaxPixels caps the declared dimensions of any image the server
	// parses or decodes (default 1<<24), rejecting allocation bombs
	// before a buffer is sized from a hostile header.
	MaxPixels int
	// BatchWorkers sizes the worker pool of one /v1/batch request;
	// ≤ 0 selects GOMAXPROCS.
	BatchWorkers int
	// MaxBatchItems caps the part count of a /v1/batch request
	// (default 256).
	MaxBatchItems int
	// Tenants maps API keys to per-tenant limits; empty serves open
	// access through a single anonymous tenant.
	Tenants map[string]TenantLimits
	// MaxInFlight is the per-tenant concurrent-request cap used when a
	// tenant doesn't set its own (default 16). Requests beyond the cap
	// answer 429 immediately instead of queueing.
	MaxInFlight int
	// ProfileDir, when set, loads a registry of persisted calibration
	// profiles (*.dnp) that requests select with ?profile=name[@version]
	// and tenants pin via TenantLimits.Profile. POST /admin/profiles/
	// reload rescans it without a restart.
	ProfileDir string
	// DefaultProfile serves the named profile as the default table set
	// instead of the Codec passed to NewServer (which may then be nil).
	// Requires ProfileDir.
	DefaultProfile string
	// ProfileWatch, when positive, polls ProfileDir at this interval and
	// hot-reloads changed profiles automatically. The watcher stops at
	// Shutdown.
	ProfileWatch time.Duration
	// AdminKey, when set, gates the /admin/* endpoints (profile reload)
	// behind its own key, so ordinary codec tenants cannot trigger
	// administrative actions. Empty leaves admin endpoints behind the
	// normal tenant gate only.
	AdminKey string
	// HubOrigin, when set, attaches a profile-hub client to the profile
	// registry: references that miss locally (including DefaultProfile at
	// boot) are pulled from this origin, verified, and materialized into
	// ProfileDir; each ProfileWatch tick syncs newly published profiles.
	// Requires ProfileDir.
	HubOrigin string
	// HubCacheDir is the hub client's local content-addressed cache
	// (default: <ProfileDir>/.hub-cache).
	HubCacheDir string
	// HubTrustedKey, when set, requires the hub index and every pulled
	// profile to verify against this Ed25519 public key.
	HubTrustedKey ed25519.PublicKey
}

// Server is the HTTP front end of a calibrated Codec: POST /v1/encode,
// /v1/decode and /v1/requantize move single images, POST /v1/batch moves
// many through the concurrent batch pipeline, and GET /healthz and
// /metrics expose liveness and expvar-style accounting. Every request
// dispatches through the same pooled codec hot paths as the Go batch
// API; per-tenant concurrency gates keep one caller from starving the
// rest. See the package README for the wire format and curl examples.
type Server struct {
	s *server.Server
}

// NewServer builds the HTTP service around the codec's calibrated
// tables. The Codec stays usable (and safe) for direct calls while the
// server runs. c may be nil when ServerOptions.DefaultProfile names the
// profile to serve instead — the profile-backed server needs no boot-time
// calibration at all.
func NewServer(c *Codec, opts ServerOptions) (*Server, error) {
	var fw *core.Framework
	if c != nil {
		fw = c.fw
	}
	s, err := server.New(server.Options{
		Framework:      fw,
		MaxBodyBytes:   opts.MaxBodyBytes,
		MaxPixels:      opts.MaxPixels,
		BatchWorkers:   opts.BatchWorkers,
		MaxBatchItems:  opts.MaxBatchItems,
		Tenants:        opts.Tenants,
		MaxInFlight:    opts.MaxInFlight,
		ProfileDir:     opts.ProfileDir,
		DefaultProfile: opts.DefaultProfile,
		ProfileWatch:   opts.ProfileWatch,
		AdminKey:       opts.AdminKey,
		HubOrigin:      opts.HubOrigin,
		HubCacheDir:    opts.HubCacheDir,
		HubTrustedKey:  opts.HubTrustedKey,
	})
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// ServingProfile describes the default table set a Server is serving.
// Name is empty when the server runs on an in-memory Codec rather than
// a persisted profile.
type ServingProfile struct {
	Name         string
	Version      uint32
	SampledCount int
}

// ServingProfile reports what the server's default requests run
// against right now; after a hot reload it reflects the freshly
// resolved profile.
func (s *Server) ServingProfile() ServingProfile {
	name, version, sampled := s.s.ServingProfile()
	return ServingProfile{Name: name, Version: version, SampledCount: sampled}
}

// Handler returns the route table for mounting under an external
// http.Server (httptest, custom TLS, a shared mux).
func (s *Server) Handler() http.Handler { return s.s.Handler() }

// Serve accepts connections on l until Shutdown; it returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error { return s.s.Serve(l) }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error { return s.s.ListenAndServe(addr) }

// Shutdown gracefully stops Serve/ListenAndServe: the listener closes
// immediately and in-flight requests run to completion (or until ctx
// expires).
func (s *Server) Shutdown(ctx context.Context) error { return s.s.Shutdown(ctx) }

// PSNR computes peak signal-to-noise between two equal-size images.
func PSNR(a, b *Image) (float64, error) {
	return imgutil.PSNR(a.Pix, b.Pix)
}

// CompressionRatio is reference size ÷ compressed size, the paper's CR.
func CompressionRatio(referenceBytes, compressedBytes int) float64 {
	return core.CompressionRatio(int64(referenceBytes), int64(compressedBytes))
}
