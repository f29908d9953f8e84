package e2e

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"time"

	deepnjpeg "repro"

	"repro/perfbench/inputs"
	"repro/perfbench/stats"
)

// latencyBudget is the length of one single-operation slice; it is
// about one 64-frame batch, so the two phases of a round weigh the same.
const latencyBudget = 250 * time.Millisecond

// largeEvery makes every 50th single-frame call of a goroutine a
// 1024² frame. With 2% large calls the p99 falls inside the large-call
// population rather than on the host's rare stalls, which is what lets a
// run of about a thousand samples report it steadily; it also puts
// planes that outgrow the cache on every workload's latency path.
const largeEvery = 50

// minLatency is the sample count each side needs per run: with it the
// p99 has at least stats.MinBeyond samples beyond it.
const minLatency = 100 * stats.MinBeyond

type workload struct {
	// setup is the program's own set-up, timed as setup_s; cleanup (if
	// any) undoes it for all but the last repeat.
	setup func(ctx context.Context, b *Bench) (cleanup func(), err error)
	// check is the untimed pass that validates every distinct output
	// once, memoizes it, and fixes bits_per_px and psnr_db.
	check func(b *Bench) error
	// phases pairs program and yardstick slices for the timed phase:
	// throughput first, latency last (one phase may serve both).
	phases func(b *Bench) []*Phase
}

var workloads = map[string]workload{
	"ingest-encode":      {setup: calibrate, check: checkIngest, phases: ingestPhases},
	"train-decode":       {setup: trainSetup, check: checkTrain, phases: trainPhases},
	"archive-requantize": {setup: calibrate, check: checkArchive, phases: archivePhases},
	"serve-mix":          {setup: serveSetup, check: checkServe, phases: servePhases},
}

// calibrate is the set-up every workload starts with: the paper's
// design flow over the seeded calibration corpus, default options.
func calibrate(_ context.Context, b *Bench) (func(), error) {
	c, err := deepnjpeg.Calibrate(b.In.Corpus, b.In.Labels, deepnjpeg.CalibrateConfig{})
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	b.Codec = c
	return nil, nil
}

// trainSetup is a training job's time to first epoch: calibrate, then
// encode the training corpus once.
func trainSetup(ctx context.Context, b *Bench) (func(), error) {
	if _, err := calibrate(ctx, b); err != nil {
		return nil, err
	}
	streams, err := b.Codec.EncodeBatch(ctx, b.In.Frames, deepnjpeg.BatchOptions{Workers: Workers})
	if err != nil {
		return nil, fmt.Errorf("encoding the training corpus: %w", err)
	}
	// The large frames carry restart intervals, so their decode shards.
	for _, f := range b.In.Large {
		s, err := b.Codec.EncodeWith(f, deepnjpeg.EncodeOptions{RestartInterval: LargeRestart})
		if err != nil {
			return nil, fmt.Errorf("encoding a large training frame: %w", err)
		}
		streams = append(streams, s)
	}
	b.Streams = streams
	return nil, nil
}

// --- check pass -----------------------------------------------------

func checkIngest(b *Bench) error {
	var ps stats.PSNR
	var bits int64
	b.memo = make([][]byte, len(b.srcs))
	for i, f := range b.srcs {
		out, err := b.Codec.Encode(f)
		if err == nil {
			err = stdDecodes(out, f, b.quality(i, &ps))
		}
		b.verify(err)
		if err == nil {
			b.memo[i] = out
		}
		if i < len(b.In.Frames) {
			bits += 8 * int64(len(out))
		}
	}
	b.setQuality(bits, &ps)
	return nil
}

func checkTrain(b *Bench) error {
	var ps stats.PSNR
	var bits int64
	b.memoImg = make([][]byte, len(b.srcs))
	var scratch stats.PSNR
	for i, f := range b.srcs {
		s := b.Streams[i]
		if i < len(b.In.Frames) {
			bits += 8 * int64(len(s))
		}
		// The training streams are encode outputs: stdlib must read them.
		err := stdDecodes(s, f, &scratch)
		var img *deepnjpeg.Image
		if err == nil {
			img, err = deepnjpeg.DecodeInto(nil, s, deepnjpeg.DecodeOptions{})
		}
		if err == nil {
			err = decodedMatches(img.W, img.H, img.Pix, f, b.quality(i, &ps))
		}
		b.verify(err)
		if err == nil {
			b.memoImg[i] = img.Pix
		}
	}
	b.setQuality(bits, &ps)
	return nil
}

func checkArchive(b *Bench) error {
	var ps stats.PSNR
	var bits int64
	b.memo = make([][]byte, len(b.srcs))
	for i, f := range b.srcs {
		out, err := b.Codec.Requantize(b.In.Archive[i], deepnjpeg.RequantizeOptions{})
		if err == nil {
			err = requantized(out, b.In.APP1[i])
		}
		if err == nil {
			err = stdDecodes(out, f, b.quality(i, &ps))
		}
		b.verify(err)
		if err == nil {
			b.memo[i] = out
		}
		if i < len(b.In.Frames) {
			bits += 8 * int64(len(out))
		}
	}
	b.setQuality(bits, &ps)
	return nil
}

// setQuality fixes bits_per_px and psnr_db. Both cover the 64 canonical
// frames only: two large frames would otherwise weigh as much as the
// whole batch and make the figures swing from seed to seed.
func (b *Bench) setQuality(bits int64, ps *stats.PSNR) {
	b.BitsPerPx = float64(bits) / float64(inputs.Pixels(b.In.Frames))
	b.PSNR = ps.DB()
}

// quality is the pool source i's PSNR joins: ps for a canonical frame,
// a throwaway one for a large frame (which must still clear the floor).
func (b *Bench) quality(i int, ps *stats.PSNR) *stats.PSNR {
	if i < len(b.In.Frames) {
		return ps
	}
	return new(stats.PSNR)
}

// stdDecodes checks that the standard library decodes out at src's
// size and that the result clears the PSNR floor against src.
func stdDecodes(out []byte, src *deepnjpeg.Image, ps *stats.PSNR) error {
	img, err := jpeg.Decode(bytes.NewReader(out))
	if err != nil {
		return fmt.Errorf("stdlib image/jpeg rejects the output: %w", err)
	}
	r := img.Bounds()
	return decodedMatches(r.Dx(), r.Dy(), rgbOf(img), src, ps)
}

// decodedMatches checks a decoded result's size and fidelity.
func decodedMatches(w, h int, pix []uint8, src *deepnjpeg.Image, ps *stats.PSNR) error {
	if w != src.W || h != src.H || len(pix) != len(src.Pix) {
		return fmt.Errorf("decoded %d×%d, source is %d×%d", w, h, src.W, src.H)
	}
	if db := ps.Add(pix, src.Pix); db < psnrFloorDB {
		return fmt.Errorf("decoded PSNR %.2f dB below the %.0f dB floor", db, psnrFloorDB)
	}
	return nil
}

// requantized checks that a requantize output is baseline (SOF0) and
// carries the source's APP1 byte-identical.
func requantized(out, app1 []byte) error {
	info, err := deepnjpeg.Inspect(out)
	if err != nil {
		return fmt.Errorf("inspecting requantize output: %w", err)
	}
	if info.Frame == nil || info.Frame.Marker != 0xC0 {
		return errors.New("requantize output is not SOF0 baseline")
	}
	for _, seg := range info.Segments {
		if seg.Marker != 0xE1 {
			continue
		}
		end := seg.Offset + 4 + int64(seg.Length)
		if end <= int64(len(out)) && bytes.Equal(out[seg.Offset:end], app1) {
			return nil
		}
	}
	return errors.New("requantize output lost the source APP1")
}

// rgbOf flattens a stdlib-decoded image to interleaved RGB.
func rgbOf(img image.Image) []uint8 {
	r := img.Bounds()
	out := make([]uint8, 0, 3*r.Dx()*r.Dy())
	if yc, ok := img.(*image.YCbCr); ok {
		for y := r.Min.Y; y < r.Max.Y; y++ {
			for x := r.Min.X; x < r.Max.X; x++ {
				yi, ci := yc.YOffset(x, y), yc.COffset(x, y)
				cr, cg, cb := color.YCbCrToRGB(yc.Y[yi], yc.Cb[ci], yc.Cr[ci])
				out = append(out, cr, cg, cb)
			}
		}
		return out
	}
	for y := r.Min.Y; y < r.Max.Y; y++ {
		for x := r.Min.X; x < r.Max.X; x++ {
			cr, cg, cb, _ := img.At(x, y).RGBA()
			out = append(out, uint8(cr>>8), uint8(cg>>8), uint8(cb>>8))
		}
	}
	return out
}

// --- timed phase ----------------------------------------------------

// same checks one timed output against the checked one.
func same(out []byte, err error, memo []byte, i int) error {
	switch {
	case err != nil:
		return fmt.Errorf("frame %d: %w", i, err)
	case memo == nil:
		return fmt.Errorf("frame %d failed its output check", i)
	case !bytes.Equal(out, memo):
		return fmt.Errorf("frame %d: output differs from the checked one", i)
	}
	return nil
}

// itemErr extracts item i's error from a batch error.
func itemErr(err error, i int) error {
	var be *deepnjpeg.BatchError
	if errors.As(err, &be) {
		for _, it := range be.Items {
			if it.Index == i {
				return it.Err
			}
		}
		return nil
	}
	return err
}

// pick maps goroutine g's n-th single call onto a source index: the
// goroutines stride through the batch together, and every largeEvery-th
// call takes a large frame instead.
func (b *Bench) pick(g, n int) int {
	frames, large := len(b.In.Frames), len(b.In.Large)
	if large > 0 && (n+1)%largeEvery == 0 {
		return frames + (g+n/largeEvery)%large
	}
	return (g + n*Workers) % frames
}

// batchPhases assembles the two phases of a batch workload: whole
// 64-frame batch calls against the yardstick's two goroutines working
// through the same 64 frames for as long as the batch call took, then
// single-frame calls on two goroutines against single stdlib
// operations on the same sources.
func batchPhases(b *Bench, batch func() (int64, func()), single func(g, i int) func(), std func(g, i int)) []*Phase {
	n := len(b.In.Frames)
	px := func(i int) int64 { return int64(b.srcs[i].W * b.srcs[i].H) }
	return []*Phase{
		{Name: "64-frame batch calls", Prog: Fixed(batch), MatchProg: true,
			Yard: Loop(func(g, k int) (int64, func()) { i := (g + k*Workers) % n; std(g, i); return px(i), nil })},
		{Name: "single-frame calls, 1 in 50 on a 1024² frame",
			Prog:   Loop(func(g, k int) (int64, func()) { i := b.pick(g, k); return px(i), single(g, i) }),
			Yard:   Loop(func(g, k int) (int64, func()) { i := b.pick(g, k); std(g, i); return px(i), nil }),
			Budget: latencyBudget, Latency: true, MinLatencyN: minLatency},
	}
}

// batchCheck verifies every item of one batch call.
func (b *Bench) batchCheck(n int, out func(i int) []byte, err error) func() {
	return func() {
		for i := 0; i < n; i++ {
			b.VerifyFrame(i, out(i), itemErr(err, i))
		}
	}
}

func ingestPhases(b *Bench) []*Phase {
	ctx := context.Background()
	frames := b.In.Frames
	var bufs [Workers]bytes.Buffer
	return batchPhases(b,
		func() (int64, func()) {
			outs, err := b.Codec.EncodeBatch(ctx, frames, deepnjpeg.BatchOptions{Workers: Workers})
			return inputs.Pixels(frames), b.batchCheck(len(frames), func(i int) []byte { return index(outs, i) }, err)
		},
		func(_, i int) func() {
			out, err := b.Codec.Encode(b.srcs[i])
			return func() { b.VerifyFrame(i, out, err) }
		},
		func(g, i int) {
			bufs[g].Reset()
			_ = jpeg.Encode(&bufs[g], b.rgba[i], nil)
		})
}

func trainPhases(b *Bench) []*Phase {
	ctx := context.Background()
	frames := b.In.Frames
	streams := b.Streams[:len(frames)]
	dst := make([]*deepnjpeg.Image, len(frames))
	var single [Workers]*deepnjpeg.Image
	return batchPhases(b,
		func() (int64, func()) {
			var err error
			dst, err = deepnjpeg.DecodeBatchInto(ctx, streams, dst, deepnjpeg.BatchOptions{Workers: Workers}, deepnjpeg.DecodeOptions{})
			return inputs.Pixels(frames), b.batchCheck(len(frames), func(i int) []byte {
				if dst == nil || dst[i] == nil {
					return nil
				}
				return dst[i].Pix
			}, err)
		},
		func(g, i int) func() {
			img, err := deepnjpeg.DecodeInto(single[g], b.Streams[i], deepnjpeg.DecodeOptions{})
			var pix []byte
			if err == nil {
				single[g], pix = img, img.Pix
			}
			return func() { b.VerifyFrame(i, pix, err) }
		},
		func(_, i int) { _, _ = jpeg.Decode(bytes.NewReader(b.Streams[i])) })
}

func archivePhases(b *Bench) []*Phase {
	ctx := context.Background()
	frames := b.In.Frames
	sources := b.In.Archive[:len(frames)]
	var bufs [Workers]bytes.Buffer
	return batchPhases(b,
		func() (int64, func()) {
			outs, err := b.Codec.RequantizeBatch(ctx, sources, deepnjpeg.BatchOptions{Workers: Workers}, deepnjpeg.RequantizeOptions{})
			return inputs.Pixels(frames), b.batchCheck(len(frames), func(i int) []byte { return index(outs, i) }, err)
		},
		func(_, i int) func() {
			out, err := b.Codec.Requantize(b.In.Archive[i], deepnjpeg.RequantizeOptions{})
			return func() { b.VerifyFrame(i, out, err) }
		},
		func(g, i int) {
			img, err := jpeg.Decode(bytes.NewReader(b.In.Archive[i]))
			if err != nil {
				return
			}
			bufs[g].Reset()
			_ = jpeg.Encode(&bufs[g], img, nil)
		})
}

// index is outs[i], or nil when the batch returned fewer items.
func index(outs [][]byte, i int) []byte {
	if i < len(outs) {
		return outs[i]
	}
	return nil
}
