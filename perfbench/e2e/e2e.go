// Package e2e runs the benchmark's end-to-end workloads. It drives the
// program only through package repro's public API — Calibrate, the
// batch and single-image codec calls, NewServer over loopback — and
// leaves every Transform and ShardWorkers field at its zero value, so
// the defaults a user gets are what is measured. Every wall-clock
// figure is taken against a yardstick: the standard library's
// image/jpeg doing the matching operation on the same inputs with the
// same goroutine count, in slices interleaved with the program's
// within the same run. The yardstick is the same code on every commit,
// so its speed tracks the host and the ratio cancels the host's drift.
package e2e

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/jpeg"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	deepnjpeg "repro"

	"repro/perfbench/inputs"
	"repro/perfbench/stats"
)

// NominalYardstickMpxPerS is the speed the set-up yardstick (stdlib
// jpeg.Encode of the canonical frames on one goroutine) is rescaled to.
// It was read off the host the bounds were set on (2 vCPU x86-64 VM);
// it only fixes the unit of setup_s and needs no update elsewhere.
const NominalYardstickMpxPerS = 20.0

// LargeRestart is the restart interval of the large frames' DeepN-JPEG
// streams: one MCU row of a 1024-wide 4:2:0 frame, 64 segments per
// frame, enough for the decoder's automatic sharding to engage.
const LargeRestart = 64

// SetupRepeats is how often a run performs the program's set-up; setup_s
// is the median.
const SetupRepeats = 3

// setupYardBudget is the yardstick stretch run right before and right
// after each set-up.
const setupYardBudget = 120 * time.Millisecond

// Units names the unit of every end-to-end metric.
var Units = map[string]string{
	"setup_s":       "s",
	"tput_x_stdlib": "ratio",
	"p50_x_stdlib":  "ratio",
	"p99_x_stdlib":  "ratio",
	"bits_per_px":   "bit/px",
	"psnr_db":       "dB",
	"peak_rss_mb":   "MiB",
}

// psnrFloorDB is the per-frame floor every decoded result must clear.
// Calibrated DeepN-JPEG frames of this corpus decode around 30–40 dB;
// a broken decoder or a garbled stream lands far below.
const psnrFloorDB = 22.0

// Names lists the workloads in the order BENCHMARK.json declares them.
var Names = []string{"ingest-encode", "train-decode", "archive-requantize", "serve-mix"}

// Bench is one workload's program state between set-up and the timed
// phase.
type Bench struct {
	Workload string
	In       *inputs.Set
	Codec    *deepnjpeg.Codec
	// Streams are the program's encodes of In.Frames: the train-decode
	// corpus and the serve-mix decode bodies.
	Streams [][]byte

	// SetupRaw and SetupScaled are the raw and yardstick-rescaled
	// seconds of each set-up repeat; SetupYard is the set-up yardstick
	// speed (Mpx/s) around each.
	SetupRaw, SetupScaled, SetupYard []float64
	SetupPeakMB                      float64

	// BitsPerPx and PSNR come from the untimed check pass and repeat
	// exactly for a seed.
	BitsPerPx, PSNR float64

	// OnOp, when set, is called after every serve-mix request with its
	// kind, sequence number, start and duration; the traced run records
	// spans through it. It is nil in the end-to-end run.
	OnOp func(name string, id int, start time.Time, d time.Duration)

	srcs    []*deepnjpeg.Image // In.Sources(): the frames, then the large frames
	rgba    []image.Image      // stdlib views of srcs
	memo    [][]byte
	memoImg [][]byte
	serve   *serveState

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string
}

// Attempted and Failed count program operations (frames or requests)
// and those that errored or failed an output check.
func (b *Bench) Attempted() int64 { return b.attempted.Load() }
func (b *Bench) Failed() int64    { return b.failed.Load() }

// Failures returns the first few failure reasons.
func (b *Bench) Failures() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.failures...)
}

func (b *Bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.failures) < 8 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// verify counts one attempted operation and records err, if any, as
// its failure.
func (b *Bench) verify(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.fail("%v", err)
	}
}

// Prepare synthesizes the inputs for seed, runs the workload's set-up
// repeats times (timed against the yardstick), then runs the untimed
// check pass that validates every distinct output and memoizes it.
func Prepare(ctx context.Context, workload string, seed int64, repeats int) (*Bench, error) {
	w, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, Names)
	}
	in, err := inputs.Build(seed, inputs.Default())
	if err != nil {
		return nil, err
	}
	b := &Bench{Workload: workload, In: in, srcs: in.Sources()}
	for _, f := range b.srcs {
		b.rgba = append(b.rgba, f.ToImage())
	}
	var cleanups []func()
	for r := 0; r < repeats; r++ {
		before := yardSetup(b)
		t0 := time.Now()
		cleanup, err := w.setup(ctx, b)
		raw := time.Since(t0)
		after := yardSetup(b)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", workload, err)
		}
		if r < repeats-1 && cleanup != nil {
			cleanups = append(cleanups, cleanup)
		}
		yard := stats.Rate(float64(before.Px+after.Px)/1e6, before.Dur+after.Dur)
		b.SetupRaw = append(b.SetupRaw, raw.Seconds())
		b.SetupYard = append(b.SetupYard, yard)
		b.SetupScaled = append(b.SetupScaled, stats.RescaleSetup(raw.Seconds(), yard, NominalYardstickMpxPerS))
	}
	for _, c := range cleanups {
		c()
	}
	if err := w.check(b); err != nil {
		b.Close()
		return nil, fmt.Errorf("%s check pass: %w", workload, err)
	}
	return b, nil
}

// Close stops whatever the set-up started (the serve-mix server).
func (b *Bench) Close() {
	if b.serve != nil {
		b.serve.stop()
	}
}

// VerifyFrame counts one program operation on frame i and checks its
// output against the checked one; i < 0 records a batch-level error.
func (b *Bench) VerifyFrame(i int, out []byte, err error) {
	switch {
	case i < 0:
		b.verify(err)
	case b.memoImg != nil:
		b.verify(same(out, err, b.memoImg[i], i))
	default:
		b.verify(same(out, err, b.memo[i], i))
	}
}

// DropSetupData releases what only set-up needed — the calibration
// corpus — and resets the peak-RSS counter (see ReleaseSetupMemory).
func (b *Bench) DropSetupData() error {
	b.In.Corpus, b.In.Labels = nil, nil
	peak, err := ReleaseSetupMemory()
	b.SetupPeakMB = peak
	return err
}

// Phases builds the workload's interleaved program/yardstick phases.
func (b *Bench) Phases() []*Phase { return workloads[b.Workload].phases(b) }

// yardSetup is the set-up yardstick: stdlib jpeg.Encode of the
// canonical frames on one goroutine, like the single-threaded
// calibration it brackets.
func yardSetup(b *Bench) Slice {
	var buf bytes.Buffer
	start := time.Now()
	var px int64
	for i := 0; time.Since(start) < setupYardBudget; i++ {
		buf.Reset()
		f := b.In.Frames[i%len(b.In.Frames)]
		_ = jpeg.Encode(&buf, b.rgba[i%len(b.In.Frames)], nil)
		px += int64(f.W * f.H)
	}
	return Slice{Px: px, Dur: time.Since(start)}
}

// Measurement is the timed phase's outcome.
type Measurement struct {
	Metrics map[string]float64 // end-to-end metrics, BENCHMARK.json names
	Raw     map[string]float64 // raw clocks behind the ratios
	Notes   []string           // sample counts and the like
}

// Measure runs the interleaved timed phase for total and derives the
// end-to-end metrics.
func (b *Bench) Measure(total time.Duration) (*Measurement, error) {
	phases := b.Phases()
	Interleave(total, phases)
	peak, err := PeakRSSMB()
	if err != nil {
		return nil, err
	}
	tput, lat := phases[0], phases[len(phases)-1]
	progLat, yardLat := LatencyMs(lat.ProgSlices), LatencyMs(lat.YardSlices)
	p50, _, ok50 := stats.Percentile(progLat, 0.50)
	p99, beyond, ok99 := stats.Percentile(progLat, 0.99)
	if !ok50 || !ok99 {
		return nil, fmt.Errorf("%d latency samples: too few for a p99 with %d beyond it", len(progLat), stats.MinBeyond)
	}
	yardMed := stats.Median(yardLat)
	progPx, progDur := Totals(tput.ProgSlices)
	yardPx, yardDur := Totals(tput.YardSlices)
	m := &Measurement{
		Metrics: map[string]float64{
			"setup_s":       stats.Median(b.SetupScaled),
			"tput_x_stdlib": tput.TputRatio(),
			"p50_x_stdlib":  p50 / yardMed,
			"p99_x_stdlib":  p99 / yardMed,
			"bits_per_px":   b.BitsPerPx,
			"psnr_db":       b.PSNR,
			"peak_rss_mb":   peak,
		},
		Raw: map[string]float64{
			"raw.setup_s":          stats.Median(b.SetupRaw),
			"raw.mpx_per_s":        stats.Rate(float64(progPx)/1e6, progDur),
			"raw.p50_ms":           p50,
			"raw.p99_ms":           p99,
			"yardstick.mpx_per_s":  stats.Rate(float64(yardPx)/1e6, yardDur),
			"yardstick.p50_ms":     yardMed,
			"yardstick.setup_mpxs": stats.Median(b.SetupYard),
		},
		Notes: []string{
			fmt.Sprintf("throughput: %d slice pairs (%s)", len(tput.ProgSlices), tput.Name),
			fmt.Sprintf("latency: %d program samples (%d beyond p99), %d yardstick samples (%s)",
				len(progLat), beyond, len(yardLat), lat.Name),
		},
	}
	return m, nil
}

// SortedKeys returns a map's keys in order, for stable printing.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
