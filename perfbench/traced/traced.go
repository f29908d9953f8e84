// Package traced is the benchmark's traced run. It replays each
// frame's work as separate calls into the exported functions of the
// program's modules — imgutil, dct, qtable, jpegcodec, pipeline, the
// server — recording one span per call in memory, and derives the
// per-layer metrics from those spans. It is the only harness code that
// imports the program's internal packages; the spans are written out
// when the run ends. Times are given per source pixel and, where a
// share is named, as a share of the same frame's end-to-end call, which
// ran interleaved with the replay and so cancels host drift.
package traced

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	deepnjpeg "repro"
	"repro/internal/dct"
	"repro/internal/freqstat"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/pipeline"
	"repro/internal/plm"

	"repro/perfbench/e2e"
	"repro/perfbench/inputs"
	"repro/perfbench/stats"
)

// Units lists every per-layer metric and its unit; the traced run
// prints all of them on every workload.
var Units = map[string]string{
	"core.calibrate_s":               "s",
	"core.setup_peak_rss_mb":         "MiB",
	"freqstat.accumulate_share":      "ratio",
	"freqstat.blocks":                "count",
	"imgutil.to_ycc_ns_px":           "ns/px",
	"imgutil.downsample_ns_px":       "ns/px",
	"dct.fdct_ns_px":                 "ns/px",
	"dct.blocks":                     "count",
	"jpegcodec.encode_ns_px":         "ns/px",
	"jpegcodec.quant_emit_ns_px":     "ns/px",
	"jpegcodec.bytes_out":            "bytes",
	"jpegcodec.parse_ns_px":          "ns/px",
	"jpegcodec.decode_ns_px":         "ns/px",
	"jpegcodec.entropy_decode_ns_px": "ns/px",
	"jpegcodec.bytes_in":             "bytes",
	"jpegcodec.mcus":                 "count",
	"qtable.dequant_ns_px":           "ns/px",
	"dct.idct_ns_px":                 "ns/px",
	"dct.idct_share":                 "ratio",
	"imgutil.upsample_rgb_ns_px":     "ns/px",
	"jpegcodec.requant_emit_ns_px":   "ns/px",
	"jpegcodec.meta_bytes":           "bytes",
	"jpegcodec.shard_speedup":        "ratio",
	"jpegcodec.restart_segments":     "count",
	"pipeline.busy_frac":             "ratio",
	"pipeline.wait_ms":               "ms",
	"pipeline.items":                 "count",
	"server.roundtrip_ms":            "ms",
	"server.handler_ms":              "ms",
	"server.overhead_ms":             "ms",
	"net.overhead_ms":                "ms",
	"server.requests":                "count",
	"server.failures":                "count",
	"server.rejected":                "count",
	"runtime.alloc_kb_per_frame":     "KiB",
	"runtime.gc_cycles":              "count",
	"runtime.gc_pause_ms":            "ms",
	"yardstick.mpx_per_s":            "Mpx/s",
	"raw.setup_s":                    "s",
	"raw.mpx_per_s":                  "Mpx/s",
	"raw.p50_ms":                     "ms",
	"raw.p99_ms":                     "ms",
	"trace.stage_sum_ratio":          "ratio",
	"trace.overhead":                 "ratio",
}

// engine is the block-transform engine the program runs by default
// (the zero value), so the replayed kernels are the ones a default
// encode or decode runs.
var engine dct.Transform

// calibrateReplays is how often the calibration is timed and replayed.
const calibrateReplays = 3

// serverRequests is how many requests the server replay times, a third
// each of encode, decode and requantize.
const serverRequests = 48

// Result is the traced run's outcome.
type Result struct {
	Metrics           map[string]float64
	Attempted, Failed int64
}

// Span is one recorded call.
type Span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`     // frame, batch item or request id
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func (r *recorder) begin(name string, parent, id int) int {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) time.Duration {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
	return time.Duration(now - r.spans[i].Start)
}

// time records fn as a span and returns its duration.
func (r *recorder) time(name string, parent, id int, fn func()) time.Duration {
	i := r.begin(name, parent, id)
	fn()
	return r.end(i)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Run performs the traced run of one workload and writes its spans to
// spansDir.
func Run(ctx context.Context, workload string, seed int64, total time.Duration, spansDir string, out io.Writer) (*Result, error) {
	b, err := e2e.Prepare(ctx, workload, seed, 1)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	fmt.Fprintf(out, "workload %s seed %d input digest %s (traced)\n", workload, seed, b.In.Digest)
	rec := &recorder{t0: time.Now()}
	m := map[string]float64{"raw.setup_s": b.SetupRaw[0]}

	if err := calibrateReplay(rec, b, m); err != nil {
		return nil, err
	}
	if err := b.DropSetupData(); err != nil {
		fmt.Fprintln(out, "note:", err)
	}
	m["core.setup_peak_rss_mb"] = b.SetupPeakMB

	// Untraced end-to-end measurement, as in a --trace 0 run: the raw
	// clocks and the baseline for the tracing overhead.
	meas, err := b.Measure(total)
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"raw.mpx_per_s", "raw.p50_ms", "raw.p99_ms", "yardstick.mpx_per_s"} {
		m[k] = meas.Raw[k]
	}
	tracedTput, err := tracedThroughput(ctx, rec, b, total/3, m)
	if err != nil {
		return nil, err
	}
	m["trace.overhead"] = tracedTput / meas.Metrics["tput_x_stdlib"]

	if err := stageReplay(rec, b, m); err != nil {
		return nil, err
	}
	if err := serverReplay(rec, b, m); err != nil {
		return nil, err
	}
	if err := shardReplay(rec, b, m); err != nil {
		return nil, err
	}

	for k := range Units {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("traced run of %s produced no %s", workload, k)
		}
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := rec.write(path); err != nil {
		fmt.Fprintln(out, "note: spans not written:", err)
	} else {
		fmt.Fprintf(out, "%d spans written to %s\n", len(rec.spans), path)
	}
	for _, k := range e2e.SortedKeys(m) {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", k, m[k], Units[k])
	}
	fmt.Fprintf(out, "fail_frac %d/%d\n", b.Failed(), b.Attempted())
	for _, f := range b.Failures() {
		fmt.Fprintln(out, "failure:", f)
	}
	return &Result{Metrics: m, Attempted: b.Attempted(), Failed: b.Failed()}, nil
}

// calibrateReplay times the public Calibrate and, beside it, replays
// its two stages from outside: the freqstat accumulation over the
// stratified sample and the plm fit and table mapping.
func calibrateReplay(rec *recorder, b *e2e.Bench, m map[string]float64) error {
	corpus, labels := b.In.Corpus, b.In.Labels
	var cal, acc []float64
	var blocks int64
	for r := 0; r < calibrateReplays; r++ {
		root := rec.begin("calibrate", -1, r)
		var err error
		d := rec.time("core.calibrate", root, r, func() {
			_, err = deepnjpeg.Calibrate(corpus, labels, deepnjpeg.CalibrateConfig{})
		})
		if err != nil {
			return err
		}
		cal = append(cal, d.Seconds())
		var st *freqstat.Stats
		a := freqstat.NewAccumulator()
		d = rec.time("freqstat.accumulate", root, r, func() {
			for _, i := range freqstat.StratifiedIndices(labels, 0) {
				a.AddRGBLuma(corpus[i])
			}
			st, err = a.Stats()
		})
		if err != nil {
			return err
		}
		acc = append(acc, d.Seconds())
		blocks = a.Blocks()
		rec.time("plm.fit", root, r, func() {
			seg := freqstat.SegmentByMagnitude(st)
			var p plm.Params
			if p, err = plm.Fit(plm.PaperAnchors(), seg.T1, seg.T2, st.MaxStd()); err == nil {
				_, err = p.Table(st)
			}
		})
		if err != nil {
			return err
		}
		rec.end(root)
	}
	m["core.calibrate_s"] = stats.Median(cal)
	m["freqstat.accumulate_share"] = stats.Median(acc) / stats.Median(cal)
	m["freqstat.blocks"] = float64(blocks)
	return nil
}

// rtCounters reads the runtime's allocation and GC counters.
type rtCounters struct {
	allocBytes, gcCycles, pauseNs uint64
}

func readRuntime() rtCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

// tracedThroughput reruns the throughput phase with tracing on. For the
// batch workloads the program side is a pipeline.MapWorker replay of
// the batch call with one span per item, which also yields the
// pipeline metrics; for serve-mix it is the same request slices with
// one span per request. Allocations are summed over the program slices
// only; GC cycles and pauses over the whole phase, because the
// yardstick's garbage sets when collections run. It returns the traced
// tput_x_stdlib.
func tracedThroughput(ctx context.Context, rec *recorder, b *e2e.Bench, total time.Duration, m map[string]float64) (float64, error) {
	phase := b.Phases()[0]
	var rt rtCounters
	var frames int64
	var pl pipelineStamps
	px := int64(b.In.Frames[0].W * b.In.Frames[0].H)
	if b.Workload == "serve-mix" {
		b.OnOp = func(name string, id int, start time.Time, d time.Duration) {
			s := int64(start.Sub(rec.t0))
			rec.mu.Lock()
			rec.spans = append(rec.spans, Span{Name: name, ID: id, Parent: -1, Start: s, End: s + int64(d)})
			rec.mu.Unlock()
		}
		defer func() { b.OnOp = nil }()
	} else {
		op := itemOp(b)
		phase.Prog = e2e.Fixed(func() (int64, func()) {
			outs, errs, err := pl.replay(ctx, rec, len(b.In.Frames), op)
			return px * int64(len(outs)), func() {
				for i := range outs {
					b.VerifyFrame(i, outs[i], errs[i])
				}
				if err != nil {
					b.VerifyFrame(-1, nil, err)
				}
			}
		})
	}
	prog := phase.Prog
	phase.Prog = func(budget time.Duration, quota []int) e2e.Slice {
		before := readRuntime()
		s := prog(budget, quota)
		rt.allocBytes += readRuntime().allocBytes - before.allocBytes
		frames += s.Px / px
		return s
	}
	start := readRuntime()
	e2e.Interleave(total, []*e2e.Phase{phase})
	end := readRuntime()
	rt.gcCycles, rt.pauseNs = end.gcCycles-start.gcCycles, end.pauseNs-start.pauseNs
	if b.Workload == "serve-mix" {
		// Requests do not go through the batch pool; replay the encode
		// batch once for the pipeline figures.
		if _, _, err := pl.replay(ctx, rec, len(b.In.Frames), func(_, i int) ([]byte, error) {
			return b.Codec.Encode(b.In.Frames[i])
		}); err != nil {
			return 0, err
		}
	}
	m["pipeline.busy_frac"] = pl.busy.Seconds() / pl.capacity.Seconds()
	m["pipeline.wait_ms"] = stats.Median(pl.waits)
	m["pipeline.items"] = float64(len(pl.waits))
	m["runtime.alloc_kb_per_frame"] = float64(rt.allocBytes) / 1024 / float64(frames)
	m["runtime.gc_cycles"] = float64(rt.gcCycles)
	m["runtime.gc_pause_ms"] = float64(rt.pauseNs) / 1e6
	return phase.TputRatio(), nil
}

// pipelineStamps accumulates the per-item stamps of MapWorker replays.
type pipelineStamps struct {
	batches        int
	busy, capacity time.Duration // item time; workers × batch wall time
	waits          []float64     // ms from batch start to item start
}

// replay runs one batch of n items through pipeline.MapWorker on the
// benchmark's worker count, as the batch APIs do, with a span per item.
func (pl *pipelineStamps) replay(ctx context.Context, rec *recorder, n int, op func(w, i int) ([]byte, error)) ([][]byte, []error, error) {
	root := rec.begin("pipeline.batch", -1, pl.batches)
	pl.batches++
	start := time.Now()
	starts := make([]time.Duration, n)
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	outs, err := pipeline.MapWorker(ctx, n, e2e.Workers, func(_ context.Context, w, i int) ([]byte, error) {
		starts[i] = time.Since(start)
		sp := rec.begin("pipeline.item", root, i)
		out, err := op(w, i)
		durs[i] = rec.end(sp)
		errs[i] = err
		return out, nil
	})
	pl.capacity += rec.end(root) * e2e.Workers
	for i := range durs {
		pl.busy += durs[i]
		pl.waits = append(pl.waits, float64(starts[i])/1e6)
	}
	return outs, errs, err
}

// itemOp is the per-item public call a workload's batch call makes.
func itemOp(b *e2e.Bench) func(w, i int) ([]byte, error) {
	switch b.Workload {
	case "train-decode":
		// One destination per item, reused across batches, as
		// DecodeBatchInto does: outputs are checked after the batch.
		dst := make([]*deepnjpeg.Image, len(b.In.Frames))
		return func(_, i int) ([]byte, error) {
			img, err := deepnjpeg.DecodeInto(dst[i], b.Streams[i], deepnjpeg.DecodeOptions{})
			if err != nil {
				return nil, err
			}
			dst[i] = img
			return img.Pix, nil
		}
	case "archive-requantize":
		return func(_, i int) ([]byte, error) {
			return b.Codec.Requantize(b.In.Archive[i], deepnjpeg.RequantizeOptions{})
		}
	default:
		return func(_, i int) ([]byte, error) { return b.Codec.Encode(b.In.Frames[i]) }
	}
}

// stageReplay replays every codec stage on this workload's inputs, one
// frame at a time: each frame's end-to-end public call, then each
// module's exported function in turn.
func stageReplay(rec *recorder, b *e2e.Bench, m map[string]float64) error {
	frames := b.In.Frames
	px := inputs.Pixels(frames)
	c := b.Codec
	t := map[string]time.Duration{}
	add := func(name string, parent, id int, fn func()) { t[name] += rec.time(name, parent, id, fn) }

	// Encode side.
	opts := jpegcodec.Options{LumaTable: c.LumaTable(), ChromaTable: c.ChromaTable()}
	var (
		planes    imgutil.Planes
		cb, cr    []uint8
		plane     []float64
		buf       bytes.Buffer
		fdctBlk   int
		bytesOut  int
		streams   [][]byte
		encodeErr error
	)
	for i, f := range frames {
		root := rec.begin("frame.encode", -1, i)
		add("e2e.encode", root, i, func() { _, encodeErr = c.Encode(f) })
		add("imgutil.to_ycc", root, i, func() { planes.FromRGB(f) })
		add("imgutil.downsample", root, i, func() {
			cb, _, _ = imgutil.DownsampleInto(cb, planes.Cb, f.W, f.H, 2, 2)
			cr, _, _ = imgutil.DownsampleInto(cr, planes.Cr, f.W, f.H, 2, 2)
		})
		cw, ch := (f.W+1)/2, (f.H+1)/2
		plane = blockPlane(blockPlane(blockPlane(plane[:0], planes.Y, f.W, f.H), cb, cw, ch), cr, cw, ch)
		add("dct.fdct", root, i, func() { engine.ForwardScaledBatch(plane) })
		fdctBlk += len(plane) / 64
		buf.Reset()
		add("jpegcodec.encode", root, i, func() {
			if err := jpegcodec.EncodeRGB(&buf, f, &opts); err != nil {
				encodeErr = err
			}
		})
		bytesOut += buf.Len()
		streams = append(streams, append([]byte(nil), buf.Bytes()...))
		rec.end(root)
		if encodeErr != nil {
			return fmt.Errorf("encode replay, frame %d: %w", i, encodeErr)
		}
	}
	nsPx := func(name string) float64 { return float64(t[name].Nanoseconds()) / float64(px) }
	m["imgutil.to_ycc_ns_px"] = nsPx("imgutil.to_ycc")
	m["imgutil.downsample_ns_px"] = nsPx("imgutil.downsample")
	m["dct.fdct_ns_px"] = nsPx("dct.fdct")
	m["dct.blocks"] = float64(fdctBlk)
	m["jpegcodec.encode_ns_px"] = nsPx("jpegcodec.encode")
	quantEmit := t["jpegcodec.encode"] - t["imgutil.to_ycc"] - t["imgutil.downsample"] - t["dct.fdct"]
	m["jpegcodec.quant_emit_ns_px"] = float64(quantEmit.Nanoseconds()) / float64(px)
	m["jpegcodec.bytes_out"] = float64(bytesOut)
	encodeSum := t["imgutil.to_ycc"] + t["imgutil.downsample"] + t["dct.fdct"] + max(quantEmit, 0)

	// Decode side, on the workload's own decode inputs: the archive
	// sources for archive-requantize, the program's streams otherwise.
	decIn := streams
	if b.Workload == "archive-requantize" {
		decIn = b.In.Archive[:len(frames)]
	} else if b.Streams != nil {
		decIn = b.Streams[:len(frames)]
	}
	dec := new(jpegcodec.Decoded)
	var dst, rgb *deepnjpeg.Image
	var bytesIn, mcus int
	for i, s := range decIn {
		root := rec.begin("frame.decode", -1, i)
		var err error
		add("e2e.decode", root, i, func() { dst, err = deepnjpeg.DecodeInto(dst, s, deepnjpeg.DecodeOptions{}) })
		if err != nil {
			return fmt.Errorf("decode replay, frame %d: %w", i, err)
		}
		var info *jpegcodec.StreamInfo
		add("jpegcodec.parse", root, i, func() { info, err = jpegcodec.Inspect(bytes.NewReader(s)) })
		if err != nil || info.Frame == nil {
			return fmt.Errorf("inspect replay, frame %d: %v", i, err)
		}
		add("jpegcodec.decode", root, i, func() { err = jpegcodec.DecodeInto(bytes.NewReader(s), dec, nil) })
		if err != nil {
			return fmt.Errorf("decode replay, frame %d: %w", i, err)
		}
		for ci := 0; ci < dec.Components; ci++ {
			blocks, _, _ := dec.Coefficients(ci)
			inv := dec.QuantTables[info.Frame.Components[ci].Tq].InvScaled(engine)
			plane = growFloats(plane, 64*len(blocks))
			add("qtable.dequant", root, i, func() { inv.DequantizeBlocks(plane, blocks) })
			add("dct.idct", root, i, func() { engine.InverseScaledBatch(plane) })
		}
		add("imgutil.upsample_rgb", root, i, func() { rgb = dec.RGBInto(rgb) })
		bytesIn += len(s)
		mcus += mcuCount(info.Frame)
		rec.end(root)
	}
	m["jpegcodec.parse_ns_px"] = nsPx("jpegcodec.parse")
	m["jpegcodec.decode_ns_px"] = nsPx("jpegcodec.decode")
	entropy := t["jpegcodec.decode"] - t["jpegcodec.parse"] - t["qtable.dequant"] - t["dct.idct"]
	m["jpegcodec.entropy_decode_ns_px"] = float64(entropy.Nanoseconds()) / float64(px)
	m["jpegcodec.bytes_in"] = float64(bytesIn)
	m["jpegcodec.mcus"] = float64(mcus)
	m["qtable.dequant_ns_px"] = nsPx("qtable.dequant")
	m["dct.idct_ns_px"] = nsPx("dct.idct")
	m["dct.idct_share"] = t["dct.idct"].Seconds() / t["e2e.decode"].Seconds()
	m["imgutil.upsample_rgb_ns_px"] = nsPx("imgutil.upsample_rgb")
	decodeSum := t["jpegcodec.parse"] + max(entropy, 0) + t["qtable.dequant"] + t["dct.idct"]

	// Requantize side, on the archive sources.
	var metaBytes int
	for i, a := range b.In.Archive[:len(frames)] {
		root := rec.begin("frame.requantize", -1, i)
		var err error
		add("e2e.requantize", root, i, func() { _, err = c.Requantize(a, deepnjpeg.RequantizeOptions{}) })
		if err == nil {
			add("jpegcodec.requant_decode", root, i, func() { err = jpegcodec.DecodeInto(bytes.NewReader(a), dec, nil) })
		}
		if err == nil {
			buf.Reset()
			add("jpegcodec.requant_emit", root, i, func() {
				err = jpegcodec.Requantize(&buf, dec, c.LumaTable(), c.ChromaTable(), &jpegcodec.Options{})
			})
		}
		if err != nil {
			return fmt.Errorf("requantize replay, frame %d: %w", i, err)
		}
		for _, seg := range dec.Metadata {
			metaBytes += len(seg.Payload)
		}
		rec.end(root)
	}
	m["jpegcodec.requant_emit_ns_px"] = nsPx("jpegcodec.requant_emit")
	m["jpegcodec.meta_bytes"] = float64(metaBytes)

	switch b.Workload {
	case "ingest-encode":
		m["trace.stage_sum_ratio"] = encodeSum.Seconds() / t["e2e.encode"].Seconds()
	case "train-decode":
		m["trace.stage_sum_ratio"] = (decodeSum + t["imgutil.upsample_rgb"]).Seconds() / t["e2e.decode"].Seconds()
	case "archive-requantize":
		// The archive decode stages ran on these very sources above.
		m["trace.stage_sum_ratio"] = (decodeSum + t["jpegcodec.requant_emit"]).Seconds() / t["e2e.requantize"].Seconds()
	}
	return nil
}

// serverReplay times requests three ways: the loopback round trip, the
// handler called in-process on the same body, and the library call the
// handler wraps.
func serverReplay(rec *recorder, b *e2e.Bench, m map[string]float64) error {
	srv, base, client, stop, err := e2e.StartServer(b.Codec)
	if err != nil {
		return err
	}
	defer stop()
	h := srv.Handler()
	frames := b.In.Frames
	streams := make([][]byte, len(frames))
	for i, f := range frames {
		if streams[i], err = b.Codec.Encode(f); err != nil {
			return err
		}
	}
	var rts, hds, ovs, nets []float64
	var sum, rtSum time.Duration
	var dst *deepnjpeg.Image
	for k := 0; k < serverRequests; k++ {
		i := k / 3 % len(frames)
		var path string
		var body []byte
		var lib func() error
		switch k % 3 {
		case 0:
			path, body = "/v1/encode", e2e.PPM(frames[i])
			lib = func() error { _, err := b.Codec.Encode(frames[i]); return err }
		case 1:
			path, body = "/v1/decode?format=ppm", streams[i]
			lib = func() error {
				var err error
				dst, err = deepnjpeg.DecodeInto(dst, streams[i], deepnjpeg.DecodeOptions{})
				return err
			}
		default:
			// The server requantizes with optimized Huffman tables by default.
			path, body = "/v1/requantize", b.In.Archive[i]
			lib = func() error {
				_, err := b.Codec.Requantize(b.In.Archive[i], deepnjpeg.RequantizeOptions{OptimizeHuffman: true})
				return err
			}
		}
		root := rec.begin("request", -1, k)
		var status int
		rt := rec.time("server.roundtrip", root, k, func() { status, err = post(client, base+path, body) })
		if err == nil && status/100 != 2 {
			err = fmt.Errorf("%s answered %d", path, status)
		}
		if err != nil {
			return fmt.Errorf("server replay: %w", err)
		}
		req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		rw := &discardWriter{h: http.Header{}}
		hd := rec.time("server.handler", root, k, func() { h.ServeHTTP(rw, req) })
		if rw.status/100 != 2 && rw.status != 0 {
			return fmt.Errorf("server replay: handler answered %d for %s", rw.status, path)
		}
		lb := rec.time("server.library", root, k, func() { err = lib() })
		if err != nil {
			return fmt.Errorf("server replay: library call: %w", err)
		}
		rec.end(root)
		rts = append(rts, ms(rt))
		hds = append(hds, ms(hd))
		ovs = append(ovs, ms(hd-lb))
		nets = append(nets, ms(rt-hd))
		sum += lb + max(hd-lb, 0) + max(rt-hd, 0)
		rtSum += rt
	}
	m["server.roundtrip_ms"] = stats.Median(rts)
	m["server.handler_ms"] = stats.Median(hds)
	m["server.overhead_ms"] = stats.Median(ovs)
	m["net.overhead_ms"] = stats.Median(nets)
	if b.Workload == "serve-mix" {
		m["trace.stage_sum_ratio"] = sum.Seconds() / rtSum.Seconds()
	}
	counts, err := e2e.ServerCounters(client, base)
	if err != nil {
		return err
	}
	m["server.requests"] = counts["requests"]
	m["server.failures"] = counts["failures"]
	m["server.rejected"] = counts["rejected"]
	return nil
}

// shardReplay decodes the large restart-interval frames sequentially
// and with the default (auto) sharding, alternating.
func shardReplay(rec *recorder, b *e2e.Bench, m map[string]float64) error {
	dec := new(jpegcodec.Decoded)
	var seq, auto time.Duration
	var segments int
	for j, f := range b.In.Large {
		s, err := b.Codec.EncodeWith(f, deepnjpeg.EncodeOptions{RestartInterval: e2e.LargeRestart})
		if err != nil {
			return err
		}
		info, err := jpegcodec.Inspect(bytes.NewReader(s))
		if err != nil || info.Frame == nil {
			return fmt.Errorf("inspecting large frame %d: %v", j, err)
		}
		segments = (mcuCount(info.Frame) + e2e.LargeRestart - 1) / e2e.LargeRestart
		for r := 0; r < 3; r++ {
			seq += rec.time("jpegcodec.decode_sequential", -1, j, func() {
				err = jpegcodec.DecodeInto(bytes.NewReader(s), dec, &jpegcodec.DecodeOptions{ShardWorkers: 1})
			})
			if err != nil {
				return err
			}
			auto += rec.time("jpegcodec.decode_auto", -1, j, func() {
				err = jpegcodec.DecodeInto(bytes.NewReader(s), dec, &jpegcodec.DecodeOptions{})
			})
			if err != nil {
				return err
			}
		}
	}
	m["jpegcodec.shard_speedup"] = seq.Seconds() / auto.Seconds()
	m["jpegcodec.restart_segments"] = float64(segments)
	return nil
}

// blockPlane appends the level-shifted 8×8 blocks of a sample plane
// (edge-replicated) to p in block-row order, the layout the batch DCT
// kernels take.
func blockPlane(p []float64, pix []uint8, w, h int) []float64 {
	g := imgutil.GridFor(w, h)
	var tile [64]uint8
	var blk dct.Block
	for by := 0; by < g.BlocksY; by++ {
		for bx := 0; bx < g.BlocksX; bx++ {
			imgutil.ExtractBlock(pix, w, h, bx, by, &tile)
			dct.LevelShift(tile[:], &blk)
			p = append(p, blk[:]...)
		}
	}
	return p
}

func growFloats(p []float64, n int) []float64 {
	if cap(p) < n {
		return make([]float64, n)
	}
	return p[:n]
}

// mcuCount is the number of MCUs of a frame header.
func mcuCount(f *jpegcodec.FrameInfo) int {
	maxH, maxV := 1, 1
	for _, c := range f.Components {
		maxH, maxV = max(maxH, c.H), max(maxV, c.V)
	}
	if len(f.Components) == 1 {
		maxH, maxV = 1, 1
	}
	return ((f.Width + 8*maxH - 1) / (8 * maxH)) * ((f.Height + 8*maxV - 1) / (8 * maxV))
}

// post sends one request and drains the reply.
func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// discardWriter is the ResponseWriter of the in-process handler calls:
// it keeps the status and drops the body.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
