package jpegcodec

// Restart-interval sharding — parallelism *inside* a single image. A
// restart interval makes every segment of the scan independently
// codable: segments start byte-aligned (the coder pads to a byte
// boundary before each RSTn) and the DC predictor resets at each
// marker, so no state crosses a segment boundary in either direction.
// That turns entropy coding, the one serial stage of the codec, into a
// fan-out over pipeline's worker pool, the same lever libjpeg-turbo
// pulls for multi-core single-image throughput. Once a frame is sharded,
// every other stage runs on the same fan-out too, over disjoint row
// bands, each computing exactly what the sequential loop computes for
// it:
//
//   - encode: color conversion with chroma downsampling runs over MCU
//     rows, then gather, forward DCT and quantize over block rows
//     (forwardSharded). Each worker then entropy-codes its segments into
//     one pooled bitio.Writer, and the segments are stitched together
//     with RSTn markers in segment order, producing a stream
//     byte-identical to the sequential writer's (which also pads and
//     emits a marker at every boundary).
//   - decode: the entropy data is byte-scanned into its restart segments
//     first — markers are byte-aligned and can never occur inside
//     entropy data, because the coder stuffs a 0x00 after every 0xFF it
//     emits — then the segments decode concurrently, each on its own
//     bitio.Reader over the segment's bytes with a fresh DC predictor. Block
//     outputs land in disjoint regions of the coefficient grids, so
//     workers share them without synchronization. The pixel planes
//     reconstruct later, on the first pixel read, with the same fan-out
//     over block rows, and RGBInto converts color over row bands on it.
//
// Frames without a restart interval run every stage sequentially, and
// so, unless ShardWorkers forces a fan-out, do frames below
// autoShardMinMCUs MCUs.
//
// Acceptance behavior is kept identical to the sequential paths: the
// byte scan validates the RSTn sequence exactly like the sequential
// decoder, non-final segments must consume their bytes exactly (the
// sequential reader would otherwise trip over leftovers at the next
// marker), and trailing data after the final segment is tolerated just
// as the sequential path ignores everything after the last MCU.
//
// Sharded entropy decoding is BASELINE-FULLY-INTERLEAVED ONLY, by
// construction: decodeScan routes only that scan shape here. The guard
// is structural, not an optimization choice. The equivalence argument
// above leans on two properties that only hold for a baseline
// interleaved scan: (1) the scan is the frame's entire entropy payload,
// so "everything after the final segment's MCU quota" is ignorable —
// in a progressive or non-interleaved stream the bytes after one scan
// are the next scan's markers and entropy data, and a byte scan that
// swallowed them would desynchronize the marker loop; (2) the only
// coder state crossing block boundaries is the DC predictor, which
// resets at every RSTn. Progressive AC scans carry a second piece of
// inter-block state, the EOB run; it also resets at restart markers, so
// segments remain independently decodable in principle, but property
// (1) already rules sharding out, and the batched reconstruction stage
// (shared with the sequential path) is where progressive decode spends
// its time anyway.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/imgutil"
	"repro/internal/pipeline"
	"repro/internal/qtable"
)

// autoShardMinMCUs is the frame size below which auto mode keeps the
// sequential path: small frames finish before the fan-out pays for its
// goroutine handoffs and per-segment buffer copies.
const autoShardMinMCUs = 1 << 10

// shardWorkersFor resolves a ShardWorkers request against the stream
// geometry: 0 is auto (GOMAXPROCS on frames of at least autoShardMinMCUs
// MCUs), 1 and negative force sequential, larger values are capped at
// the segment count. A result of 1 means "use the sequential path".
func shardWorkersFor(requested, restart, totalMCUs int) int {
	if restart <= 0 {
		return 1
	}
	segs := (totalMCUs + restart - 1) / restart
	if segs < 2 {
		return 1
	}
	w := requested
	switch {
	case w < 0 || w == 1:
		return 1
	case w == 0:
		if totalMCUs < autoShardMinMCUs {
			return 1
		}
	}
	return pipeline.Workers(w, segs)
}

// firstShardError unwraps a pipeline batch error to its first per-item
// error so shard failures read like their sequential counterparts.
func firstShardError(err error) error {
	var be *pipeline.BatchError
	if errors.As(err, &be) && len(be.Items) > 0 {
		return be.Items[0].Err
	}
	return err
}

// segmentBounds returns the MCU range [lo, hi) of restart segment seg.
func segmentBounds(seg, restart, total int) (lo, hi int) {
	lo = seg * restart
	hi = min(lo+restart, total)
	return lo, hi
}

// gatherStatsSharded is the fan-out half of optimizeHuffman: each worker
// tallies symbol frequencies for its segments into a private table and
// the tables are summed afterwards. Addition commutes, so the merged
// counts match the sequential gather exactly regardless of scheduling.
func gatherStatsSharded(comps []*component, mcusX, total, restart, workers int, freqs *[4][256]int64) error {
	segs := (total + restart - 1) / restart
	parts := make([][4][256]int64, pipeline.Workers(workers, segs))
	err := pipeline.RunWorker(context.Background(), segs, workers, func(_ context.Context, w, seg int) error {
		var prevDC [4]int32
		lo, hi := segmentBounds(seg, restart, total)
		for mcu := lo; mcu < hi; mcu++ {
			if err := countMCUSymbols(comps, mcusX, mcu, &prevDC, &parts[w]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return firstShardError(err)
	}
	for w := range parts {
		for t := range freqs {
			for s := range freqs[t] {
				freqs[t][s] += parts[w][t][s]
			}
		}
	}
	return nil
}

// segSpan locates one restart segment's finished bytes in the sharded
// scan writer: bytes [lo, hi) of worker w's bit writer.
type segSpan struct{ w, lo, hi int }

// writeScanSharded emits the entropy-coded segment with per-segment
// parallelism, byte-identical to writeScan: each restart segment is
// coded into a worker-local pooled bitio.Writer starting byte-aligned
// with a fresh DC predictor (exactly the state the sequential writer has
// after Flush + RSTn), then the segments are stitched in order with the
// same (seg-1) mod 8 marker indices. A worker codes all its segments
// into one writer, one after another: Pad leaves the writer byte-aligned
// with no pending bits, which is the state a fresh writer starts in, so
// each segment's bytes are those of a writer of its own, and the stitch
// reads them in place from the pooled span table.
func writeScanSharded(w *bufio.Writer, comps []*component, enc [4]*encTable, mcusX, mcusY, restart, workers int) error {
	total := mcusX * mcusY
	segs := (total + restart - 1) / restart
	spans := spanPool.Get().(*[]segSpan)
	if cap(*spans) < segs {
		*spans = make([]segSpan, segs)
	}
	sp := (*spans)[:segs]
	bws := make([]*bitio.Writer, pipeline.Workers(workers, segs))
	for i := range bws {
		bws[i] = bitwPool.Get().(*bitio.Writer)
	}
	defer func() {
		for _, bw := range bws {
			bw.Reset(io.Discard)
			bitwPool.Put(bw)
		}
		spanPool.Put(spans)
	}()
	err := pipeline.RunWorker(context.Background(), segs, workers, func(_ context.Context, wk, seg int) error {
		bw := bws[wk]
		lo := len(bw.Bytes())
		var prevDC [4]int32
		mlo, mhi := segmentBounds(seg, restart, total)
		for mcu := mlo; mcu < mhi; mcu++ {
			if err := encodeMCU(bw, comps, enc, mcusX, mcu, &prevDC); err != nil {
				return err
			}
		}
		bw.Pad()
		sp[seg] = segSpan{w: wk, lo: lo, hi: len(bw.Bytes())}
		return nil
	})
	if err != nil {
		return firstShardError(err)
	}
	// A failed write sticks in w; encodeTail's Flush reports it.
	for seg, s := range sp {
		if seg > 0 {
			writeMarker(w, byte(mRST0+(seg-1)%8))
		}
		w.Write(bws[s.w].Bytes()[s.lo:s.hi])
	}
	return nil
}

// forwardSharded is transformComponents' two stages on a fan-out of
// workers, for a frame whose scan is sharded: the color conversion of
// src, when non-nil, over MCU rows, then the forward stage over block
// rows in transformRow's order. Each MCU row's conversion writes
// disjoint plane rows, and each block row's transform disjoint
// coefficients, so the workers share the planes and grids without
// synchronization. The conversion finishes before any transform starts:
// a block row past the bottom of a plane reads the plane's last row,
// which another MCU row converts. Each worker checks its row scratch and
// its flat plane out of a pool.
func (s *encScratch) forwardSharded(src *imgutil.RGB, comps []*component, mcusY, rows int, mask *qtable.ZeroMask, workers int) {
	// The callbacks cannot fail and the context is never canceled.
	if src != nil {
		bufs := make([]*[]uint8, pipeline.Workers(workers, mcusY))
		for i := range bufs {
			bufs[i] = rowsPool.Get().(*[]uint8)
		}
		_ = pipeline.RunWorker(context.Background(), mcusY, workers, func(_ context.Context, w, m int) error {
			s.convertMCURows(src, comps, m, m+1, bufs[w])
			return nil
		})
		for _, b := range bufs {
			rowsPool.Put(b)
		}
	}
	planes := getPlanes(pipeline.Workers(workers, rows))
	_ = pipeline.RunWorker(context.Background(), rows, workers, func(_ context.Context, w, r int) error {
		s.transformRow(comps, r, mask, planes[w])
		return nil
	})
	putPlanes(planes)
}

// entropySegments splits the current scan's entropy-coded data at its
// restart boundaries with a plain byte scan, returning subslices of the
// stream: markers are byte-aligned and cannot occur inside entropy data
// (every coder-emitted 0xFF carries a stuffed 0x00), so the byte-level
// boundaries are exactly where the bit-level reader would stop. Stuffed
// bytes — including fill-then-stuffed runs — stay in their segment
// because they decode as data; fill 0xFF runs before a marker, or cut off
// by the end of input, end the segment before them, mirroring
// bitio.Reader.ReadMarker. The scan validates the RSTn sequence
// (expected index mod 8, the same check the sequential path applies) and
// stops collecting boundaries once expected-1 have been seen: any later
// marker ends the scan, matching the sequential decoder, which ignores
// everything after the final MCU. The marker that ended the scan is
// returned alongside (0 at end of input), like the sequential decoder's
// scanEnd, and the parse position moves past it.
func (d *decoder) entropySegments(expected int) ([][]byte, byte, error) {
	data := d.data[d.pos:]
	segs := d.segs[:0]
	rst := 0         // expected index of the next restart marker
	next := byte(0)  // marker that terminated the scan data
	lo, i := 0, 0    // start of the current segment, next byte to scan
	end := len(data) // end of the scan's last segment
	for {
		k := bytes.IndexByte(data[i:], 0xFF)
		if k < 0 {
			i = len(data)
			break // truncated segments surface as EOF in their worker
		}
		ff := i + k
		j := ff + 1
		for j < len(data) && data[j] == 0xFF {
			j++
		}
		if j == len(data) {
			end, i = ff, j
			break // dangling 0xFF: the sequential reader EOFs here too
		}
		i = j + 1
		m := data[j]
		if m == 0x00 {
			continue
		}
		// A real marker.
		if len(segs)+1 < expected && m >= mRST0 && m <= mRST0+7 {
			if m != byte(mRST0+rst) {
				return nil, 0, fmt.Errorf("jpegcodec: expected RST%d, found %#02x", rst, m)
			}
			rst = (rst + 1) % 8
			segs = append(segs, data[lo:ff:ff])
			lo = i
			continue
		}
		next, end = m, ff
		break // EOI, DNL, an out-of-quota RSTn, …: end of scan
	}
	segs = append(segs, data[lo:end:end])
	d.segs = segs
	d.pos += i
	if len(segs) != expected {
		return nil, 0, fmt.Errorf("jpegcodec: scan holds %d restart segments, frame geometry implies %d", len(segs), expected)
	}
	return segs, next, nil
}

// scanSharded decodes a baseline fully interleaved scan with per-segment
// parallelism, accepting exactly the streams scanBaseline accepts and
// producing identical output: the byte scan enforces the same RSTn
// sequencing, each segment decodes with a fresh DC predictor on a bit
// reader over its own bytes, and every non-final segment must consume its
// bytes exactly (leftovers are what the sequential reader would reject
// at the next marker; data after the final MCU is ignored on both
// paths). Reconstruction is left to the first pixel read like on every
// other scan shape; the Decoded's reconWorkers records the fan-out it
// should reuse.
func (d *decoder) scanSharded(scomps []*component, workers int) (byte, error) {
	f := &d.frame
	for _, c := range scomps {
		if d.huff[0<<2|c.td] == nil || d.huff[1<<2|c.ta] == nil {
			return 0, fmt.Errorf("jpegcodec: missing huffman tables %d/%d", c.td, c.ta)
		}
	}
	total := f.mcusX * f.mcusY
	ri := d.ri
	expected := (total + ri - 1) / ri
	segs, next, err := d.entropySegments(expected)
	if err != nil {
		return 0, err
	}
	err = pipeline.RunWorker(context.Background(), len(segs), workers, func(_ context.Context, _, seg int) error {
		br := bitio.NewReader(segs[seg])
		var prevDC [4]int32
		lo, hi := segmentBounds(seg, ri, total)
		for mcu := lo; mcu < hi; mcu++ {
			if err := decodeMCU(br, scomps, &d.huff, f.mcusX, mcu, &prevDC); err != nil {
				return err
			}
		}
		if seg < len(segs)-1 && !br.Exhausted() {
			return fmt.Errorf("jpegcodec: trailing entropy data in restart segment %d", seg)
		}
		return nil
	})
	if err != nil {
		return 0, firstShardError(err)
	}
	d.dst.reconWorkers = workers
	return next, nil
}

// reconstruct fills the pixel planes from the coefficient grids with the
// batched inverse stage — dequantize, inverse DCT, pixel store — once
// per decode, on the first pixel read. When the entropy decode ran
// sharded, reconstruction fans out the same way, over block rows: rows
// are disjoint pixel regions over read-only coefficients, so workers
// share the planes without synchronization. Each worker (or the calling
// goroutine, sequentially) checks a flat scratch plane out of planePool.
func (d *Decoded) reconstruct() {
	if !d.pixPending {
		return
	}
	d.pixPending = false
	rows := 0
	for i := range d.Components {
		p := &d.planes[i]
		p.pix = imgutil.GrowBytes(p.pix, p.w*p.h)
		rows += d.blocksY[i]
	}
	if d.reconWorkers <= 1 {
		plane := planePool.Get().(*[]float64)
		for r := range rows {
			d.reconstructRow(r, plane)
		}
		planePool.Put(plane)
		return
	}
	planes := getPlanes(pipeline.Workers(d.reconWorkers, rows))
	// The callback cannot fail and the context is never canceled.
	_ = pipeline.RunWorker(context.Background(), rows, d.reconWorkers, func(_ context.Context, w, r int) error {
		d.reconstructRow(r, planes[w])
		return nil
	})
	putPlanes(planes)
}

// reconstructRow reconstructs block row r of the frame, counting the
// components' block rows in component order, growing *plane to the
// row's scratch size.
func (d *Decoded) reconstructRow(r int, plane *[]float64) {
	ci := 0
	for r >= d.blocksY[ci] {
		r -= d.blocksY[ci]
		ci++
	}
	p := &d.planes[ci]
	bx := d.blocksX[ci]
	*plane = growFloats(*plane, bx*64)
	reconstructBlockRow(p.pix, p.w, p.h, r, d.coefs[ci][r*bx:(r+1)*bx], d.ext[ci][r*bx:(r+1)*bx], &p.inv, *plane)
}

// rgbSharded is RGBInto's conversion on the reconstruction's fan-out,
// one band of rgbBandRows output rows per item.
func (d *Decoded) rgbSharded(im *imgutil.RGB) {
	bands := (im.H + rgbBandRows - 1) / rgbBandRows
	// The callback cannot fail and the context is never canceled.
	_ = pipeline.RunWorker(context.Background(), bands, d.reconWorkers, func(_ context.Context, _, b int) error {
		d.rgbRows(im, b*rgbBandRows, min((b+1)*rgbBandRows, im.H))
		return nil
	})
}
