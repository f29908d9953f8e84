package jpegcodec

// Restart-interval sharded entropy coding — parallelism *inside* a
// single image. A restart interval makes every segment of the scan
// independently codable: segments start byte-aligned (the coder pads to
// a byte boundary before each RSTn) and the DC predictor resets at each
// marker, so no state crosses a segment boundary in either direction.
// That turns the one serial stage of the codec — entropy coding — into a
// fan-out over pipeline's worker pool, the same lever libjpeg-turbo
// pulls for multi-core single-image throughput:
//
//   - encode: each worker entropy-codes its segments into a pooled
//     bitio.Writer; the finished buffers are stitched together with RSTn
//     markers in segment order, producing a stream byte-identical to the
//     sequential writer's (which also pads and emits a marker at every
//     boundary).
//   - decode: the entropy data is byte-scanned into its restart segments
//     first — markers are byte-aligned and can never occur inside
//     entropy data, because the coder stuffs a 0x00 after every 0xFF it
//     emits — then the segments decode concurrently, each on a pooled
//     segment-bounded bitio.Reader with a fresh DC predictor. Block
//     outputs land in disjoint regions of the coefficient grids and
//     pixel planes, so workers share them without synchronization.
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
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/pipeline"
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
func gatherStatsSharded(comps []*component, mcusX, total, restart, workers int, freqs *[4][256]int64) {
	segs := (total + restart - 1) / restart
	parts := make([][4][256]int64, pipeline.Workers(workers, segs))
	// The callback cannot fail and the context is never canceled.
	_ = pipeline.RunWorker(context.Background(), segs, workers, func(_ context.Context, w, seg int) error {
		var prevDC [4]int32
		lo, hi := segmentBounds(seg, restart, total)
		for mcu := lo; mcu < hi; mcu++ {
			countMCUSymbols(comps, mcusX, mcu, &prevDC, &parts[w])
		}
		return nil
	})
	for w := range parts {
		for t := range freqs {
			for s := range freqs[t] {
				freqs[t][s] += parts[w][t][s]
			}
		}
	}
}

// writeScanSharded emits the entropy-coded segment with per-segment
// parallelism, byte-identical to writeScan: each restart segment is
// coded into a worker-local pooled bitio.Writer starting byte-aligned
// with a fresh DC predictor (exactly the state the sequential writer has
// after Flush + RSTn), then the buffers are stitched in order with the
// same (seg-1) mod 8 marker indices.
func writeScanSharded(w io.Writer, comps []*component, enc [4]*encTable, mcusX, mcusY, restart, workers int) error {
	total := mcusX * mcusY
	segs := (total + restart - 1) / restart
	segBufs := make([][]byte, segs)
	bws := make([]*bitio.Writer, pipeline.Workers(workers, segs))
	for i := range bws {
		bws[i] = bitwPool.Get().(*bitio.Writer)
	}
	defer func() {
		for _, bw := range bws {
			bw.Reset(io.Discard)
			bitwPool.Put(bw)
		}
	}()
	err := pipeline.RunWorker(context.Background(), segs, workers, func(_ context.Context, wk, seg int) error {
		bw := bws[wk]
		bw.Reset(io.Discard)
		var prevDC [4]int32
		lo, hi := segmentBounds(seg, restart, total)
		for mcu := lo; mcu < hi; mcu++ {
			if err := encodeMCU(bw, comps, enc, mcusX, mcu, &prevDC); err != nil {
				return err
			}
		}
		bw.Pad()
		segBufs[seg] = append(segBufs[seg][:0], bw.Bytes()...)
		return nil
	})
	if err != nil {
		return firstShardError(err)
	}
	for seg, b := range segBufs {
		if seg > 0 {
			if _, err := w.Write([]byte{0xFF, byte(mRST0 + (seg-1)%8)}); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// entropySegments reads the current scan's entropy-coded data into the
// decoder's reused scan buffer and splits it at restart boundaries with
// a plain byte scan: markers are byte-aligned and cannot occur inside
// entropy data (every coder-emitted 0xFF carries a stuffed 0x00), so the
// byte-level boundaries are exactly where the bit-level reader would
// stop. Stuffed bytes — including fill-then-stuffed runs — stay in their
// segment because they decode as data; fill 0xFF runs before a marker
// are dropped, mirroring bitio.Reader.ReadMarker. The scan validates the
// RSTn sequence (expected index mod 8, the same check the sequential
// path applies) and stops collecting boundaries once expected-1 have
// been seen: any later marker ends the scan, matching the sequential
// decoder, which ignores everything after the final MCU. The marker
// that ended the scan is returned alongside (0 at end of input), like
// the sequential decoder's scanEnd.
func (d *decoder) entropySegments(expected int) ([][]byte, byte, error) {
	buf := d.scanBuf[:0]
	bounds := d.segBounds[:0] // end offset in buf of each segment
	rst := 0                  // expected index of the next restart marker
	next := byte(0)           // marker that terminated the scan data
scan:
	for {
		b, err := d.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				break // truncated segments surface as EOF in their worker
			}
			return nil, 0, err
		}
		if b != 0xFF {
			buf = append(buf, b)
			continue
		}
		b2, err := d.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				break // dangling 0xFF: the sequential reader EOFs here too
			}
			return nil, 0, err
		}
		for b2 == 0xFF {
			b2, err = d.br.ReadByte()
			if err != nil {
				if err == io.EOF {
					break scan
				}
				return nil, 0, err
			}
		}
		if b2 == 0x00 {
			buf = append(buf, 0xFF, 0x00)
			continue
		}
		// A real marker.
		if len(bounds)+1 < expected && b2 >= mRST0 && b2 <= mRST0+7 {
			if b2 != byte(mRST0+rst) {
				return nil, 0, fmt.Errorf("jpegcodec: expected RST%d, found %#02x", rst, b2)
			}
			rst = (rst + 1) % 8
			bounds = append(bounds, len(buf))
			continue
		}
		next = b2
		break // EOI, DNL, an out-of-quota RSTn, …: end of scan
	}
	bounds = append(bounds, len(buf))
	d.scanBuf = buf
	d.segBounds = bounds
	if len(bounds) != expected {
		return nil, 0, fmt.Errorf("jpegcodec: scan holds %d restart segments, frame geometry implies %d", len(bounds), expected)
	}
	segs := d.segs[:0]
	lo := 0
	for _, hi := range bounds {
		segs = append(segs, buf[lo:hi:hi])
		lo = hi
	}
	d.segs = segs
	return segs, next, nil
}

// scanSharded decodes a baseline fully interleaved scan with per-segment
// parallelism, accepting exactly the streams scanBaseline accepts and
// producing identical output: the byte scan enforces the same RSTn
// sequencing, each segment decodes with a fresh DC predictor on a pooled
// segment-bounded reader, and every non-final segment must consume its
// bytes exactly (leftovers are what the sequential reader would reject
// at the next marker; data after the final MCU is ignored on both
// paths). Reconstruction is deferred to finishFrame like every other
// scan shape; reconWorkers records the fan-out it should reuse.
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
	brs := make([]*bitio.Reader, pipeline.Workers(workers, len(segs)))
	for i := range brs {
		brs[i] = bitrPool.Get().(*bitio.Reader)
	}
	defer func() {
		for _, br := range brs {
			br.Reset(eofReader{})
			bitrPool.Put(br)
		}
	}()
	err = pipeline.RunWorker(context.Background(), len(segs), workers, func(_ context.Context, w, seg int) error {
		br := brs[w]
		br.ResetBytes(segs[seg])
		var prevDC [4]int32
		lo, hi := segmentBounds(seg, ri, total)
		for mcu := lo; mcu < hi; mcu++ {
			my, mx := mcu/f.mcusX, mcu%f.mcusX
			for ci, c := range scomps {
				dcTab := d.huff[0<<2|c.td]
				acTab := d.huff[1<<2|c.ta]
				for vy := 0; vy < c.v; vy++ {
					for vx := 0; vx < c.h; vx++ {
						bx, by := mx*c.h+vx, my*c.v+vy
						coefs := &c.coefs[by*c.blocksX+bx]
						if err := decodeBlockInto(br, dcTab, acTab, prevDC[ci], coefs); err != nil {
							return err
						}
						prevDC[ci] = coefs[0]
					}
				}
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
	d.reconWorkers = workers
	return next, nil
}

// reconstructSharded runs the batched inverse stage with block-row
// parallelism: rows are disjoint pixel regions over read-only
// coefficients, so workers share the planes without synchronization.
// Each worker checks a flat scratch plane out of planePool (the
// sequential path reuses the decoder's retained plane instead).
func (d *decoder) reconstructSharded(workers int) {
	comps := d.frame.comps
	rows := 0
	var rowStart [3]int
	for i, c := range comps {
		rowStart[i] = rows
		rows += c.blocksY
	}
	planes := make([]*[]float64, pipeline.Workers(workers, rows))
	for i := range planes {
		planes[i] = planePool.Get().(*[]float64)
	}
	defer func() {
		for _, p := range planes {
			planePool.Put(p)
		}
	}()
	// The callback cannot fail and the context is never canceled.
	_ = pipeline.RunWorker(context.Background(), rows, workers, func(_ context.Context, w, i int) error {
		ci := len(comps) - 1
		for ci > 0 && i < rowStart[ci] {
			ci--
		}
		c := comps[ci]
		p := growFloats(*planes[w], c.blocksX*64)
		*planes[w] = p
		reconstructBlockRow(c, i-rowStart[ci], p)
		return nil
	})
}
