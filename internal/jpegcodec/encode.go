package jpegcodec

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// EncodeRGB writes img as a baseline JFIF stream. A nil opts uses defaults
// (4:2:0, Annex-K tables, standard Huffman).
func EncodeRGB(w io.Writer, img *imgutil.RGB, opts *Options) error {
	if img.W <= 0 || img.H <= 0 {
		return fmt.Errorf("jpegcodec: empty image %dx%d", img.W, img.H)
	}
	if img.W > 0xFFFF || img.H > 0xFFFF {
		return fmt.Errorf("jpegcodec: image %dx%d exceeds 65535 limit", img.W, img.H)
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	if err := o.LumaTable.Validate(); err != nil {
		return err
	}
	if err := o.ChromaTable.Validate(); err != nil {
		return err
	}

	s := getEncScratch()
	defer putEncScratch(s)
	s.planes.FromRGB(img)
	// The luma sampling factors double as the chroma box-downsample
	// ratios: 4:2:0 → 2×2 luma and 2×2 chroma reduction, 4:2:2 → 2×1,
	// 4:4:0 → 1×2, 4:1:1 → 4×1, 4:4:4 → no reduction.
	h, v, ok := o.Subsampling.factors()
	if !ok {
		return fmt.Errorf("jpegcodec: subsampling %v is not an encode option", o.Subsampling)
	}
	s.comps[0] = component{id: 1, h: h, v: v, tq: 0, td: 0, ta: 0, w: img.W, hgt: img.H, pix: s.planes.Y}
	cw, ch := img.W, img.H
	cb, cr := s.planes.Cb, s.planes.Cr
	if h > 1 || v > 1 {
		s.cb, cw, ch = imgutil.DownsampleInto(s.cb, s.planes.Cb, img.W, img.H, h, v)
		s.cr, _, _ = imgutil.DownsampleInto(s.cr, s.planes.Cr, img.W, img.H, h, v)
		cb, cr = s.cb, s.cr
	}
	s.comps[1] = component{id: 2, h: 1, v: 1, tq: 1, td: 1, ta: 1, w: cw, hgt: ch, pix: cb}
	s.comps[2] = component{id: 3, h: 1, v: 1, tq: 1, td: 1, ta: 1, w: cw, hgt: ch, pix: cr}
	return encode(w, img.W, img.H, s.components(3), &o, s)
}

// EncodeGray writes img as a single-component baseline JFIF stream. Only
// the luma quantization table is used.
func EncodeGray(w io.Writer, img *imgutil.Gray, opts *Options) error {
	if img.W <= 0 || img.H <= 0 {
		return fmt.Errorf("jpegcodec: empty image %dx%d", img.W, img.H)
	}
	if img.W > 0xFFFF || img.H > 0xFFFF {
		return fmt.Errorf("jpegcodec: image %dx%d exceeds 65535 limit", img.W, img.H)
	}
	var o Options
	if opts != nil {
		o = *opts
	}
	o = o.withDefaults()
	if err := o.LumaTable.Validate(); err != nil {
		return err
	}
	s := getEncScratch()
	defer putEncScratch(s)
	s.comps[0] = component{id: 1, h: 1, v: 1, tq: 0, td: 0, ta: 0, w: img.W, hgt: img.H, pix: img.Pix}
	return encode(w, img.W, img.H, s.components(1), &o, s)
}

// encode runs the shared encoding pipeline: coefficient computation,
// optional Huffman optimization, then marker and scan emission. scratch
// donates reusable coefficient grids and may be nil.
func encode(w io.Writer, width, height int, comps []*component, o *Options, scratch *encScratch) error {
	if err := validateRestartInterval(o.RestartInterval); err != nil {
		return err
	}
	maxH, maxV := 1, 1
	for _, c := range comps {
		maxH = max(maxH, c.h)
		maxV = max(maxV, c.v)
	}
	mcusX := (width + 8*maxH - 1) / (8 * maxH)
	mcusY := (height + 8*maxV - 1) / (8 * maxV)

	// Resolve the fused forward divisors: the caller's cache when it
	// matches this exact table set (one build per Framework), otherwise
	// derived into the pooled scratch — never per block.
	var fwdLuma, fwdChroma *qtable.FwdScaled
	if o.Scaled.matches(&o.LumaTable, &o.ChromaTable) {
		fwdLuma, fwdChroma = &o.Scaled.fwdLuma, &o.Scaled.fwdChroma
	} else {
		var localFwd [2]qtable.FwdScaled
		fwd := &localFwd
		if scratch != nil {
			fwd = &scratch.fwd
		}
		o.LumaTable.FwdScaledInto(&fwd[0])
		o.ChromaTable.FwdScaledInto(&fwd[1])
		fwdLuma, fwdChroma = &fwd[0], &fwd[1]
	}

	// Forward-transform every block in the MCU-padded grid, one whole
	// block row at a time: fused gather into the flat plane, one batch
	// transform, one fused quantize pass into the coefficient grid.
	var plane []float64
	if scratch != nil {
		plane = scratch.plane
	}
	for ci, c := range comps {
		tbl := fwdLuma
		if c.tq == 1 {
			tbl = fwdChroma
		}
		c.blocksX = mcusX * c.h
		c.blocksY = mcusY * c.v
		if scratch != nil {
			c.coefs = growCoefs(scratch.coefs[ci], c.blocksX*c.blocksY)
			scratch.coefs[ci] = c.coefs
		} else {
			c.coefs = make([][64]int32, c.blocksX*c.blocksY)
		}
		plane = growFloats(plane, c.blocksX*64)
		transformComponent(c, tbl, o.ZeroMask, plane)
	}
	if scratch != nil {
		scratch.plane = plane
	}
	return encodeTail(w, width, height, comps, mcusX, mcusY, o)
}

// encodeTail chooses Huffman tables and emits the complete stream for
// already-transformed components; Requantize shares it with encode.
func encodeTail(w io.Writer, width, height int, comps []*component, mcusX, mcusY int, o *Options) error {
	specs := [4]*HuffmanSpec{&StdDCLuminance, &StdACLuminance, &StdDCChrominance, &StdACChrominance}
	var enc [4]*encTable
	if o.OptimizeHuffman {
		opt, err := optimizeHuffman(comps, mcusX, mcusY, o.RestartInterval, o.ShardWorkers)
		if err != nil {
			return err
		}
		specs = opt
		for i, s := range specs {
			if s == nil {
				continue
			}
			t, err := buildEncTable(s)
			if err != nil {
				return err
			}
			enc[i] = t
		}
	} else {
		std, err := stdEncoderTables()
		if err != nil {
			return err
		}
		enc = std
	}
	if len(comps) == 1 {
		specs[2], specs[3] = nil, nil // no chroma tables needed
		enc[2], enc[3] = nil, nil
	}

	bw := bufwPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(io.Discard) // drop the caller's writer before pooling
		bufwPool.Put(bw)
	}()
	if err := writeMarkers(bw, width, height, comps, specs, o); err != nil {
		return err
	}
	if nw := shardWorkersFor(o.ShardWorkers, o.RestartInterval, mcusX*mcusY); nw > 1 {
		if err := writeScanSharded(bw, comps, enc, mcusX, mcusY, o.RestartInterval, nw); err != nil {
			return err
		}
	} else if err := writeScan(bw, comps, enc, mcusX, mcusY, o.RestartInterval); err != nil {
		return err
	}
	if err := writeMarker(bw, mEOI); err != nil {
		return err
	}
	return bw.Flush()
}

// tableIDs maps a component to its (DC, AC) indices in the 4-entry table
// arrays: 0/1 for luma, 2/3 for chroma.
func tableIDs(c *component) (dc, ac int) {
	if c.td == 0 {
		return 0, 1
	}
	return 2, 3
}

// countMCUSymbols tallies the symbols the mcu-th MCU (scan order) would
// emit, advancing the caller's DC predictors — the statistics unit shared
// by the sequential and sharded gather paths.
func countMCUSymbols(comps []*component, mcusX, mcu int, prevDC *[4]int32, freqs *[4][256]int64) {
	my, mx := mcu/mcusX, mcu%mcusX
	for ci, c := range comps {
		dcID, acID := tableIDs(c)
		for vy := 0; vy < c.v; vy++ {
			for vx := 0; vx < c.h; vx++ {
				coefs := &c.coefs[(my*c.v+vy)*c.blocksX+mx*c.h+vx]
				countBlockSymbols(coefs, prevDC[ci], &freqs[dcID], &freqs[acID])
				prevDC[ci] = coefs[0]
			}
		}
	}
}

// optimizeHuffman gathers symbol statistics over the exact emission
// sequence and builds per-image tables. With a restart interval and a
// multi-worker budget the gather fans out per restart segment; symbol
// counts are per-segment sums, so the merged statistics are exact.
func optimizeHuffman(comps []*component, mcusX, mcusY, restart, workers int) ([4]*HuffmanSpec, error) {
	var freqs [4][256]int64
	total := mcusX * mcusY
	if nw := shardWorkersFor(workers, restart, total); nw > 1 {
		gatherStatsSharded(comps, mcusX, total, restart, nw, &freqs)
	} else {
		var prevDC [4]int32 // indexed by component position in comps
		for mcu := 0; mcu < total; mcu++ {
			if restart > 0 && mcu > 0 && mcu%restart == 0 {
				prevDC = [4]int32{}
			}
			countMCUSymbols(comps, mcusX, mcu, &prevDC, &freqs)
		}
	}

	var out [4]*HuffmanSpec
	for i := range freqs {
		if i >= 2 && len(comps) == 1 {
			out[i] = nil
			continue
		}
		spec, err := BuildOptimizedSpec(&freqs[i])
		if err != nil {
			return out, fmt.Errorf("jpegcodec: optimizing table %d: %w", i, err)
		}
		out[i] = spec
	}
	return out, nil
}

// countBlockSymbols tallies the DC size category and AC run/size symbols
// one block would emit.
func countBlockSymbols(coefs *[64]int32, prevDC int32, dcFreq, acFreq *[256]int64) {
	diff := coefs[0] - prevDC
	dcFreq[bitCategory(diff)]++
	run := 0
	for z := 1; z < 64; z++ {
		v := coefs[qtable.ZigZagOrder[z]]
		if v == 0 {
			run++
			continue
		}
		for run >= 16 {
			acFreq[0xF0]++ // ZRL
			run -= 16
		}
		acFreq[uint8(run<<4)|uint8(bitCategory(v))]++
		run = 0
	}
	if run > 0 {
		acFreq[0x00]++ // EOB
	}
}

// writeScan emits the entropy-coded segment.
func writeScan(w *bufio.Writer, comps []*component, enc [4]*encTable, mcusX, mcusY, restart int) error {
	bw := bitwPool.Get().(*bitio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(io.Discard) // drop the caller's writer before pooling
		bitwPool.Put(bw)
	}()
	var prevDC [4]int32 // indexed by component position in comps
	rstIndex := 0
	total := mcusX * mcusY
	for mcu := 0; mcu < total; mcu++ {
		if restart > 0 && mcu > 0 && mcu%restart == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
			if err := writeMarker(w, byte(mRST0+rstIndex)); err != nil {
				return err
			}
			rstIndex = (rstIndex + 1) % 8
			prevDC = [4]int32{}
		}
		if err := encodeMCU(bw, comps, enc, mcusX, mcu, &prevDC); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeMCU entropy-codes the mcu-th MCU (scan order), advancing the
// caller's DC predictors — the emission unit shared by the sequential
// and sharded scan writers.
func encodeMCU(bw *bitio.Writer, comps []*component, enc [4]*encTable, mcusX, mcu int, prevDC *[4]int32) error {
	my, mx := mcu/mcusX, mcu%mcusX
	for ci, c := range comps {
		dcID, acID := tableIDs(c)
		for vy := 0; vy < c.v; vy++ {
			for vx := 0; vx < c.h; vx++ {
				coefs := &c.coefs[(my*c.v+vy)*c.blocksX+mx*c.h+vx]
				if err := encodeBlock(bw, coefs, prevDC[ci], enc[dcID], enc[acID]); err != nil {
					return err
				}
				prevDC[ci] = coefs[0]
			}
		}
	}
	return nil
}

// encodeBlock entropy-codes one block of natural-order coefficients.
func encodeBlock(bw *bitio.Writer, coefs *[64]int32, prevDC int32, dcTab, acTab *encTable) error {
	// DC: DPCM against the previous block of the same component.
	diff := coefs[0] - prevDC
	s := bitCategory(diff)
	if err := dcTab.emit(bw, uint8(s)); err != nil {
		return err
	}
	if s > 0 {
		v := diff
		if v < 0 {
			v += (1 << s) - 1 // one's-complement representation of negatives
		}
		if err := bw.WriteBits(uint32(v), uint(s)); err != nil {
			return err
		}
	}
	// AC: run-length of zeros + size category, in zig-zag order.
	run := 0
	for z := 1; z < 64; z++ {
		v := coefs[qtable.ZigZagOrder[z]]
		if v == 0 {
			run++
			continue
		}
		for run >= 16 {
			if err := acTab.emit(bw, 0xF0); err != nil { // ZRL
				return err
			}
			run -= 16
		}
		s := bitCategory(v)
		if err := acTab.emit(bw, uint8(run<<4)|uint8(s)); err != nil {
			return err
		}
		bits := v
		if bits < 0 {
			bits += (1 << s) - 1
		}
		if err := bw.WriteBits(uint32(bits), uint(s)); err != nil {
			return err
		}
		run = 0
	}
	if run > 0 {
		if err := acTab.emit(bw, 0x00); err != nil { // EOB
			return err
		}
	}
	return nil
}

// --- marker emission ---

func writeMarker(w *bufio.Writer, code byte) error {
	_, err := w.Write([]byte{0xFF, code})
	return err
}

func writeSegment(w *bufio.Writer, code byte, payload []byte) error {
	if err := writeMarker(w, code); err != nil {
		return err
	}
	n := len(payload) + 2
	if _, err := w.Write([]byte{byte(n >> 8), byte(n)}); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func writeMarkers(w *bufio.Writer, width, height int, comps []*component, specs [4]*HuffmanSpec, o *Options) error {
	if err := writeMarker(w, mSOI); err != nil {
		return err
	}
	// APP0 JFIF v1.1, 1:1 aspect, no thumbnail — suppressed when the
	// caller's metadata already carries a JFIF APP0 (the requantize
	// passthrough case), so the output holds exactly one.
	hasJFIF := false
	for _, seg := range o.Metadata {
		if isJFIFAPP0(seg) {
			hasJFIF = true
			break
		}
	}
	if !hasJFIF {
		app0 := []byte{'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0}
		if err := writeSegment(w, mAPP0, app0); err != nil {
			return err
		}
	}
	for _, seg := range o.Metadata {
		if (seg.Marker < mAPP0 || seg.Marker > mAPP0+0x0F) && seg.Marker != mCOM {
			return fmt.Errorf("jpegcodec: metadata marker %#02x is not APPn or COM", seg.Marker)
		}
		if len(seg.Payload) > maxSegmentPayload {
			return fmt.Errorf("jpegcodec: metadata segment %#02x payload %d exceeds %d bytes",
				seg.Marker, len(seg.Payload), maxSegmentPayload)
		}
		if err := writeSegment(w, seg.Marker, seg.Payload); err != nil {
			return err
		}
	}
	// DQT: luma always; chroma only for color images.
	if err := writeDQT(w, 0, o.LumaTable); err != nil {
		return err
	}
	if len(comps) > 1 {
		if err := writeDQT(w, 1, o.ChromaTable); err != nil {
			return err
		}
	}
	// SOF0.
	sof := []byte{8, byte(height >> 8), byte(height), byte(width >> 8), byte(width), byte(len(comps))}
	for _, c := range comps {
		sof = append(sof, c.id, byte(c.h<<4|c.v), byte(c.tq))
	}
	if err := writeSegment(w, mSOF0, sof); err != nil {
		return err
	}
	// DHT: one segment per table, classes 0 (DC) and 1 (AC).
	classes := [4]byte{0x00, 0x10, 0x01, 0x11} // Tc<<4 | Th
	for i, spec := range specs {
		if spec == nil {
			continue
		}
		payload := []byte{classes[i]}
		payload = append(payload, spec.Counts[:]...)
		payload = append(payload, spec.Values...)
		if err := writeSegment(w, mDHT, payload); err != nil {
			return err
		}
	}
	if o.RestartInterval > 0 {
		ri := o.RestartInterval
		if err := writeSegment(w, mDRI, []byte{byte(ri >> 8), byte(ri)}); err != nil {
			return err
		}
	}
	// SOS.
	sos := []byte{byte(len(comps))}
	for _, c := range comps {
		sos = append(sos, c.id, byte(c.td<<4|c.ta))
	}
	sos = append(sos, 0, 63, 0) // Ss, Se, AhAl: full spectral, no approx
	return writeSegment(w, mSOS, sos)
}

func writeDQT(w *bufio.Writer, id int, t qtable.Table) error {
	zz := t.InZigZag()
	payload := make([]byte, 0, 65)
	payload = append(payload, byte(id)) // Pq=0 (8-bit), Tq=id
	for _, q := range zz {
		payload = append(payload, byte(q))
	}
	return writeSegment(w, mDQT, payload)
}
