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
	if err := checkImage(img.W, img.H, len(img.Pix), 3); err != nil {
		return err
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
	// The luma sampling factors double as the chroma box-downsample
	// ratios: 4:2:0 → 2×2 luma and 2×2 chroma reduction, 4:2:2 → 2×1,
	// 4:4:0 → 1×2, 4:1:1 → 4×1, 4:4:4 → no reduction.
	h, v, ok := o.Subsampling.factors()
	if !ok {
		return fmt.Errorf("jpegcodec: subsampling %v is not an encode option", o.Subsampling)
	}

	s := getEncScratch()
	defer putEncScratch(s)
	return encode(w, img, img.W, img.H, s.rgbComponents(img, h, v), &o, s)
}

// rgbComponents sizes the scratch planes for img, luma at full
// resolution and chroma box-subsampled h×v, and describes them as the
// three frame components with luma sampling factors h×v. The samples
// are written by transformComponents, which converts img into them.
func (s *encScratch) rgbComponents(img *imgutil.RGB, h, v int) []*component {
	p := &s.planes
	cw, ch := p.Resize(img.W, img.H, h, v)
	s.comps[0] = component{id: 1, h: h, v: v, tq: 0, td: 0, ta: 0, w: img.W, hgt: img.H, pix: p.Y}
	s.comps[1] = component{id: 2, h: 1, v: 1, tq: 1, td: 1, ta: 1, w: cw, hgt: ch, pix: p.Cb}
	s.comps[2] = component{id: 3, h: 1, v: 1, tq: 1, td: 1, ta: 1, w: cw, hgt: ch, pix: p.Cr}
	return s.components(3)
}

// EncodeGray writes img as a single-component baseline JFIF stream. Only
// the luma quantization table is used.
func EncodeGray(w io.Writer, img *imgutil.Gray, opts *Options) error {
	if err := checkImage(img.W, img.H, len(img.Pix), 1); err != nil {
		return err
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
	return encode(w, nil, img.W, img.H, s.components(1), &o, s)
}

// checkImage rejects a w×h image the encoder cannot write: empty, wider
// or taller than a SOF can declare, or with a pixel buffer that does not
// hold exactly channels·w·h samples. The size is computed in int64 so
// it cannot overflow where int is 32 bits.
func checkImage(w, h, pixLen, channels int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("jpegcodec: empty image %dx%d", w, h)
	}
	if w > 0xFFFF || h > 0xFFFF {
		return fmt.Errorf("jpegcodec: image %dx%d exceeds 65535 limit", w, h)
	}
	if want := int64(channels) * int64(w) * int64(h); int64(pixLen) != want {
		return fmt.Errorf("jpegcodec: %dx%d image with %d channels holds %d pixel bytes, want %d",
			w, h, channels, pixLen, want)
	}
	return nil
}

// encode runs the shared encoding pipeline: color conversion of src
// (nil for gray input), coefficient computation, optional Huffman
// optimization, then marker and scan emission. scratch holds the color
// planes, the fused divisors, the block-row plane and the coefficient
// grids.
func encode(w io.Writer, src *imgutil.RGB, width, height int, comps []*component, o *Options, scratch *encScratch) error {
	if err := validateRestartInterval(o.RestartInterval); err != nil {
		return err
	}
	mcusX, mcusY := transformComponents(src, width, height, comps, o, scratch)
	return encodeTail(w, width, height, comps, mcusX, mcusY, o)
}

// transformComponents converts src, when non-nil, into the planes that
// rgbComponents described, then computes the quantized coefficients of
// every component over the MCU-padded block grid, and returns that
// grid's size in MCUs. A frame the scan writer shards
// (shardWorkersFor) runs both stages on the same fan-out
// (forwardSharded); any other frame runs them in order on the calling
// goroutine. Either way every row is computed by the same functions, so
// the coefficients are identical.
func transformComponents(src *imgutil.RGB, width, height int, comps []*component, o *Options, scratch *encScratch) (mcusX, mcusY int) {
	maxH, maxV := 1, 1
	for _, c := range comps {
		maxH = max(maxH, c.h)
		maxV = max(maxV, c.v)
	}
	mcusX = (width + 8*maxH - 1) / (8 * maxH)
	mcusY = (height + 8*maxV - 1) / (8 * maxV)

	// Fold the transform's scale factors into both tables, and derive
	// their zero thresholds, once per call, never per block.
	fwd, thr := &scratch.fwd, &scratch.thr
	o.LumaTable.FwdScaledInto(&fwd[0])
	o.ChromaTable.FwdScaledInto(&fwd[1])
	zeroThresholds(&thr[0], &fwd[0], o.ZeroMask)
	zeroThresholds(&thr[1], &fwd[1], o.ZeroMask)

	rows := 0
	for ci, c := range comps {
		c.blocksX = mcusX * c.h
		c.blocksY = mcusY * c.v
		c.coefs = growCoefs(scratch.coefs[ci], c.blocksX*c.blocksY)
		scratch.coefs[ci] = c.coefs
		c.ext = imgutil.GrowBytes(scratch.ext[ci], len(c.coefs))
		scratch.ext[ci] = c.ext
		rows += c.blocksY
	}
	if nw := shardWorkersFor(o.ShardWorkers, o.RestartInterval, mcusX*mcusY); nw > 1 {
		scratch.forwardSharded(src, comps, mcusY, rows, o.ZeroMask, nw)
		return mcusX, mcusY
	}
	if src != nil {
		scratch.convertMCURows(src, comps, 0, mcusY, &scratch.rows)
	}
	for r := range rows {
		scratch.transformRow(comps, r, o.ZeroMask, &scratch.plane)
	}
	return mcusX, mcusY
}

// convertMCURows converts the MCU rows [m0, m1) of src into the planes
// rgbComponents described: the chroma rows of those MCU rows, eight
// each, and the luma rows their boxes cover. rows is the box-row
// scratch of the calling worker.
func (s *encScratch) convertMCURows(src *imgutil.RGB, comps []*component, m0, m1 int, rows *[]uint8) {
	ch := comps[1].hgt
	s.planes.FromRGBRows(src, comps[0].h, comps[0].v, min(8*m0, ch), min(8*m1, ch), rows)
}

// transformRow runs the forward stage for block row r of the frame,
// counting the components' block rows in component order as
// Decoded.reconstructRow does, growing *plane to the row's scratch size.
// It reads s's divisors and thresholds and writes only that row's
// coefficients and extents.
func (s *encScratch) transformRow(comps []*component, r int, mask *qtable.ZeroMask, plane *[]float64) {
	ci := 0
	for r >= comps[ci].blocksY {
		r -= comps[ci].blocksY
		ci++
	}
	c := comps[ci]
	*plane = growFloats(*plane, c.blocksX*64)
	transformBlockRow(c, r, &s.fwd[c.tq], &s.thr[c.tq], mask, *plane)
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
	writeMarker(bw, mEOI)
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
func countMCUSymbols(comps []*component, mcusX, mcu int, prevDC *[4]int32, freqs *[4][256]int64) error {
	my, mx := mcu/mcusX, mcu%mcusX
	for ci, c := range comps {
		dcID, acID := tableIDs(c)
		for vy := 0; vy < c.v; vy++ {
			for vx := 0; vx < c.h; vx++ {
				k := (my*c.v+vy)*c.blocksX + mx*c.h + vx
				coefs := &c.coefs[k]
				if err := countBlockSymbols(coefs, c.extent(k), prevDC[ci], &freqs[dcID], &freqs[acID]); err != nil {
					return err
				}
				prevDC[ci] = coefs[0]
			}
		}
	}
	return nil
}

// optimizeHuffman gathers symbol statistics over the exact emission
// sequence and builds per-image tables. With a restart interval and a
// multi-worker budget the gather fans out per restart segment; symbol
// counts are per-segment sums, so the merged statistics are exact.
func optimizeHuffman(comps []*component, mcusX, mcusY, restart, workers int) ([4]*HuffmanSpec, error) {
	var freqs [4][256]int64
	total := mcusX * mcusY
	if nw := shardWorkersFor(workers, restart, total); nw > 1 {
		if err := gatherStatsSharded(comps, mcusX, total, restart, nw, &freqs); err != nil {
			return [4]*HuffmanSpec{}, err
		}
	} else {
		var prevDC [4]int32 // indexed by component position in comps
		for mcu := 0; mcu < total; mcu++ {
			if restart > 0 && mcu > 0 && mcu%restart == 0 {
				prevDC = [4]int32{}
			}
			if err := countMCUSymbols(comps, mcusX, mcu, &prevDC, &freqs); err != nil {
				return [4]*HuffmanSpec{}, err
			}
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
// one block of extent ext would emit, rejecting the coefficients
// encodeBlock rejects.
func countBlockSymbols(coefs *[64]int32, ext uint8, prevDC int32, dcFreq, acFreq *[256]int64) error {
	diff := coefs[0] - prevDC
	s := bitCategory(diff)
	if s > maxDCCategory {
		return coefRangeError("DC difference", diff, maxDCCategory)
	}
	dcFreq[s]++
	run := 0
	for _, n := range qtable.ZigZagOrder[1 : int(ext)+1] {
		v := coefs[n&63]
		if v == 0 {
			run++
			continue
		}
		for run >= 16 {
			acFreq[0xF0]++ // ZRL
			run -= 16
		}
		s := bitCategory(v)
		if s > maxACCategory {
			return coefRangeError("AC coefficient", v, maxACCategory)
		}
		acFreq[run<<4|s]++
		run = 0
	}
	if run > 0 || ext < 63 {
		acFreq[0x00]++ // EOB
	}
	return nil
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
			writeMarker(w, byte(mRST0+rstIndex))
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
				k := (my*c.v+vy)*c.blocksX + mx*c.h + vx
				coefs := &c.coefs[k]
				if err := encodeBlock(bw, coefs, c.extent(k), prevDC[ci], enc[dcID], enc[acID]); err != nil {
					return err
				}
				prevDC[ci] = coefs[0]
			}
		}
	}
	return nil
}

// encodeBlock entropy-codes one block of natural-order coefficients
// whose extent is ext: every coefficient past zigzag index ext is zero.
// The zero-run scan stops at the extent, and a block whose extent is
// below 63 ends with EOB. The bytes are those of a scan over all 63 AC
// positions, because a trailing zero run emits only its EOB, so ext
// need only bound the last nonzero index from above (63 always does).
// Each Huffman code goes out in one put with the magnitude bits that
// follow it; a coefficient past the baseline categories is an error.
func encodeBlock(bw *bitio.Writer, coefs *[64]int32, ext uint8, prevDC int32, dcTab, acTab *encTable) error {
	// DC: DPCM against the previous block of the same component.
	diff := coefs[0] - prevDC
	s := bitCategory(diff)
	if s > maxDCCategory {
		return coefRangeError("DC difference", diff, maxDCCategory)
	}
	if err := dcTab.put(bw, uint8(s), magnitude(diff, s), s); err != nil {
		return err
	}
	// AC: run-length of zeros + size category, in zig-zag order.
	run := 0
	for _, n := range qtable.ZigZagOrder[1 : int(ext)+1] {
		v := coefs[n&63]
		if v == 0 {
			run++
			continue
		}
		for run >= 16 {
			if err := acTab.put(bw, 0xF0, 0, 0); err != nil { // ZRL
				return err
			}
			run -= 16
		}
		s := bitCategory(v)
		if s > maxACCategory {
			return coefRangeError("AC coefficient", v, maxACCategory)
		}
		if err := acTab.put(bw, uint8(run<<4|s), magnitude(v, s), s); err != nil {
			return err
		}
		run = 0
	}
	if run > 0 || ext < 63 {
		if err := acTab.put(bw, 0x00, 0, 0); err != nil { // EOB
			return err
		}
	}
	return nil
}

// magnitude returns the s magnitude bits that code v, s = bitCategory(v):
// v itself when positive, its one's complement in s bits when negative.
func magnitude(v int32, s int) uint32 {
	if v < 0 {
		v += 1<<s - 1
	}
	return uint32(v)
}

// --- marker emission ---
//
// Headers go straight into the pooled bufio.Writer a byte or a slice at
// a time, with no temporary buffers. bufio.Writer errors are sticky, so
// the writes below leave error handling to the Flush that ends the
// stream.

// jfifAPP0 is the payload of the APP0 segment the encoder writes: JFIF
// v1.1, 1:1 aspect, no thumbnail.
var jfifAPP0 = [...]byte{'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0}

func writeMarker(w *bufio.Writer, code byte) {
	w.WriteByte(0xFF)
	w.WriteByte(code)
}

// writeSegmentHeader writes a marker and the length field of a segment
// whose payload is n bytes.
func writeSegmentHeader(w *bufio.Writer, code byte, n int) {
	writeMarker(w, code)
	w.WriteByte(byte((n + 2) >> 8))
	w.WriteByte(byte(n + 2))
}

func writeMarkers(w *bufio.Writer, width, height int, comps []*component, specs [4]*HuffmanSpec, o *Options) error {
	writeMarker(w, mSOI)
	// APP0 JFIF — suppressed when the caller's metadata already carries a
	// JFIF APP0 (the requantize passthrough case), so the output holds
	// exactly one.
	hasJFIF := false
	for _, seg := range o.Metadata {
		if isJFIFAPP0(seg) {
			hasJFIF = true
			break
		}
	}
	if !hasJFIF {
		writeSegmentHeader(w, mAPP0, len(jfifAPP0))
		w.Write(jfifAPP0[:])
	}
	for _, seg := range o.Metadata {
		if (seg.Marker < mAPP0 || seg.Marker > mAPP0+0x0F) && seg.Marker != mCOM {
			return fmt.Errorf("jpegcodec: metadata marker %#02x is not APPn or COM", seg.Marker)
		}
		if len(seg.Payload) > maxSegmentPayload {
			return fmt.Errorf("jpegcodec: metadata segment %#02x payload %d exceeds %d bytes",
				seg.Marker, len(seg.Payload), maxSegmentPayload)
		}
		writeSegmentHeader(w, seg.Marker, len(seg.Payload))
		w.Write(seg.Payload)
	}
	// DQT: luma always; chroma only for color images.
	writeDQT(w, 0, &o.LumaTable)
	if len(comps) > 1 {
		writeDQT(w, 1, &o.ChromaTable)
	}
	// SOF0.
	writeSegmentHeader(w, mSOF0, 6+3*len(comps))
	for _, b := range [...]byte{8, byte(height >> 8), byte(height), byte(width >> 8), byte(width), byte(len(comps))} {
		w.WriteByte(b)
	}
	for _, c := range comps {
		w.WriteByte(c.id)
		w.WriteByte(byte(c.h<<4 | c.v))
		w.WriteByte(byte(c.tq))
	}
	// DHT: one segment per table, classes 0 (DC) and 1 (AC).
	classes := [4]byte{0x00, 0x10, 0x01, 0x11} // Tc<<4 | Th
	for i, spec := range specs {
		if spec == nil {
			continue
		}
		writeSegmentHeader(w, mDHT, 1+len(spec.Counts)+len(spec.Values))
		w.WriteByte(classes[i])
		w.Write(spec.Counts[:])
		w.Write(spec.Values)
	}
	if ri := o.RestartInterval; ri > 0 {
		writeSegmentHeader(w, mDRI, 2)
		w.WriteByte(byte(ri >> 8))
		w.WriteByte(byte(ri))
	}
	// SOS.
	writeSegmentHeader(w, mSOS, 1+2*len(comps)+3)
	w.WriteByte(byte(len(comps)))
	for _, c := range comps {
		w.WriteByte(c.id)
		w.WriteByte(byte(c.td<<4 | c.ta))
	}
	for _, b := range [...]byte{0, 63, 0} { // Ss, Se, AhAl: full spectral, no approx
		w.WriteByte(b)
	}
	return nil
}

// writeDQT writes table t as quantization table id, 8-bit precision.
func writeDQT(w *bufio.Writer, id int, t *qtable.Table) {
	writeSegmentHeader(w, mDQT, 65)
	w.WriteByte(byte(id)) // Pq=0 (8-bit), Tq=id
	for _, n := range qtable.ZigZagOrder {
		w.WriteByte(byte(t[n]))
	}
}
