package jpegcodec

// Progressive JPEG *encoder*, test-only. The decoder under test needs
// progressive streams and no tool in the build environment produces
// them, so the fixtures are generated here: a scan-script encoder that
// re-emits a baseline decode's coefficient planes as an SOF2 stream.
// The emission logic mirrors the reference encoder (libjpeg's
// jcphuff.c): DC scans arithmetic-shift by the point transform and run
// DPCM; AC scans divide magnitudes by 2^Al toward zero, accumulate EOB
// runs across blocks, and refinement scans buffer correction bits so
// they land after the next emitted symbol. Each scan gets its own
// Huffman table optimized over a counting pass — the Annex K tables
// have no EOBn symbols, so optimized tables are not optional here.
//
// encodeNonInterleaved lives here too: a baseline (SOF0) writer that
// emits one single-component scan per component, the layout the old
// single-scan decoder rejected outright.

import (
	"bufio"
	"bytes"
	"testing"

	"repro/internal/bitio"
	"repro/internal/qtable"
)

// progScan describes one scan of a progressive scan script: which
// component indices it carries, its spectral band, and its successive
// approximation bits.
type progScan struct {
	comps          []int
	ss, se, ah, al int
}

// progSink receives the symbol/bit stream of one scan. The counting
// pass and the emission pass run the identical encoder over the same
// coefficients, so the optimized table built from the counts covers
// exactly the symbols later emitted.
type progSink interface {
	sym(s uint8) error
	bits(v uint32, n uint) error
}

type countSink struct{ freq *[256]int64 }

func (c countSink) sym(s uint8) error           { c.freq[s]++; return nil }
func (c countSink) bits(v uint32, n uint) error { return nil }

type emitSink struct {
	bw  *bitio.Writer
	tab *encTable
}

func (e emitSink) sym(s uint8) error           { return e.tab.emit(e.bw, s) }
func (e emitSink) bits(v uint32, n uint) error { return e.bw.WriteBits(v, n) }

// progBlock is one block of a scan walk with its component's position
// in the scan (the DC predictor index).
type progBlock struct {
	coefs *[64]int32
	ci    int
}

// progMCUs builds the scan's MCU sequence in decoder walk order:
// interleaved scans tile the frame MCU grid with h×v blocks per
// component, single-component scans take one block per MCU over the
// component's unpadded block grid.
func progMCUs(d *Decoded, comps []int) [][]progBlock {
	if len(comps) > 1 {
		// Every plane's grid is mcus×factor, so any member recovers the
		// frame MCU dimensions.
		i0 := comps[0]
		mcusX := d.blocksX[i0] / d.planes[i0].hs
		mcusY := d.blocksY[i0] / d.planes[i0].vs
		mcus := make([][]progBlock, 0, mcusX*mcusY)
		for my := 0; my < mcusY; my++ {
			for mx := 0; mx < mcusX; mx++ {
				var blk []progBlock
				for ci, i := range comps {
					h, v := d.planes[i].hs, d.planes[i].vs
					for vy := 0; vy < v; vy++ {
						for vx := 0; vx < h; vx++ {
							blk = append(blk, progBlock{&d.coefs[i][(my*v+vy)*d.blocksX[i]+mx*h+vx], ci})
						}
					}
				}
				mcus = append(mcus, blk)
			}
		}
		return mcus
	}
	i := comps[0]
	sbw := (d.planes[i].w + 7) / 8
	sbh := (d.planes[i].h + 7) / 8
	mcus := make([][]progBlock, 0, sbw*sbh)
	for by := 0; by < sbh; by++ {
		for bx := 0; bx < sbw; bx++ {
			mcus = append(mcus, []progBlock{{&d.coefs[i][by*d.blocksX[i]+bx], 0}})
		}
	}
	return mcus
}

// progScanEnc encodes one scan's entropy data into a sink. eobRun and
// corrBits carry the pending end-of-band run and the correction bits
// accumulated inside it (emitted when the run flushes).
type progScanEnc struct {
	sink     progSink
	eobRun   int32
	corrBits []uint8
}

func (e *progScanEnc) emitBuffered(bits []uint8) error {
	for _, b := range bits {
		if err := e.sink.bits(uint32(b), 1); err != nil {
			return err
		}
	}
	return nil
}

// flushEOBRun emits the pending EOBn symbol — category n = floor(log2
// run) plus the low n bits of the run — followed by the correction bits
// of the blocks inside the run.
func (e *progScanEnc) flushEOBRun() error {
	if e.eobRun > 0 {
		n := 0
		for v := e.eobRun; v > 1; v >>= 1 {
			n++
		}
		if err := e.sink.sym(uint8(n << 4)); err != nil {
			return err
		}
		if n > 0 {
			if err := e.sink.bits(uint32(e.eobRun), uint(n)); err != nil {
				return err
			}
		}
		e.eobRun = 0
		if err := e.emitBuffered(e.corrBits); err != nil {
			return err
		}
		e.corrBits = e.corrBits[:0]
	}
	return nil
}

// dcFirst encodes one block of a DC first scan: DPCM over the
// arithmetically shifted values, baseline category coding.
func (e *progScanEnc) dcFirst(coefs *[64]int32, al int, pred *int32) error {
	v := coefs[0] >> uint(al)
	diff := v - *pred
	*pred = v
	s := bitCategory(diff)
	if err := e.sink.sym(uint8(s)); err != nil {
		return err
	}
	if s == 0 {
		return nil
	}
	if diff < 0 {
		diff += (1 << uint(s)) - 1
	}
	return e.sink.bits(uint32(diff), uint(s))
}

// dcRefine emits the Al-th magnitude bit of coefficient 0; the
// arithmetic shift makes the bit correct for both signs, matching the
// decoder's OR.
func (e *progScanEnc) dcRefine(coefs *[64]int32, al int) error {
	return e.sink.bits(uint32((coefs[0]>>uint(al))&1), 1)
}

// acFirst encodes one block of an AC first scan: run/size symbols over
// the band with the point transform applied as a magnitude division
// (T.81 G.1.2.2 — NOT an arithmetic shift), and EOB runs accumulated
// across blocks.
func (e *progScanEnc) acFirst(coefs *[64]int32, ss, se, al int) error {
	r := 0
	for z := ss; z <= se; z++ {
		v := coefs[qtable.ZigZagOrder[z]]
		neg := v < 0
		if neg {
			v = -v
		}
		v >>= uint(al)
		if v == 0 {
			r++
			continue
		}
		if err := e.flushEOBRun(); err != nil {
			return err
		}
		for r > 15 {
			if err := e.sink.sym(0xF0); err != nil {
				return err
			}
			r -= 16
		}
		s := bitCategory(v)
		bits := v
		if neg {
			bits = -v + (1 << uint(s)) - 1
		}
		if err := e.sink.sym(uint8(r<<4 | s)); err != nil {
			return err
		}
		if err := e.sink.bits(uint32(bits), uint(s)); err != nil {
			return err
		}
		r = 0
	}
	if r > 0 {
		e.eobRun++
		if e.eobRun == 0x7FFF {
			return e.flushEOBRun()
		}
	}
	return nil
}

// acRefine encodes one block of an AC refinement scan, following
// libjpeg's encode_mcu_AC_refine: runs count zero-history positions
// only, already-nonzero coefficients contribute buffered correction
// bits, and the index of the last newly significant coefficient bounds
// where ZRL symbols may still be needed — beyond it, trailing zeros
// fold into the EOB run.
func (e *progScanEnc) acRefine(coefs *[64]int32, ss, se, al int) error {
	var abs [64]int32
	eobIdx := ss - 1
	for z := ss; z <= se; z++ {
		v := coefs[qtable.ZigZagOrder[z]]
		if v < 0 {
			v = -v
		}
		v >>= uint(al)
		abs[z] = v
		if v == 1 {
			eobIdx = z
		}
	}
	r := 0
	var br []uint8 // this block's correction bits pending the next symbol
	for z := ss; z <= se; z++ {
		v := abs[z]
		if v == 0 {
			r++
			continue
		}
		for r > 15 && z <= eobIdx {
			if err := e.flushEOBRun(); err != nil {
				return err
			}
			if err := e.sink.sym(0xF0); err != nil {
				return err
			}
			r -= 16
			if err := e.emitBuffered(br); err != nil {
				return err
			}
			br = br[:0]
		}
		if v > 1 {
			br = append(br, uint8(v&1))
			continue
		}
		if err := e.flushEOBRun(); err != nil {
			return err
		}
		if err := e.sink.sym(uint8(r<<4 | 1)); err != nil {
			return err
		}
		sign := uint32(1)
		if coefs[qtable.ZigZagOrder[z]] < 0 {
			sign = 0
		}
		if err := e.sink.bits(sign, 1); err != nil {
			return err
		}
		if err := e.emitBuffered(br); err != nil {
			return err
		}
		br = br[:0]
		r = 0
	}
	if r > 0 || len(br) > 0 {
		e.eobRun++
		e.corrBits = append(e.corrBits, br...)
		if e.eobRun == 0x7FFF {
			return e.flushEOBRun()
		}
	}
	return nil
}

// encodeScan runs one scan over the coefficient planes, chunked by the
// restart interval: DC predictors reset and the EOB run flushes at each
// segment boundary, and markers (nil in the counting pass) emits the
// RSTn between segments.
func (e *progScanEnc) encodeScan(d *Decoded, sc progScan, ri int, markers func() error) error {
	mcus := progMCUs(d, sc.comps)
	seg := len(mcus)
	if ri > 0 {
		seg = ri
	}
	for start := 0; start < len(mcus); start += seg {
		if start > 0 && markers != nil {
			if err := markers(); err != nil {
				return err
			}
		}
		var prevDC [4]int32
		end := min(start+seg, len(mcus))
		for _, mcu := range mcus[start:end] {
			for _, b := range mcu {
				var err error
				switch {
				case sc.ss == 0 && sc.ah == 0:
					err = e.dcFirst(b.coefs, sc.al, &prevDC[b.ci])
				case sc.ss == 0:
					err = e.dcRefine(b.coefs, sc.al)
				case sc.ah == 0:
					err = e.acFirst(b.coefs, sc.ss, sc.se, sc.al)
				default:
					err = e.acRefine(b.coefs, sc.ss, sc.se, sc.al)
				}
				if err != nil {
					return err
				}
			}
		}
		if err := e.flushEOBRun(); err != nil {
			return err
		}
	}
	return nil
}

// writeSegment writes one marker segment from a payload built in full,
// the way the test encoders below assemble their headers.
func writeSegment(w *bufio.Writer, code byte, payload []byte) error {
	writeSegmentHeader(w, code, len(payload))
	_, err := w.Write(payload)
	return err
}

// progEncode re-emits a decode's coefficient planes as a progressive
// (SOF2) stream following the given scan script. Every scan carries its
// own optimized Huffman table as id 0 of the class it uses; DC
// refinement scans code no symbols and get no table.
func progEncode(t testing.TB, d *Decoded, script []progScan, ri int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("progEncode: %v", err)
		}
	}
	writeMarker(w, mSOI)
	check(writeSegment(w, mAPP0, []byte{'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0}))
	seen := map[int]bool{}
	for i := 0; i < d.Components; i++ {
		tq := d.planes[i].tq
		if seen[tq] {
			continue
		}
		seen[tq] = true
		tbl, ok := d.QuantTables[tq]
		if !ok {
			t.Fatalf("progEncode: source decode lacks quant table %d", tq)
		}
		writeDQT(w, tq, &tbl)
	}
	sof := []byte{8, byte(d.H >> 8), byte(d.H), byte(d.W >> 8), byte(d.W), byte(d.Components)}
	for i := 0; i < d.Components; i++ {
		sof = append(sof, byte(i+1), byte(d.planes[i].hs<<4|d.planes[i].vs), byte(d.planes[i].tq))
	}
	check(writeSegment(w, mSOF2, sof))
	if ri > 0 {
		check(writeSegment(w, mDRI, []byte{byte(ri >> 8), byte(ri)}))
	}
	for si, sc := range script {
		var tab *encTable
		if !(sc.ss == 0 && sc.ah != 0) {
			var freq [256]int64
			cnt := &progScanEnc{sink: countSink{&freq}}
			if err := cnt.encodeScan(d, sc, ri, nil); err != nil {
				t.Fatalf("progEncode: scan %d count pass: %v", si, err)
			}
			spec, err := BuildOptimizedSpec(&freq)
			if err != nil {
				t.Fatalf("progEncode: scan %d table: %v", si, err)
			}
			class := byte(0)
			if sc.ss > 0 {
				class = 1
			}
			payload := make([]byte, 0, 17+len(spec.Values))
			payload = append(payload, class<<4)
			payload = append(payload, spec.Counts[:]...)
			payload = append(payload, spec.Values...)
			check(writeSegment(w, mDHT, payload))
			if tab, err = buildEncTable(spec); err != nil {
				t.Fatalf("progEncode: scan %d enc table: %v", si, err)
			}
		}
		sos := []byte{byte(len(sc.comps))}
		for _, i := range sc.comps {
			sos = append(sos, byte(i+1), 0)
		}
		sos = append(sos, byte(sc.ss), byte(sc.se), byte(sc.ah<<4|sc.al))
		check(writeSegment(w, mSOS, sos))
		bw := bitio.NewWriter(w)
		rstIdx := 0
		enc := &progScanEnc{sink: emitSink{bw, tab}}
		err := enc.encodeScan(d, sc, ri, func() error {
			if err := bw.Flush(); err != nil {
				return err
			}
			writeMarker(w, byte(mRST0+rstIdx))
			rstIdx = (rstIdx + 1) % 8
			return nil
		})
		if err != nil {
			t.Fatalf("progEncode: scan %d emit pass: %v", si, err)
		}
		check(bw.Flush())
	}
	writeMarker(w, mEOI)
	check(w.Flush())
	return buf.Bytes()
}

// encodeNonInterleaved re-emits a decode as a baseline (SOF0) stream of
// one single-component scan per component — the non-interleaved layout
// — using the standard Annex K tables. The restart interval counts
// blocks of each scan's unpadded grid, per T.81 §B.2.3.
func encodeNonInterleaved(t testing.TB, d *Decoded, ri int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("encodeNonInterleaved: %v", err)
		}
	}
	enc, err := stdEncoderTables()
	check(err)
	writeMarker(w, mSOI)
	check(writeSegment(w, mAPP0, []byte{'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0}))
	seen := map[int]bool{}
	for i := 0; i < d.Components; i++ {
		tq := d.planes[i].tq
		if seen[tq] {
			continue
		}
		seen[tq] = true
		tbl, ok := d.QuantTables[tq]
		if !ok {
			t.Fatalf("encodeNonInterleaved: source decode lacks quant table %d", tq)
		}
		writeDQT(w, tq, &tbl)
	}
	sof := []byte{8, byte(d.H >> 8), byte(d.H), byte(d.W >> 8), byte(d.W), byte(d.Components)}
	for i := 0; i < d.Components; i++ {
		sof = append(sof, byte(i+1), byte(d.planes[i].hs<<4|d.planes[i].vs), byte(d.planes[i].tq))
	}
	check(writeSegment(w, mSOF0, sof))
	specs := [][2]*HuffmanSpec{
		{&StdDCLuminance, &StdACLuminance},
		{&StdDCChrominance, &StdACChrominance},
	}
	for id, pair := range specs {
		if id == 1 && d.Components == 1 {
			break
		}
		for class, spec := range pair {
			payload := make([]byte, 0, 17+len(spec.Values))
			payload = append(payload, byte(class<<4|id))
			payload = append(payload, spec.Counts[:]...)
			payload = append(payload, spec.Values...)
			check(writeSegment(w, mDHT, payload))
		}
	}
	if ri > 0 {
		check(writeSegment(w, mDRI, []byte{byte(ri >> 8), byte(ri)}))
	}
	for i := 0; i < d.Components; i++ {
		tid := 0
		if i > 0 {
			tid = 1
		}
		check(writeSegment(w, mSOS, []byte{1, byte(i + 1), byte(tid<<4 | tid), 0, 63, 0}))
		dcTab, acTab := enc[tid*2], enc[tid*2+1]
		bw := bitio.NewWriter(w)
		sbw := (d.planes[i].w + 7) / 8
		sbh := (d.planes[i].h + 7) / 8
		var prevDC int32
		n, rstIdx := 0, 0
		for by := 0; by < sbh; by++ {
			for bx := 0; bx < sbw; bx++ {
				if ri > 0 && n > 0 && n%ri == 0 {
					check(bw.Flush())
					writeMarker(w, byte(mRST0+rstIdx))
					rstIdx = (rstIdx + 1) % 8
					prevDC = 0
				}
				coefs := &d.coefs[i][by*d.blocksX[i]+bx]
				check(encodeBlock(bw, coefs, 63, prevDC, dcTab, acTab))
				prevDC = coefs[0]
				n++
			}
		}
		check(bw.Flush())
	}
	writeMarker(w, mEOI)
	check(w.Flush())
	return buf.Bytes()
}
