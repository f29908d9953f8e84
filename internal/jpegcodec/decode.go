package jpegcodec

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/imgutil"
	"repro/internal/qtable"
)

// Decoded holds the result of decoding a JPEG stream together with the
// coding metadata the DeepN-JPEG tooling inspects. A Decoded can be
// reused across decodes through DecodeInto, which recycles its planes,
// coefficient grids and table map instead of reallocating them — the
// allocation-free steady state batch transcode loops rely on.
//
// Decoding stops at the quantized coefficients. Pixels reconstruct on
// the first pixel read (Gray, GrayInto, RGB, RGBInto), once per decode,
// so a caller that only reads coefficients — Requantize — never pays
// for the inverse DCT. Because that first read fills the Decoded's
// planes, no pixel reader may run concurrently with another on one
// Decoded.
type Decoded struct {
	W, H       int
	Components int // 1 (grayscale) or 3 (YCbCr)

	// Per-component planes at their coded (possibly subsampled) size,
	// together with the component's sampling factors and quantization
	// table id from the SOF header — RGBInto needs the true factors to
	// upsample correctly (plane-size ratios are ambiguous for fractional
	// ceil-division sizes) and Requantize needs tq to find each
	// component's coded table. inv is that table with the inverse
	// transform's prescale folded in, bound at the end of the stream;
	// pix is filled from the coefficients on the first pixel read.
	planes [3]struct {
		w, h   int
		hs, vs int // sampling factors (1..4)
		tq     int // quantization table id
		inv    qtable.InvScaled
		pix    []uint8
	}
	maxH, maxV int            // frame maximum sampling factors
	coefs      [3][][64]int32 // quantized coefficients in block-row order
	blocksX    [3]int
	blocksY    [3]int

	// ext holds each block's extent beside its coefficients: the last
	// zigzag index the entropy decode may have written, so every
	// coefficient past it is zero. It is recorded at the block's EOB
	// (0 for a DC-only block), and it is 63 in progressive frames and
	// for blocks no baseline scan writes. Reconstruction dispatches on
	// it, and Requantize walks each block only up to it.
	ext [3][]uint8

	// pixPending marks pixel planes not yet reconstructed from this
	// decode's coefficients; reconWorkers is the entropy decode's shard
	// fan-out (0 when it ran sequentially), which reconstruction reuses.
	pixPending   bool
	reconWorkers int

	// cols holds RGBInto's chroma column indices: Cb's, then Cr's.
	cols []int32

	// QuantTables holds the dequantization tables by table id.
	QuantTables map[int]qtable.Table
	// Sampling describes the chroma layout of 3-component images.
	Sampling Subsampling
	// RestartInterval is the parsed DRI value in effect for the last
	// scan (0 when absent).
	RestartInterval int
	// Progressive records that the source was a progressive (SOF2)
	// frame assembled from multiple scans. The decoded coefficients and
	// pixels are in the same representation as a baseline decode —
	// Requantize on a progressive source emits baseline output.
	Progressive bool

	// Metadata holds the stream's APPn/COM segments in order of
	// appearance; Requantize re-emits them by default so EXIF/ICC
	// profiles and comments survive transcoding. Payload slices alias
	// metaBuf and stay valid until the next DecodeInto or Reset.
	Metadata []MetaSegment
	metaBuf  []byte // flat backing store for Metadata payloads
}

// Reset clears the decoded content while keeping every allocated buffer
// (planes, coefficient grids, table map, color scratch) for reuse by a
// subsequent DecodeInto.
func (d *Decoded) Reset() {
	d.W, d.H, d.Components = 0, 0, 0
	d.Sampling = 0
	d.RestartInterval = 0
	d.Progressive = false
	d.maxH, d.maxV = 0, 0
	d.pixPending = false
	d.reconWorkers = 0
	d.Metadata = d.Metadata[:0]
	d.metaBuf = d.metaBuf[:0]
	for i := range d.planes {
		d.planes[i].w, d.planes[i].h = 0, 0
		d.planes[i].hs, d.planes[i].vs = 0, 0
		d.planes[i].tq = 0
		d.planes[i].pix = d.planes[i].pix[:0]
		d.coefs[i] = d.coefs[i][:0]
		d.ext[i] = d.ext[i][:0]
		d.blocksX[i], d.blocksY[i] = 0, 0
	}
	for k := range d.QuantTables {
		delete(d.QuantTables, k)
	}
}

// Gray returns the luma plane.
func (d *Decoded) Gray() *imgutil.Gray {
	return d.GrayInto(nil)
}

// GrayInto copies the luma plane into dst, reusing dst's buffer when its
// capacity suffices. A nil dst allocates a fresh image. The first pixel
// read after a decode reconstructs the planes, so GrayInto must not run
// concurrently with another pixel reader on one Decoded.
func (d *Decoded) GrayInto(dst *imgutil.Gray) *imgutil.Gray {
	d.reconstruct()
	g := dst
	if g == nil {
		g = &imgutil.Gray{}
	}
	g.W, g.H = d.planes[0].w, d.planes[0].h
	g.Pix = imgutil.GrowBytes(g.Pix, g.W*g.H)
	copy(g.Pix, d.planes[0].pix)
	return g
}

// Coefficients returns the quantized DCT coefficients of component i in
// natural order, along with the MCU-padded block-grid dimensions. Blocks
// are stored row-major (by*blocksX + bx). The grid is read-only: pixels
// reconstruct from it lazily, on the first pixel read, and both that
// reconstruction and Requantize read each block only up to the extent
// its entropy decode recorded, so a write before that read would change
// the pixels, and a write past a block's extent is lost to both.
func (d *Decoded) Coefficients(i int) (blocks [][64]int32, blocksX, blocksY int) {
	return d.coefs[i], d.blocksX[i], d.blocksY[i]
}

// RGB reconstructs a full-resolution color image, upsampling chroma when
// needed. Grayscale sources replicate luma.
func (d *Decoded) RGB() *imgutil.RGB {
	return d.RGBInto(nil)
}

// RGBInto is RGB writing into dst, reusing dst's pixel buffer when its
// capacity suffices. A nil dst allocates a fresh image; the result is
// returned either way and never aliases the Decoded's internal planes.
//
// Color frames convert in one pass from the Y/Cb/Cr planes to
// interleaved RGB, with the color terms rounded to integers and read
// from tables. 4:2:0 frames convert two rows at a time, each chroma
// sample's terms once for its 2×2 luma box (imgutil.YCbCr420RowsToRGB).
// Every other layout upsamples chroma by nearest-sample replication
// through row and column indices computed once per call
// (imgutil.YCbCrRowToRGB). The indices follow the components' true
// sampling factors from the SOF header — for ceil-division plane sizes
// the ratio cannot be recovered from the plane size alone (a 9-wide
// 4:1:1 frame has a 3-wide chroma plane, and 9/3 ≠ 4) — so output pixel
// (x, y) reads chroma sample (x·hs/maxH, y·vs/maxV), clamped to the
// plane. When the Cb plane is frame-sized, every frame-sized chroma
// plane is read one to one instead.
// The first pixel read after a decode reconstructs the planes, and the
// column indices are scratch kept on the Decoded, so RGBInto must not
// run concurrently with another pixel reader on one Decoded.
func (d *Decoded) RGBInto(dst *imgutil.RGB) *imgutil.RGB {
	d.reconstruct()
	im := dst
	if im == nil {
		im = &imgutil.RGB{}
	}
	if d.Components == 1 {
		p := &d.planes[0]
		im.W, im.H = p.w, p.h
		im.Pix = imgutil.GrowBytes(im.Pix, 3*p.w*p.h)
		for i, v := range p.pix[:p.w*p.h] {
			im.Pix[3*i], im.Pix[3*i+1], im.Pix[3*i+2] = v, v, v
		}
		return im
	}
	w, h := d.W, d.H
	im.W, im.H = w, h
	im.Pix = imgutil.GrowBytes(im.Pix, 3*w*h)
	lum, cb, cr := &d.planes[0], &d.planes[1], &d.planes[2]
	if d.Sampling == Sub420 {
		// Each chroma sample covers a 2×2 luma box: convert two rows per
		// chroma row (an odd last row pairs with itself).
		for y := 0; y < h; y += 2 {
			y1, c := min(y+1, h-1), y/2
			imgutil.YCbCr420RowsToRGB(im.Pix[3*y*w:3*(y+1)*w], im.Pix[3*y1*w:3*(y1+1)*w],
				lum.pix[y*w:(y+1)*w], lum.pix[y1*w:(y1+1)*w],
				cb.pix[c*cb.w:(c+1)*cb.w], cr.pix[c*cr.w:(c+1)*cr.w])
		}
		return im
	}
	cbDirect := cb.w == w && cb.h == h
	crDirect := cbDirect && cr.w == w && cr.h == h
	if cap(d.cols) < 2*w {
		d.cols = make([]int32, 2*w)
	}
	cbX, crX := d.cols[:w], d.cols[w:2*w]
	for x := range w {
		cbX[x] = int32(chromaIndex(x, cb.hs, d.maxH, cb.w, cbDirect))
		crX[x] = int32(chromaIndex(x, cr.hs, d.maxH, cr.w, crDirect))
	}
	for y := range h {
		by := chromaIndex(y, cb.vs, d.maxV, cb.h, cbDirect)
		ry := chromaIndex(y, cr.vs, d.maxV, cr.h, crDirect)
		imgutil.YCbCrRowToRGB(im.Pix[3*y*w:3*(y+1)*w], lum.pix[y*w:(y+1)*w],
			cb.pix[by*cb.w:(by+1)*cb.w], cr.pix[ry*cr.w:(ry+1)*cr.w], cbX, crX)
	}
	return im
}

// chromaIndex is the chroma sample that output coordinate i reads along
// one axis of a plane of n samples with sampling factor s under the
// frame maximum maxS: i itself when the plane is read one to one,
// otherwise i·s/maxS clamped to the plane.
func chromaIndex(i, s, maxS, n int, direct bool) int {
	if direct {
		return i
	}
	return min(i*s/maxS, n-1)
}

// DecodeOptions configures DecodeInto and DecodeBytes.
type DecodeOptions struct {
	// MaxPixels rejects frames whose declared width×height exceeds it
	// (0 = unlimited). The decoder sizes its planes and coefficient grids
	// from the SOF header before any entropy data is read, so a tiny
	// hostile stream can otherwise demand gigabytes; servers and fuzzers
	// feeding untrusted bytes should always set a bound.
	MaxPixels int
	// ShardWorkers overrides restart-interval sharded decoding for tests
	// and measurement; no production code sets it. When the stream
	// declares a restart interval the entropy data is byte-scanned into
	// its restart segments (markers are byte-aligned and cannot occur
	// inside stuffed entropy data) and the segments decode concurrently,
	// each on its own bit reader with a fresh DC predictor. 0
	// leaves the choice to the decoder (shard across GOMAXPROCS on frames
	// of at least 1024 MCUs); 1 or any negative value forces the
	// sequential path, the reference the shard-equivalence tests compare
	// against; values ≥ 2 force that many workers, capped at the segment
	// count. The set of accepted streams and the decoded output are
	// identical either way. Sharding applies only to baseline fully
	// interleaved scans; progressive and non-interleaved scans always
	// decode sequentially (see shard.go for the guard's rationale).
	ShardWorkers int
}

// frame is the per-image state that persists across scans: the geometry
// from the SOF header and the components whose full-image coefficient
// planes every scan accumulates into. Baseline frames complete in one
// (interleaved) scan or one scan per component; progressive frames
// spread the coefficient data over many DC/AC first/refinement scans.
// Either way the decode ends at the finished coefficient planes; pixels
// reconstruct from them on the first read (Decoded.reconstruct).
type frame struct {
	w, h         int
	progressive  bool
	maxH, maxV   int // frame maximum sampling factors
	mcusX, mcusY int // interleaved MCU grid
	comps        []*component
	nScans       int // completed scans (entropy data fully decoded)
}

// decoder carries parsing state. Decoders are pooled: every field either
// resets cheaply between streams (scalars, table pointers) or is a grown
// buffer deliberately retained across decodes (in, huffStore values).
type decoder struct {
	data  []byte               // the stream, read in place
	pos   int                  // next unparsed byte of data
	bits  bitio.Reader         // entropy reader of the current scan
	quant map[int]qtable.Table // aliases dst.QuantTables during a run
	dst   *Decoded

	// in holds what DecodeInto read from its io.Reader; it is the
	// decoder's own buffer, kept across decodes.
	in []byte

	frame frame // per-image state shared by all scans

	huff      [8]*decTable // index: class<<2 | id; nil until defined
	huffStore [8]decTable  // backing storage, value buffers reused
	compArr   [3]component // backing for frame.comps via compRefs
	compRefs  [3]*component
	scanComps [4]*component // scratch for the current scan's component list
	ri        int           // restart interval in MCUs
	maxPixels int           // reject frames larger than this (0 = unlimited)
	shard     int           // ShardWorkers request for restart-sharded decoding

	// eobRun is the progressive AC decoders' pending end-of-band run:
	// the number of further blocks (beyond the current one) whose band
	// is already over. It never crosses a scan or restart boundary.
	eobRun int32

	// segs is the sharded decode's scratch, retained across decodes: the
	// scan's restart segments, subslices of data.
	segs [][]byte

	// metaSpans records APPn/COM segments during the parse as offsets
	// into dst.metaBuf; finish materializes them into dst.Metadata.
	// Offsets rather than subslices because metaBuf may reallocate while
	// segments are still arriving.
	metaSpans []metaSpan
}

// metaSpan is one recorded APPn/COM segment: its marker byte and the
// payload's position inside the Decoded's flat metadata buffer.
type metaSpan struct {
	marker     byte
	start, end int
}

// release drops references to caller-owned memory and returns the
// decoder to the pool.
func (d *decoder) release() {
	d.data = nil
	d.pos = 0
	d.bits.Reset(nil)
	d.quant = nil
	d.dst = nil
	d.frame = frame{}
	d.huff = [8]*decTable{}
	d.compArr = [3]component{}
	d.compRefs = [3]*component{}
	d.scanComps = [4]*component{}
	d.ri = 0
	d.maxPixels = 0
	d.shard = 0
	d.eobRun = 0
	clear(d.segs)
	d.segs = d.segs[:0]
	d.metaSpans = d.metaSpans[:0]
	decoderPool.Put(d)
}

// Decode parses a baseline sequential (interleaved or not) or
// progressive JFIF/JPEG stream with default options. Arithmetic-coded,
// lossless and hierarchical streams are rejected with
// UnsupportedFormatError.
func Decode(r io.Reader) (*Decoded, error) {
	out := &Decoded{}
	if err := DecodeInto(r, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto parses a baseline or progressive JFIF/JPEG stream into dst,
// reusing dst's planes, coefficient grids and table map when their
// capacity suffices. It is the allocation-free steady-state decode path:
// a caller that decodes many streams through one (per-worker) Decoded
// pays for output buffers once. DecodeInto consumes r to EOF into a
// buffer the pooled decoder keeps, then decodes those bytes exactly as
// DecodeBytes does; a caller that already holds the stream in memory
// should call DecodeBytes and skip the copy. DecodeInto stops at the
// quantized coefficients; dst's pixels reconstruct on their first read
// (GrayInto, RGBInto), sharded like the entropy decode was. On error
// dst's contents are unspecified. A nil opts selects the defaults.
func DecodeInto(r io.Reader, dst *Decoded, opts *DecodeOptions) error {
	if dst == nil {
		return errors.New("jpegcodec: DecodeInto needs a non-nil destination")
	}
	d := decoderPool.Get().(*decoder)
	in, err := readAll(r, d.in[:0])
	d.in = in
	if err != nil {
		d.release()
		return err
	}
	return d.decode(in, dst, opts)
}

// DecodeBytes is DecodeInto reading the stream from data in place: the
// decoder parses the caller's bytes without copying them, and nothing in
// dst refers to data once DecodeBytes returns.
func DecodeBytes(data []byte, dst *Decoded, opts *DecodeOptions) error {
	if dst == nil {
		return errors.New("jpegcodec: DecodeBytes needs a non-nil destination")
	}
	return decoderPool.Get().(*decoder).decode(data, dst, opts)
}

// readAll appends everything r yields up to EOF to buf, growing it only
// when it is full.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decode runs one decode of data into dst on the pooled decoder d and
// returns d to the pool.
func (d *decoder) decode(data []byte, dst *Decoded, opts *DecodeOptions) error {
	var o DecodeOptions
	if opts != nil {
		o = *opts
	}
	dst.Reset()
	if dst.QuantTables == nil {
		dst.QuantTables = map[int]qtable.Table{}
	}
	d.data, d.pos = data, 0
	d.quant = dst.QuantTables
	d.dst = dst
	d.maxPixels = o.MaxPixels
	d.shard = o.ShardWorkers
	err := d.run()
	d.release()
	return err
}

// run is the marker loop. Scans hand back the marker that terminated
// their entropy data (pending), so a multi-scan stream — progressive or
// non-interleaved baseline — keeps parsing DHT/DQT/DRI/SOS segments
// between scans until EOI (or a clean end of input) finishes the frame.
func (d *decoder) run() error {
	m, err := d.readMarkerByte()
	if err != nil {
		return err
	}
	if m != mSOI {
		return fmt.Errorf("jpegcodec: missing SOI, found %#02x", m)
	}
	var pending byte // marker already consumed by a scan's entropy reader
	for {
		m := pending
		pending = 0
		if m == 0 {
			var err error
			m, err = d.readMarkerByte()
			if err != nil {
				// A stream that simply ends after a completed scan still
				// decodes — the historical tolerance for a missing EOI.
				if d.frame.nScans > 0 && errors.Is(err, io.EOF) {
					return d.finishFrame()
				}
				return err
			}
		}
		switch {
		case m == mSOF0 || m == mSOF1 || m == mSOF2:
			if err := d.parseSOF(m == mSOF2); err != nil {
				return err
			}
		case m >= 0xC3 && m <= 0xCF && m != mDHT:
			// Lossless, hierarchical/differential and arithmetic-coded
			// frame families (plus DAC and the reserved JPG marker).
			return &UnsupportedFormatError{Marker: m, Name: unsupportedFrameName(m)}
		case m == mDQT:
			if err := d.parseDQT(); err != nil {
				return err
			}
		case m == mDHT:
			if err := d.parseDHT(); err != nil {
				return err
			}
		case m == mDRI:
			if err := d.parseDRI(); err != nil {
				return err
			}
		case m == mSOS:
			next, err := d.decodeScan()
			if err != nil {
				return err
			}
			// A baseline frame whose components are all fully coded is
			// complete — return without inspecting the trailing bytes,
			// matching the single-scan decoder this loop generalizes. A
			// scan that ran out of input (next == 0) also ends the image.
			if d.frameDone() || next == 0 {
				return d.finishFrame()
			}
			pending = next
		case m == mEOI:
			if d.frame.nScans == 0 {
				return errors.New("jpegcodec: EOI before scan data")
			}
			return d.finishFrame()
		case m == mSOI:
			return errors.New("jpegcodec: unexpected second SOI")
		case (m >= mRST0 && m <= mRST0+7) || m == mTEM:
			// Bare markers carry no length field; a stray one between
			// segments is skipped rather than parsed as a segment.
		case (m >= mAPP0 && m <= mAPP0+0x0F) || m == mCOM:
			// Record application and comment segments so Requantize can
			// pass EXIF/ICC/comments through byte-identical.
			if err := d.recordMetaSegment(m); err != nil {
				return err
			}
		default:
			// Anything else with a length field: skip.
			if err := d.skipSegment(); err != nil {
				return err
			}
		}
	}
}

// frameDone reports that every component of a baseline frame has been
// coded, so no further scan can contribute. Progressive frames are only
// complete at EOI (or end of input): refinement scans may keep arriving.
func (d *decoder) frameDone() bool {
	f := &d.frame
	if f.progressive || f.nScans == 0 {
		return false
	}
	for _, c := range f.comps {
		if !c.scanned {
			return false
		}
	}
	return true
}

// readByte returns the next byte of the stream, io.EOF at its end.
func (d *decoder) readByte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, io.EOF
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

// readMarkerByte scans for the next 0xFF <code> pair, tolerating fill bytes.
func (d *decoder) readMarkerByte() (byte, error) {
	b, err := d.readByte()
	if err != nil {
		return 0, err
	}
	if b != 0xFF {
		return 0, fmt.Errorf("jpegcodec: expected marker, found %#02x", b)
	}
	for b == 0xFF {
		b, err = d.readByte()
		if err != nil {
			return 0, err
		}
	}
	return b, nil
}

// segmentPayload returns one marker segment body as a subslice of the
// stream; callers copy what they keep. A body cut short by the end of
// input fails like io.ReadFull: io.EOF when none of it is there,
// io.ErrUnexpectedEOF when part of it is.
func (d *decoder) segmentPayload() ([]byte, error) {
	b0, err := d.readByte()
	if err != nil {
		return nil, err
	}
	b1, err := d.readByte()
	if err != nil {
		return nil, err
	}
	n := int(b0)<<8 | int(b1)
	if n < 2 {
		return nil, fmt.Errorf("jpegcodec: segment length %d too small", n)
	}
	start, end := d.pos, d.pos+n-2
	if end > len(d.data) {
		d.pos = len(d.data)
		if start == len(d.data) {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	d.pos = end
	return d.data[start:end:end], nil
}

func (d *decoder) skipSegment() error {
	_, err := d.segmentPayload()
	return err
}

// recordMetaSegment stores one APPn/COM payload in the destination's
// flat metadata buffer and notes its span for finish to materialize.
func (d *decoder) recordMetaSegment(m byte) error {
	p, err := d.segmentPayload()
	if err != nil {
		return err
	}
	buf := d.dst.metaBuf
	start := len(buf)
	buf = append(buf, p...)
	d.dst.metaBuf = buf
	d.metaSpans = append(d.metaSpans, metaSpan{marker: m, start: start, end: len(buf)})
	return nil
}

func (d *decoder) parseDQT() error {
	p, err := d.segmentPayload()
	if err != nil {
		return err
	}
	for len(p) > 0 {
		pq := int(p[0] >> 4)
		tq := int(p[0] & 0x0F)
		p = p[1:]
		var zz [64]uint16
		switch pq {
		case 0:
			if len(p) < 64 {
				return errors.New("jpegcodec: truncated 8-bit DQT")
			}
			for i := 0; i < 64; i++ {
				zz[i] = uint16(p[i])
			}
			p = p[64:]
		case 1:
			if len(p) < 128 {
				return errors.New("jpegcodec: truncated 16-bit DQT")
			}
			for i := 0; i < 64; i++ {
				zz[i] = uint16(p[2*i])<<8 | uint16(p[2*i+1])
			}
			p = p[128:]
		default:
			return fmt.Errorf("jpegcodec: bad DQT precision %d", pq)
		}
		d.quant[tq] = qtable.FromZigZag(zz)
	}
	return nil
}

func (d *decoder) parseDHT() error {
	p, err := d.segmentPayload()
	if err != nil {
		return err
	}
	for len(p) > 0 {
		if len(p) < 17 {
			return errors.New("jpegcodec: truncated DHT")
		}
		tc := int(p[0] >> 4)
		th := int(p[0] & 0x0F)
		if tc > 1 {
			return fmt.Errorf("jpegcodec: bad huffman class %d", tc)
		}
		if th > 3 {
			return fmt.Errorf("jpegcodec: huffman table id %d exceeds baseline limit 3", th)
		}
		var spec HuffmanSpec
		total := 0
		for i := 0; i < 16; i++ {
			spec.Counts[i] = p[1+i]
			total += int(p[1+i])
		}
		if len(p) < 17+total {
			return errors.New("jpegcodec: truncated DHT values")
		}
		// decTable.init copies the values out of the stream, so the spec
		// can reference it directly.
		spec.Values = p[17 : 17+total]
		p = p[17+total:]
		idx := tc<<2 | th
		if err := d.huffStore[idx].init(&spec); err != nil {
			return err
		}
		d.huff[idx] = &d.huffStore[idx]
	}
	return nil
}

func (d *decoder) parseDRI() error {
	p, err := d.segmentPayload()
	if err != nil {
		return err
	}
	if len(p) != 2 {
		return errors.New("jpegcodec: bad DRI length")
	}
	d.ri = int(p[0])<<8 | int(p[1])
	return nil
}

// parseSOF reads the frame header and establishes everything every scan
// shares: component geometry, the interleaved MCU grid, and the
// full-image coefficient planes (grown from the destination so repeated
// DecodeInto calls reuse them). Progressive frames zero their
// coefficient grids here — scans accumulate bits into them rather than
// overwriting whole blocks, so pooled leftovers must not shine through.
func (d *decoder) parseSOF(progressive bool) error {
	p, err := d.segmentPayload()
	if err != nil {
		return err
	}
	f := &d.frame
	if f.comps != nil {
		return errors.New("jpegcodec: multiple SOF segments")
	}
	if len(p) < 6 {
		return errors.New("jpegcodec: truncated SOF")
	}
	if p[0] != 8 {
		return fmt.Errorf("jpegcodec: unsupported sample precision %d", p[0])
	}
	f.h = int(p[1])<<8 | int(p[2])
	f.w = int(p[3])<<8 | int(p[4])
	f.progressive = progressive
	n := int(p[5])
	if n != 1 && n != 3 {
		return fmt.Errorf("jpegcodec: unsupported component count %d", n)
	}
	if f.w == 0 || f.h == 0 {
		return errors.New("jpegcodec: zero frame dimensions")
	}
	// Division form: both dimensions can be 65535, whose product
	// overflows int on 32-bit platforms and would wrap past the cap.
	if d.maxPixels > 0 && (f.h > d.maxPixels || f.w > d.maxPixels/f.h) {
		return fmt.Errorf("jpegcodec: frame %dx%d exceeds the %d-pixel decode limit", f.w, f.h, d.maxPixels)
	}
	if len(p) < 6+3*n {
		return errors.New("jpegcodec: truncated SOF components")
	}
	for i := 0; i < n; i++ {
		d.compArr[i] = component{
			id: p[6+3*i],
			h:  int(p[7+3*i] >> 4),
			v:  int(p[7+3*i] & 0x0F),
			tq: int(p[8+3*i]),
		}
		c := &d.compArr[i]
		if c.h < 1 || c.h > 4 || c.v < 1 || c.v > 4 {
			return fmt.Errorf("jpegcodec: bad sampling factors %dx%d", c.h, c.v)
		}
		d.compRefs[i] = c
	}
	if n == 1 {
		// A single-component scan is non-interleaved (T.81 A.2): its MCU
		// is one data unit and the declared sampling factors do not shape
		// the scan geometry. Normalize them to 1×1 — real files keep e.g.
		// 2×2 luma factors after grayscale conversion, and honoring them
		// would pad the plane and misplace blocks (stdlib normalizes too).
		d.compArr[0].h, d.compArr[0].v = 1, 1
	} else {
		// T.81 B.2.2: baseline interleaved MCUs carry at most 10 data
		// units. Hostile headers past the bound (up to 48 blocks/MCU with
		// three 4×4 components) are a CPU/memory amplification lever.
		blocks := 0
		for i := 0; i < n; i++ {
			blocks += d.compArr[i].h * d.compArr[i].v
		}
		if blocks > 10 {
			return fmt.Errorf("jpegcodec: %d blocks per MCU exceeds the baseline limit 10", blocks)
		}
	}
	f.comps = d.compRefs[:n]

	maxH, maxV := 1, 1
	for _, c := range f.comps {
		maxH = max(maxH, c.h)
		maxV = max(maxV, c.v)
	}
	// Every real encoder gives component 0 (luma) the maximum sampling
	// factors; the pixel-reconstruction paths assume its plane is
	// full-resolution, so reject the degenerate layouts where it is not.
	if f.comps[0].h != maxH || f.comps[0].v != maxV {
		return fmt.Errorf("jpegcodec: component 0 sampling %dx%d below frame maximum %dx%d",
			f.comps[0].h, f.comps[0].v, maxH, maxV)
	}
	f.maxH, f.maxV = maxH, maxV
	f.mcusX = (f.w + 8*maxH - 1) / (8 * maxH)
	f.mcusY = (f.h + 8*maxV - 1) / (8 * maxV)
	for i, c := range f.comps {
		c.w = (f.w*c.h + maxH - 1) / maxH
		c.hgt = (f.h*c.v + maxV - 1) / maxV
		c.blocksX = f.mcusX * c.h
		c.blocksY = f.mcusY * c.v
		// Output buffers come from the destination so repeated DecodeInto
		// calls reuse them.
		c.coefs = growCoefs(d.dst.coefs[i], c.blocksX*c.blocksY)
		d.dst.coefs[i] = c.coefs
		c.ext = imgutil.GrowBytes(d.dst.ext[i], len(c.coefs))
		d.dst.ext[i] = c.ext
		if progressive {
			d.primeComponent(c)
		}
	}
	return nil
}

// receiveExtend implements the RECEIVE+EXTEND procedure (T.81 F.2.2.1):
// read s magnitude bits and sign-extend per the JPEG convention.
func receiveExtend(br *bitio.Reader, s int) (int32, error) {
	if s == 0 {
		return 0, nil
	}
	bits, err := br.ReadBits(uint(s))
	if err != nil {
		return 0, err
	}
	return extend(bits, uint(s)), nil
}

// extend is EXTEND (T.81 F.2.2.1): the value that s magnitude bits v
// code, where a leading 0 bit marks a negative value, v − (2^s − 1).
// No bits (s = 0, v = 0) code 0. It is branch-free: the sign of a
// coefficient is the least predictable bit of a stream.
func extend(v uint32, s uint) int32 {
	x := int32(v)
	return x + (x-1<<(s-1))>>31&(-1<<s+1)
}

// decodeScan parses one SOS header, validates it against the frame type,
// and dispatches the entropy data to the matching scan decoder:
// baseline interleaved (the only shardable shape), baseline
// non-interleaved, or the progressive DC/AC first/refinement walks. It
// returns the marker that terminated the scan's entropy data (0 when the
// stream ended instead) so the marker loop can keep going on multi-scan
// streams.
func (d *decoder) decodeScan() (byte, error) {
	f := &d.frame
	if f.comps == nil {
		return 0, errors.New("jpegcodec: SOS before SOF")
	}
	p, err := d.segmentPayload()
	if err != nil {
		return 0, err
	}
	if len(p) < 1 {
		return 0, errors.New("jpegcodec: truncated SOS")
	}
	ns := int(p[0])
	if ns < 1 || ns > 4 {
		return 0, fmt.Errorf("jpegcodec: scan declares %d components", ns)
	}
	if ns > len(f.comps) {
		return 0, fmt.Errorf("jpegcodec: scan has %d components, frame has %d", ns, len(f.comps))
	}
	if len(p) < 1+2*ns+3 {
		return 0, errors.New("jpegcodec: truncated SOS payload")
	}
	scomps := d.scanComps[:0]
	for i := 0; i < ns; i++ {
		cs := p[1+2*i]
		var c *component
		for _, cand := range f.comps {
			if cand.id == cs {
				c = cand
				break
			}
		}
		if c == nil {
			return 0, fmt.Errorf("jpegcodec: scan references unknown component %d", cs)
		}
		for _, prev := range scomps {
			if prev == c {
				return 0, fmt.Errorf("jpegcodec: duplicate component %d in scan", cs)
			}
		}
		c.td = int(p[2+2*i] >> 4)
		c.ta = int(p[2+2*i] & 0x0F)
		if c.td > 3 || c.ta > 3 {
			return 0, fmt.Errorf("jpegcodec: huffman table ids %d/%d exceed baseline limit 3", c.td, c.ta)
		}
		scomps = append(scomps, c)
	}
	ss := int(p[1+2*ns])
	se := int(p[2+2*ns])
	ah := int(p[3+2*ns] >> 4)
	al := int(p[3+2*ns] & 0x0F)
	f.nScans++
	for _, c := range scomps {
		c.scanned = true
	}

	if !f.progressive {
		if ss != 0 || se != 63 || ah != 0 || al != 0 {
			return 0, fmt.Errorf("jpegcodec: baseline scan with Ss=%d Se=%d Ah=%d Al=%d (progressive scan parameters need a SOF2 frame)", ss, se, ah, al)
		}
		if ns == len(f.comps) {
			// The classic fully interleaved scan; every block of every
			// component is coded (and zeroed as it decodes), and this is
			// the only scan shape the restart-sharded entropy path
			// handles (see shard.go).
			for _, c := range scomps {
				c.primed = true
			}
			if nw := shardWorkersFor(d.shard, d.ri, f.mcusX*f.mcusY); nw > 1 {
				return d.scanSharded(scomps, nw)
			}
			return d.scanBaseline(scomps, true)
		}
		if ns == 1 {
			// Non-interleaved: the scan walks the component's unpadded
			// block grid, leaving MCU-padding blocks untouched — zero the
			// grid so pooled leftovers cannot leak into reconstruction.
			d.primeComponent(scomps[0])
			return d.scanBaseline(scomps, false)
		}
		// A partial interleave (a strict subset of the components, ns ≥ 2):
		// the MCU walk covers each member's full padded grid.
		for _, c := range scomps {
			c.primed = true
		}
		return d.scanBaseline(scomps, true)
	}

	// Progressive scan-header validation (T.81 G.1): a DC scan selects
	// exactly coefficient 0 and may interleave; an AC scan selects a
	// band 1..63 of a single component. A refinement scan narrows the
	// point transform by exactly one bit.
	switch {
	case ss == 0 && se != 0:
		return 0, fmt.Errorf("jpegcodec: progressive DC scan with Se=%d (want 0)", se)
	case ss > 0 && (se < ss || se > 63):
		return 0, fmt.Errorf("jpegcodec: bad spectral selection %d..%d", ss, se)
	case ss > 0 && ns != 1:
		return 0, fmt.Errorf("jpegcodec: progressive AC scan interleaves %d components", ns)
	case ah > 13 || al > 13:
		return 0, fmt.Errorf("jpegcodec: successive approximation %d/%d out of range", ah, al)
	case ah != 0 && ah != al+1:
		return 0, fmt.Errorf("jpegcodec: refinement scan Ah=%d does not extend Al=%d", ah, al)
	}
	return d.scanProgressive(scomps, ss, se, ah, al)
}

// primeComponent zeroes a component's pooled coefficient grid once per
// decode, before the first scan that does not overwrite every block,
// and sets every block's extent to 63: a block that a later scan does
// not write stays zero, and progressive scans never record extents.
func (d *decoder) primeComponent(c *component) {
	if c.primed {
		return
	}
	zeroCoefs(c.coefs)
	for i := range c.ext {
		c.ext[i] = 63
	}
	c.primed = true
}

// scanRestart consumes one restart marker, enforcing the D0..D7 cycle —
// a stream whose markers are out of sequence has lost or reordered
// segments, and decoding past the desync would silently produce garbage
// pixels — and resets the entropy state that must not cross a restart
// boundary: DC predictors and any pending EOB run.
func (d *decoder) scanRestart(rst *int, prevDC *[4]int32) error {
	m, err := d.bits.ReadMarker()
	if err != nil {
		return fmt.Errorf("jpegcodec: reading restart marker: %w", err)
	}
	if m != byte(mRST0+*rst) {
		return fmt.Errorf("jpegcodec: expected RST%d, found %#02x", *rst, m)
	}
	*rst = (*rst + 1) % 8
	*prevDC = [4]int32{}
	d.eobRun = 0
	return nil
}

// entropyReader points the decoder's bit reader at the entropy data
// that starts at the current position; scanEnd moves the position past
// it.
func (d *decoder) entropyReader() *bitio.Reader {
	d.bits.Reset(d.data[d.pos:])
	return &d.bits
}

// scanEnd reads the marker that terminated the scan's entropy data,
// returning 0 when the stream ends (or desyncs) there instead — a
// completed scan with a missing terminator still decodes, preserving the
// historical tolerance for streams truncated after the last MCU. The
// marker loop resumes after what the bit reader consumed.
func (d *decoder) scanEnd() byte {
	m, err := d.bits.ReadMarker()
	d.pos += d.bits.Offset()
	if err != nil {
		return 0
	}
	return m
}

// scanBaseline entropy-decodes one baseline scan on the calling
// goroutine. An interleaved scan walks the frame MCU grid in the scan
// header's component order; a non-interleaved (single-component) scan
// walks the component's unpadded block grid, one block per MCU, with
// restart intervals counted in those units (T.81 A.2.2).
func (d *decoder) scanBaseline(scomps []*component, interleaved bool) (byte, error) {
	f := &d.frame
	for _, c := range scomps {
		if d.huff[0<<2|c.td] == nil || d.huff[1<<2|c.ta] == nil {
			return 0, fmt.Errorf("jpegcodec: missing huffman tables %d/%d", c.td, c.ta)
		}
	}
	br := d.entropyReader()
	var prevDC [4]int32 // indexed by component position in the scan
	rst := 0            // expected index of the next restart marker
	c0 := scomps[0]
	total, sbw := f.mcusX*f.mcusY, 0
	if !interleaved {
		sbw = (c0.w + 7) / 8
		total = sbw * ((c0.hgt + 7) / 8)
	}
	for mcu := 0; mcu < total; mcu++ {
		if d.ri > 0 && mcu > 0 && mcu%d.ri == 0 {
			if err := d.scanRestart(&rst, &prevDC); err != nil {
				return 0, err
			}
		}
		if interleaved {
			if err := decodeMCU(br, scomps, &d.huff, f.mcusX, mcu, &prevDC); err != nil {
				return 0, err
			}
			continue
		}
		k := mcu/sbw*c0.blocksX + mcu%sbw
		if err := decodeBlockInto(br, d.huff[0<<2|c0.td], d.huff[1<<2|c0.ta], prevDC[0], &c0.coefs[k], &c0.ext[k]); err != nil {
			return 0, err
		}
		prevDC[0] = c0.coefs[k][0]
	}
	return d.scanEnd(), nil
}

// decodeMCU entropy-decodes the mcu-th MCU (scan order) of an
// interleaved scan into the components' coefficient grids, advancing the
// caller's DC predictors — the decoding unit shared by the sequential
// and sharded scan readers, mirroring encodeMCU.
func decodeMCU(br *bitio.Reader, scomps []*component, huff *[8]*decTable, mcusX, mcu int, prevDC *[4]int32) error {
	my, mx := mcu/mcusX, mcu%mcusX
	for ci, c := range scomps {
		dcTab, acTab := huff[0<<2|c.td], huff[1<<2|c.ta]
		for vy := 0; vy < c.v; vy++ {
			for vx := 0; vx < c.h; vx++ {
				k := (my*c.v+vy)*c.blocksX + mx*c.h + vx
				if err := decodeBlockInto(br, dcTab, acTab, prevDC[ci], &c.coefs[k], &c.ext[k]); err != nil {
					return err
				}
				prevDC[ci] = c.coefs[k][0]
			}
		}
	}
	return nil
}

// decodeBlockInto entropy-decodes one block into natural-order
// coefficients, writing straight into the caller's grid slot (which may
// hold stale pooled data — it is zeroed first), and records the block's
// extent in *ext: at EOB, the zigzag index before the next unread
// position, which is at least the last nonzero one (a ZRL before EOB
// leaves it past that), and 63 for a block that runs to its end. On
// error the slot's contents are unspecified.
//
// Each code and its magnitude bits come out of one lookahead and one
// Skip when the code is in the lookup table and the magnitude bits are
// buffered too (decTable.fused). Every other case decodes the code and
// then reads the magnitude, so an error is the same, at the same point,
// as on a decoder that reads the two separately.
func decodeBlockInto(br *bitio.Reader, dcTab, acTab *decTable, prevDC int32, coefs *[64]int32, ext *uint8) error {
	*coefs = [64]int32{}
	var diff int32
	bits, n := br.Peek32()
	if s, used, mag := dcTab.fused(bits, n, 0xFF); used > 0 {
		br.Skip(used)
		diff = extend(mag, uint(s))
	} else {
		s, err := dcTab.decode(br)
		if err != nil {
			return err
		}
		if diff, err = receiveExtend(br, int(s)); err != nil {
			return err
		}
	}
	coefs[0] = prevDC + diff
	for z := 1; z < 64; {
		bits, n := br.Peek32()
		sym, used, mag := acTab.fused(bits, n, 0x0F)
		fused := used > 0
		if fused {
			br.Skip(used)
		} else {
			var err error
			if sym, err = acTab.decode(br); err != nil {
				return err
			}
		}
		run, size := int(sym>>4), int(sym&0x0F)
		switch {
		case size == 0 && run == 0: // EOB
			*ext = uint8(z - 1)
			return nil
		case size == 0 && run == 15: // ZRL
			z += 16
		case size == 0:
			return fmt.Errorf("jpegcodec: invalid AC symbol %#02x", sym)
		default:
			z += run
			if z > 63 {
				return errors.New("jpegcodec: AC run overflows block")
			}
			v := extend(mag, uint(size))
			if !fused {
				var err error
				if v, err = receiveExtend(br, size); err != nil {
					return err
				}
			}
			coefs[qtable.ZigZagOrder[z]] = v
			z++
		}
	}
	*ext = 63
	return nil
}

// finishFrame runs once per image, after the last scan: it zero-fills
// the grids of components no scan touched, binds the dequantization
// tables in effect at the end of the stream and publishes the result.
// Pixels are left to the first pixel read (Decoded.reconstruct).
func (d *decoder) finishFrame() error {
	f := &d.frame
	for i, c := range f.comps {
		// A component no scan carried reconstructs as a flat mid-gray
		// plane rather than pooled leftovers.
		d.primeComponent(c)
		tbl, ok := d.quant[c.tq]
		if !ok {
			return fmt.Errorf("jpegcodec: missing quantization table %d", c.tq)
		}
		// Fold the inverse transform's prescale into the dequantize
		// multipliers once per frame; reconstructBlockRow then runs one
		// multiply per coefficient with no prescale pass.
		tbl.InvScaledInto(&d.dst.planes[i].inv)
	}
	return d.finish()
}

// finish publishes the parsed state into the destination.
func (d *decoder) finish() error {
	out := d.dst
	f := &d.frame
	out.W = f.w
	out.H = f.h
	out.Components = len(f.comps)
	out.RestartInterval = d.ri
	out.Progressive = f.progressive
	out.maxH, out.maxV = f.maxH, f.maxV
	out.pixPending = true
	if len(f.comps) == 3 {
		out.Sampling = classifySampling(f.comps)
	}
	for i, c := range f.comps {
		out.planes[i].w = c.w
		out.planes[i].h = c.hgt
		out.planes[i].hs = c.h
		out.planes[i].vs = c.v
		out.planes[i].tq = c.tq
		out.coefs[i] = c.coefs
		out.ext[i] = c.ext
		out.blocksX[i] = c.blocksX
		out.blocksY[i] = c.blocksY
	}
	for _, s := range d.metaSpans {
		out.Metadata = append(out.Metadata, MetaSegment{
			Marker:  s.marker,
			Payload: out.metaBuf[s.start:s.end:s.end],
		})
	}
	return nil
}

// classifySampling maps a 3-component frame's sampling factors onto the
// named chroma layouts. Anything outside the common matrix — including
// layouts where the chroma components disagree — reports SubOther;
// decode and requantize handle those too, the label is informational.
func classifySampling(comps []*component) Subsampling {
	if comps[1].h != 1 || comps[1].v != 1 || comps[2].h != 1 || comps[2].v != 1 {
		return SubOther
	}
	switch [2]int{comps[0].h, comps[0].v} {
	case [2]int{1, 1}:
		return Sub444
	case [2]int{2, 2}:
		return Sub420
	case [2]int{2, 1}:
		return Sub422
	case [2]int{1, 2}:
		return Sub440
	case [2]int{4, 1}:
		return Sub411
	}
	return SubOther
}
