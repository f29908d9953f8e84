package jpegcodec

import (
	"bufio"
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
type Decoded struct {
	W, H       int
	Components int // 1 (grayscale) or 3 (YCbCr)

	// Per-component planes at their coded (possibly subsampled) size,
	// together with the component's sampling factors and quantization
	// table id from the SOF header — RGBInto needs the true factors to
	// upsample correctly (plane-size ratios are ambiguous for fractional
	// ceil-division sizes) and Requantize needs tq to find each
	// component's coded table.
	planes [3]struct {
		w, h   int
		hs, vs int // sampling factors (1..4)
		tq     int // quantization table id
		pix    []uint8
	}
	maxH, maxV int            // frame maximum sampling factors
	coefs      [3][][64]int32 // quantized coefficients in block-row order
	blocksX    [3]int
	blocksY    [3]int

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
	d.Metadata = d.Metadata[:0]
	d.metaBuf = d.metaBuf[:0]
	for i := range d.planes {
		d.planes[i].w, d.planes[i].h = 0, 0
		d.planes[i].hs, d.planes[i].vs = 0, 0
		d.planes[i].tq = 0
		d.planes[i].pix = d.planes[i].pix[:0]
		d.coefs[i] = d.coefs[i][:0]
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
// capacity suffices. A nil dst allocates a fresh image.
func (d *Decoded) GrayInto(dst *imgutil.Gray) *imgutil.Gray {
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
// are stored row-major (by*blocksX + bx).
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
// interleaved RGB: chroma is upsampled by nearest-sample replication
// through row and column indices computed once per call, and the color
// terms come from tables (imgutil.YCbCrRowToRGB). The indices follow the
// components' true sampling factors from the SOF header — for
// ceil-division plane sizes the ratio cannot be recovered from the
// plane size alone (a 9-wide 4:1:1 frame has a 3-wide chroma plane, and
// 9/3 ≠ 4) — so output pixel (x, y) reads chroma sample
// (x·hs/maxH, y·vs/maxV), clamped to the plane. When the Cb plane is
// frame-sized, every frame-sized chroma plane is read one to one instead.
// The column indices are scratch kept on the Decoded, so RGBInto must
// not run concurrently on one Decoded.
func (d *Decoded) RGBInto(dst *imgutil.RGB) *imgutil.RGB {
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

// DecodeOptions configures Decode/DecodeInto.
type DecodeOptions struct {
	// MaxPixels rejects frames whose declared width×height exceeds it
	// (0 = unlimited). The decoder sizes its planes and coefficient grids
	// from the SOF header before any entropy data is read, so a tiny
	// hostile stream can otherwise demand gigabytes; servers and fuzzers
	// feeding untrusted bytes should always set a bound.
	MaxPixels int
	// ShardWorkers controls restart-interval sharded decoding, the
	// single-image parallelism lever: when the stream declares a restart
	// interval the entropy data is byte-scanned into its restart
	// segments (markers are byte-aligned and cannot occur inside stuffed
	// entropy data) and the segments decode concurrently, each on its
	// own pooled bit reader with a fresh DC predictor. 0 selects auto
	// mode (shard across GOMAXPROCS when the frame is large enough to
	// pay for the fan-out); 1 or any negative value forces the
	// sequential path; values ≥ 2 force that many workers, capped at the
	// segment count. The set of accepted streams and the decoded output
	// are identical either way. Sharding applies only to baseline fully
	// interleaved scans; progressive and non-interleaved scans always
	// decode sequentially (see shard.go for the guard's rationale).
	ShardWorkers int
}

// frame is the per-image state that persists across scans: the geometry
// from the SOF header and the components whose full-image coefficient
// planes every scan accumulates into. Baseline frames complete in one
// (interleaved) scan or one scan per component; progressive frames
// spread the coefficient data over many DC/AC first/refinement scans.
// Either way reconstruction runs once, over the finished planes.
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
// buffer deliberately retained across decodes (payload, huffStore values).
type decoder struct {
	br    *bufio.Reader
	bits  *bitio.Reader        // pooled entropy reader
	quant map[int]qtable.Table // aliases dst.QuantTables during a run
	dst   *Decoded

	frame frame // per-image state shared by all scans

	huff      [8]*decTable // index: class<<2 | id; nil until defined
	huffStore [8]decTable  // backing storage, value buffers reused
	compArr   [3]component // backing for frame.comps via compRefs
	compRefs  [3]*component
	scanComps [4]*component // scratch for the current scan's component list
	payload   []byte        // reusable segment payload buffer
	ri        int           // restart interval in MCUs
	maxPixels int           // reject frames larger than this (0 = unlimited)
	shard     int           // ShardWorkers request for restart-sharded decoding

	// eobRun is the progressive AC decoders' pending end-of-band run:
	// the number of further blocks (beyond the current one) whose band
	// is already over. It never crosses a scan or restart boundary.
	eobRun int32
	// reconWorkers is > 1 when the scan's entropy data decoded sharded;
	// finishFrame then reconstructs with the same fan-out.
	reconWorkers int

	// Sharded-decode scratch, retained across decodes: the raw scan
	// bytes, the segment end offsets within them, and the derived
	// per-segment subslices.
	scanBuf   []byte
	segBounds []int
	segs      [][]byte

	// plane is the flat block-row scratch for the batched reconstruction
	// stage, retained across decodes (the parallel path checks extra
	// planes out of planePool instead).
	plane []float64

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
	d.br = nil
	d.bits.Reset(eofReader{})
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
	d.reconWorkers = 0
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
// pays for output buffers once. On error dst's contents are unspecified.
// A nil opts selects the defaults.
func DecodeInto(r io.Reader, dst *Decoded, opts *DecodeOptions) error {
	if dst == nil {
		return errors.New("jpegcodec: DecodeInto needs a non-nil destination")
	}
	var o DecodeOptions
	if opts != nil {
		o = *opts
	}
	dst.Reset()
	if dst.QuantTables == nil {
		dst.QuantTables = map[int]qtable.Table{}
	}

	br := bufrPool.Get().(*bufio.Reader)
	br.Reset(r)
	d := decoderPool.Get().(*decoder)
	d.br = br
	d.quant = dst.QuantTables
	d.dst = dst
	d.maxPixels = o.MaxPixels
	d.shard = o.ShardWorkers
	err := d.run()
	d.release()
	br.Reset(eofReader{}) // drop the caller's reader before pooling
	bufrPool.Put(br)
	return err
}

// run is the marker loop. Scans hand back the marker that terminated
// their entropy data (pending), so a multi-scan stream — progressive or
// non-interleaved baseline — keeps parsing DHT/DQT/DRI/SOS segments
// between scans until EOI (or a clean end of input) triggers the single
// reconstruction pass.
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

// readMarkerByte scans for the next 0xFF <code> pair, tolerating fill bytes.
func (d *decoder) readMarkerByte() (byte, error) {
	b, err := d.br.ReadByte()
	if err != nil {
		return 0, err
	}
	if b != 0xFF {
		return 0, fmt.Errorf("jpegcodec: expected marker, found %#02x", b)
	}
	for b == 0xFF {
		b, err = d.br.ReadByte()
		if err != nil {
			return 0, err
		}
	}
	return b, nil
}

// segmentPayload reads one marker segment body into the decoder's reused
// payload buffer. The returned slice is valid until the next call.
func (d *decoder) segmentPayload() ([]byte, error) {
	// Length bytes are read individually: a stack buffer would escape
	// into the io.ReadFull interface call and cost one allocation per
	// marker segment.
	b0, err := d.br.ReadByte()
	if err != nil {
		return nil, err
	}
	b1, err := d.br.ReadByte()
	if err != nil {
		return nil, err
	}
	n := int(b0)<<8 | int(b1)
	if n < 2 {
		return nil, fmt.Errorf("jpegcodec: segment length %d too small", n)
	}
	if cap(d.payload) < n-2 {
		d.payload = make([]byte, n-2)
	}
	payload := d.payload[:n-2]
	if _, err := io.ReadFull(d.br, payload); err != nil {
		return nil, err
	}
	return payload, nil
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
		// decTable.init copies the values out before the payload buffer is
		// reused, so the spec can reference it directly.
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
// full-image pixel and coefficient planes (grown from the destination so
// repeated DecodeInto calls reuse them). Progressive frames zero their
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
		c.pix = imgutil.GrowBytes(d.dst.planes[i].pix, c.w*c.hgt)
		d.dst.planes[i].pix = c.pix
		c.coefs = growCoefs(d.dst.coefs[i], c.blocksX*c.blocksY)
		d.dst.coefs[i] = c.coefs
		if progressive {
			zeroCoefs(c.coefs)
			c.primed = true
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
	v := int32(bits)
	if v < 1<<(s-1) {
		v -= (1 << s) - 1
	}
	return v, nil
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
// decode, before the first scan that does not overwrite every block.
func (d *decoder) primeComponent(c *component) {
	if c.primed {
		return
	}
	zeroCoefs(c.coefs)
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

// scanEnd reads the marker that terminated the scan's entropy data,
// returning 0 when the stream ends (or desyncs) there instead — a
// completed scan with a missing terminator still decodes, preserving the
// historical tolerance for streams truncated after the last MCU.
func (d *decoder) scanEnd() byte {
	m, err := d.bits.ReadMarker()
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
	br := d.bits
	br.Reset(d.br)
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
			my, mx := mcu/f.mcusX, mcu%f.mcusX
			for ci, c := range scomps {
				dcTab := d.huff[0<<2|c.td]
				acTab := d.huff[1<<2|c.ta]
				for vy := 0; vy < c.v; vy++ {
					for vx := 0; vx < c.h; vx++ {
						bx, by := mx*c.h+vx, my*c.v+vy
						coefs := &c.coefs[by*c.blocksX+bx]
						if err := decodeBlockInto(br, dcTab, acTab, prevDC[ci], coefs); err != nil {
							return 0, err
						}
						prevDC[ci] = coefs[0]
					}
				}
			}
			continue
		}
		by, bx := mcu/sbw, mcu%sbw
		coefs := &c0.coefs[by*c0.blocksX+bx]
		if err := decodeBlockInto(br, d.huff[0<<2|c0.td], d.huff[1<<2|c0.ta], prevDC[0], coefs); err != nil {
			return 0, err
		}
		prevDC[0] = coefs[0]
	}
	return d.scanEnd(), nil
}

// reconstructSequential runs the batched inverse stage over every
// component on the calling goroutine, reusing the decoder's retained
// plane.
func (d *decoder) reconstructSequential() {
	for _, c := range d.frame.comps {
		d.plane = growFloats(d.plane, c.blocksX*64)
		for by := 0; by < c.blocksY; by++ {
			reconstructBlockRow(c, by, d.plane)
		}
	}
}

// decodeBlockInto entropy-decodes one block into natural-order
// coefficients, writing straight into the caller's grid slot (which may
// hold stale pooled data — it is zeroed first). On error the slot's
// contents are unspecified.
func decodeBlockInto(br *bitio.Reader, dcTab, acTab *decTable, prevDC int32, coefs *[64]int32) error {
	*coefs = [64]int32{}
	s, err := dcTab.decode(br)
	if err != nil {
		return err
	}
	diff, err := receiveExtend(br, int(s))
	if err != nil {
		return err
	}
	coefs[0] = prevDC + diff
	for z := 1; z < 64; {
		sym, err := acTab.decode(br)
		if err != nil {
			return err
		}
		run, size := int(sym>>4), int(sym&0x0F)
		switch {
		case size == 0 && run == 0: // EOB
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
			v, err := receiveExtend(br, size)
			if err != nil {
				return err
			}
			coefs[qtable.ZigZagOrder[z]] = v
			z++
		}
	}
	return nil
}

// finishFrame runs once per image, after the last scan: it zero-fills
// the grids of components no scan touched, binds the dequantization
// tables in effect at the end of the stream, reconstructs pixels with
// the batched inverse stage — sharded with the entropy decoder's
// fan-out when the scan decoded sharded — and publishes the result.
func (d *decoder) finishFrame() error {
	f := &d.frame
	for _, c := range f.comps {
		if !c.primed {
			// No scan carried this component; it reconstructs as a flat
			// mid-gray plane rather than pooled leftovers.
			zeroCoefs(c.coefs)
			c.primed = true
		}
		tbl, ok := d.quant[c.tq]
		if !ok {
			return fmt.Errorf("jpegcodec: missing quantization table %d", c.tq)
		}
		c.table = tbl
		// Fold the inverse transform's prescale into the dequantize
		// multipliers once per frame; reconstructBlockRow then runs one
		// multiply per coefficient with no prescale pass.
		tbl.InvScaledInto(&c.inv)
	}
	if d.reconWorkers > 1 {
		d.reconstructSharded(d.reconWorkers)
	} else {
		d.reconstructSequential()
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
	if len(f.comps) == 3 {
		out.Sampling = classifySampling(f.comps)
	}
	for i, c := range f.comps {
		out.planes[i].w = c.w
		out.planes[i].h = c.hgt
		out.planes[i].hs = c.h
		out.planes[i].vs = c.v
		out.planes[i].tq = c.tq
		out.planes[i].pix = c.pix
		out.coefs[i] = c.coefs
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
