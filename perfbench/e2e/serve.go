package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image/jpeg"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	deepnjpeg "repro"

	"repro/perfbench/stats"
)

// The serve-mix request kinds.
const (
	kEncode = iota
	kDecode
	kRequant
	kEncodeLarge
	kDecodeLarge
	nKinds
)

var kindNames = [nKinds]string{"encode", "decode", "requantize", "encode-large", "decode-large"}

// serveBudget is one request slice.
const serveBudget = 400 * time.Millisecond

// mixLen is the length of each connection's precomputed request
// sequence, a whole number of mixBlock-request blocks; a run that
// outlasts it wraps around.
const (
	mixBlock = 20
	mixLen   = 205 * mixBlock
)

type request struct {
	path string
	body []byte
	src  *deepnjpeg.Image // the frame the request carries or decodes to
	px   int64
}

// serveState is the serve-mix program: the server as `deepn-jpeg serve`
// boots it by default, and a keep-alive client for two connections.
type serveState struct {
	srv    *deepnjpeg.Server
	base   string
	client *http.Client
	stop   func()

	reqs [nKinds][]request
	memo [nKinds][][]byte
	mix  [Workers][]ref
}

type ref struct{ kind, idx int }

// serveSetup boots the server: calibrate, NewServer, a loopback
// listener, and the first /healthz answered 200.
func serveSetup(ctx context.Context, b *Bench) (func(), error) {
	if _, err := calibrate(ctx, b); err != nil {
		return nil, err
	}
	srv, base, client, stop, err := StartServer(b.Codec)
	if err != nil {
		return nil, err
	}
	b.serve = &serveState{srv: srv, base: base, client: client, stop: stop}
	return stop, nil
}

// StartServer boots the server as `deepn-jpeg serve` does by default —
// NewServer with zero options on a loopback listener — and returns
// once /healthz has answered 200. stop shuts it down and waits for
// Serve to return.
func StartServer(c *deepnjpeg.Codec) (srv *deepnjpeg.Server, base string, client *http.Client, stop func(), err error) {
	srv, err = deepnjpeg.NewServer(c, deepnjpeg.ServerOptions{})
	if err != nil {
		return nil, "", nil, nil, fmt.Errorf("NewServer: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, nil, fmt.Errorf("listening on loopback: %w", err)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: Workers}
	client = &http.Client{Transport: tr}
	base = "http://" + ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
		tr.CloseIdleConnections()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, base, client, stop, nil
			}
		}
		if time.Now().After(deadline) {
			stop()
			return nil, "", nil, nil, fmt.Errorf("no /healthz 200 within 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// ServerCounters reads the request counters of the server's /metrics.
func ServerCounters(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, k := range []string{"requests", "failures", "rejected"} {
		v, ok := doc[k].(float64)
		if !ok {
			return nil, fmt.Errorf("/metrics has no numeric %q", k)
		}
		out[k] = v
	}
	return out, nil
}

// checkServe builds the request bodies, sends every distinct request
// once, validates and memoizes each reply, and lays out each
// connection's seeded request mix.
func checkServe(b *Bench) error {
	st := b.serve
	in := b.In
	for i, f := range in.Frames {
		px := int64(f.W * f.H)
		stream, err := b.Codec.Encode(f)
		if err != nil {
			return fmt.Errorf("encoding decode body %d: %w", i, err)
		}
		b.Streams = append(b.Streams, stream)
		st.reqs[kEncode] = append(st.reqs[kEncode], request{"/v1/encode", PPM(f), f, px})
		st.reqs[kDecode] = append(st.reqs[kDecode], request{"/v1/decode?format=ppm", stream, f, px})
		st.reqs[kRequant] = append(st.reqs[kRequant], request{"/v1/requantize", in.Archive[i], f, px})
	}
	for i, f := range in.Large {
		px := int64(f.W * f.H)
		stream, err := b.Codec.EncodeWith(f, deepnjpeg.EncodeOptions{RestartInterval: LargeRestart})
		if err != nil {
			return fmt.Errorf("encoding large decode body %d: %w", i, err)
		}
		st.reqs[kEncodeLarge] = append(st.reqs[kEncodeLarge], request{fmt.Sprintf("/v1/encode?restart=%d", LargeRestart), PPM(f), f, px})
		st.reqs[kDecodeLarge] = append(st.reqs[kDecodeLarge], request{"/v1/decode?format=ppm", stream, f, px})
	}

	var ps stats.PSNR
	var bits, px int64
	for k := range st.reqs {
		st.memo[k] = make([][]byte, len(st.reqs[k]))
		for i, r := range st.reqs[k] {
			// As in the batch workloads, only the 256² frames count
			// toward bits_per_px and psnr_db.
			large := k == kEncodeLarge || k == kDecodeLarge
			pool := &ps
			if large {
				pool = new(stats.PSNR)
			}
			reply, err := st.do(r)
			if err == nil {
				err = b.validReply(k, i, r, reply, pool)
			}
			b.verify(err)
			if err == nil {
				st.memo[k][i] = reply
			}
			if large {
				continue
			}
			if k == kDecode {
				bits += 8 * int64(len(r.body))
			} else {
				bits += 8 * int64(len(reply))
			}
			px += r.px
		}
	}
	b.BitsPerPx = float64(bits) / float64(px)
	b.PSNR = ps.DB()

	// Every block of twenty requests holds 9 encodes, 6 decodes and 4
	// requantizes of 256² frames and one 1024² restart-interval frame
	// (encode and decode in turn), in seeded order with seeded frames.
	// Fixing the counts per block keeps the mix, and so the percentiles,
	// from drifting with the draw.
	block := make([]int, 0, mixBlock)
	for k, n := range [...]int{kEncode: 9, kDecode: 6, kRequant: 4, kEncodeLarge: 1} {
		for ; n > 0; n-- {
			block = append(block, k)
		}
	}
	for g := range st.mix {
		rng := rand.New(rand.NewSource(in.Seed*1009 + int64(g)))
		seq := make([]ref, 0, mixLen)
		for b := 0; len(seq) < mixLen; b++ {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			for _, k := range block {
				if k == kEncodeLarge {
					k += (b + g) % 2 // alternate encode-large and decode-large
				}
				seq = append(seq, ref{k, rng.Intn(len(st.reqs[k]))})
			}
		}
		st.mix[g] = seq
	}
	return nil
}

// validReply checks one distinct reply the first time it is seen.
func (b *Bench) validReply(kind, i int, r request, reply []byte, ps *stats.PSNR) error {
	switch kind {
	case kEncode, kEncodeLarge:
		return stdDecodes(reply, r.src, ps)
	case kRequant:
		if err := requantized(reply, b.In.APP1[i]); err != nil {
			return err
		}
		return stdDecodes(reply, r.src, ps)
	default:
		w, h, pix, err := parsePPM(reply)
		if err != nil {
			return err
		}
		return decodedMatches(w, h, pix, r.src, ps)
	}
}

// do sends one request and reads the whole reply; a non-2xx status is
// an error.
func (st *serveState) do(r request) ([]byte, error) {
	resp, err := st.client.Post(st.base+r.path, "application/octet-stream", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s reply: %w", r.path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s answered %d: %.200s", r.path, resp.StatusCode, reply)
	}
	return reply, nil
}

func servePhases(b *Bench) []*Phase {
	st := b.serve
	var bufs [Workers]bytes.Buffer
	prog := func(g, n int) (int64, func()) {
		rf := st.mix[g][n%mixLen]
		r := st.reqs[rf.kind][rf.idx]
		var t0 time.Time
		if b.OnOp != nil {
			t0 = time.Now()
		}
		reply, err := st.do(r)
		if b.OnOp != nil {
			b.OnOp(kindNames[rf.kind], n, t0, time.Since(t0))
		}
		return r.px, func() {
			switch {
			case err != nil:
				b.verify(fmt.Errorf("%s %d: %w", kindNames[rf.kind], rf.idx, err))
			case st.memo[rf.kind][rf.idx] == nil:
				b.verify(fmt.Errorf("%s %d failed its output check", kindNames[rf.kind], rf.idx))
			case !bytes.Equal(reply, st.memo[rf.kind][rf.idx]):
				b.verify(fmt.Errorf("%s %d: reply differs from the checked one", kindNames[rf.kind], rf.idx))
			default:
				b.verify(nil)
			}
		}
	}
	// The yardstick runs the same mix in-process with stdlib image/jpeg:
	// encode, decode, and decode+re-encode for requantize.
	yard := func(g, n int) (int64, func()) {
		rf := st.mix[g][n%mixLen]
		r := st.reqs[rf.kind][rf.idx]
		bufs[g].Reset()
		switch rf.kind {
		case kEncode:
			_ = jpeg.Encode(&bufs[g], b.rgba[rf.idx], nil)
		case kEncodeLarge:
			_ = jpeg.Encode(&bufs[g], b.rgba[len(b.In.Frames)+rf.idx], nil)
		case kDecode, kDecodeLarge:
			_, _ = jpeg.Decode(bytes.NewReader(r.body))
		case kRequant:
			if img, err := jpeg.Decode(bytes.NewReader(r.body)); err == nil {
				_ = jpeg.Encode(&bufs[g], img, nil)
			}
		}
		return r.px, nil
	}
	// A 400 ms slice holds a dozen requests per connection, so slices
	// differ in how many large frames they carry: the ratio is pooled.
	return []*Phase{{
		Name: "request slices", Prog: Loop(prog), Yard: Loop(yard),
		Budget: serveBudget, Pooled: true, Latency: true, MinLatencyN: minLatency,
	}}
}

// PPM is the binary PPM body of a frame.
func PPM(f *deepnjpeg.Image) []byte {
	hdr := fmt.Sprintf("P6\n%d %d\n255\n", f.W, f.H)
	return append([]byte(hdr), f.Pix...)
}

// parsePPM reads a binary 8-bit PPM.
func parsePPM(b []byte) (w, h int, pix []byte, err error) {
	br := bufio.NewReader(bytes.NewReader(b))
	var magic string
	var maxv int
	if _, err := fmt.Fscan(br, &magic, &w, &h, &maxv); err != nil {
		return 0, 0, nil, fmt.Errorf("PPM header: %w", err)
	}
	if magic != "P6" || maxv != 255 {
		return 0, 0, nil, fmt.Errorf("PPM header %q/%d, want P6/255", magic, maxv)
	}
	if _, err := br.ReadByte(); err != nil {
		return 0, 0, nil, fmt.Errorf("PPM header: %w", err)
	}
	pix, err = io.ReadAll(br)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(pix) != 3*w*h {
		return 0, 0, nil, errors.New("PPM pixel data truncated")
	}
	return w, h, pix, nil
}
