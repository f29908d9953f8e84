package server

// httptest integration suite: every endpoint must round-trip against the
// jpegcodec goldens (server streams byte-identical to direct codec
// calls — the server adds transport, never transcoding), and every error
// path must answer the structured JSON envelope with the right status.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/qtable"
)

// testFramework calibrates one shared framework for the whole package
// (calibration is the slow part; the framework is read-only after).
var testFramework = sync.OnceValue(func() *core.Framework {
	cfg := dataset.Quick()
	cfg.TrainPerClass, cfg.TestPerClass = 8, 1
	cfg.Color = true
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		panic(err)
	}
	fw, err := core.Calibrate(train, core.CalibrateOptions{Chroma: true})
	if err != nil {
		panic(err)
	}
	return fw
})

// testImages returns a few deterministic color images.
func testImages(tb testing.TB, n int) []*imgutil.RGB {
	tb.Helper()
	cfg := dataset.Quick()
	cfg.TrainPerClass, cfg.TestPerClass = (n+7)/8+1, 1
	cfg.Color = true
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(train.Images) < n {
		tb.Fatalf("dataset yielded %d images, need %d", len(train.Images), n)
	}
	return train.Images[:n]
}

func newTestServer(tb testing.TB, opts Options) (*Server, *httptest.Server) {
	tb.Helper()
	if opts.Framework == nil {
		opts.Framework = testFramework()
	}
	s, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

func ppmBody(tb testing.TB, img *imgutil.RGB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := imgutil.WritePPM(&buf, img); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func post(tb testing.TB, url, contentType string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, data
}

// wantJSONError asserts the structured error envelope.
func wantJSONError(tb testing.TB, resp *http.Response, body []byte, status int, code string) {
	tb.Helper()
	if resp.StatusCode != status {
		tb.Fatalf("status %d, want %d (body %q)", resp.StatusCode, status, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		tb.Fatalf("error Content-Type %q, want application/json", ct)
	}
	var env struct {
		Status int `json:"status"`
		Error  struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		tb.Fatalf("error body is not JSON: %v (%q)", err, body)
	}
	if env.Status != status || env.Error.Code != code || env.Error.Message == "" {
		tb.Fatalf("error envelope {status:%d code:%q msg:%q}, want {%d %q non-empty}",
			env.Status, env.Error.Code, env.Error.Message, status, code)
	}
}

func TestEncodeEndpointMatchesCodec(t *testing.T) {
	fw := testFramework()
	_, ts := newTestServer(t, Options{})
	img := testImages(t, 1)[0]
	body := ppmBody(t, img)

	t.Run("calibrated-default", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/encode", "image/x-portable-pixmap", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/jpeg" {
			t.Fatalf("Content-Type %q", ct)
		}
		want, err := fw.Scheme().EncodeRGB(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("server stream (%d bytes) differs from Codec.Encode (%d bytes)", len(got), len(want))
		}
	})

	t.Run("quality-85", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/encode?quality=85", "", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		var buf bytes.Buffer
		opts := jpegcodec.Options{
			LumaTable:   qtable.MustScale(qtable.StdLuminance, 85),
			ChromaTable: qtable.MustScale(qtable.StdChrominance, 85),
		}
		if err := jpegcodec.EncodeRGB(&buf, img, &opts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatal("server qf-85 stream differs from direct jpegcodec encode")
		}
	})

	// The server reads no ?transform= parameter: like any unknown
	// parameter it must leave the default stream unchanged.
	t.Run("aan-identical", func(t *testing.T) {
		_, def := post(t, ts.URL+"/v1/encode", "", body, nil)
		for _, v := range []string{"naive", "aan"} {
			resp, got := post(t, ts.URL+"/v1/encode?transform="+v, "", body, nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, def) {
				t.Fatalf("?transform=%s: status %d, stream equal to default: %v", v, resp.StatusCode, bytes.Equal(got, def))
			}
		}
	})

	t.Run("options-444-optimize", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/encode?subsampling=444&optimize=true", "", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		opts := fw.Scheme().Opts
		opts.Subsampling = jpegcodec.Sub444
		opts.OptimizeHuffman = true
		var buf bytes.Buffer
		if err := jpegcodec.EncodeRGB(&buf, img, &opts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatal("server 444/optimize stream differs from direct encode")
		}
	})

	t.Run("restart-4", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/encode?restart=4", "", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		opts := fw.Scheme().Opts
		opts.RestartInterval = 4
		var buf bytes.Buffer
		if err := jpegcodec.EncodeRGB(&buf, img, &opts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatal("server restart=4 stream differs from direct encode")
		}
		var dec jpegcodec.Decoded
		if err := jpegcodec.DecodeInto(bytes.NewReader(got), &dec, nil); err != nil {
			t.Fatal(err)
		}
		if dec.RestartInterval != 4 {
			t.Fatalf("served stream carries restart interval %d, want 4", dec.RestartInterval)
		}
	})

	t.Run("png-input", func(t *testing.T) {
		var pngBuf bytes.Buffer
		if err := writeImage(&pngBuf, img, outputFormat{"png", "image/png"}); err != nil {
			t.Fatal(err)
		}
		resp, got := post(t, ts.URL+"/v1/encode", "image/png", pngBuf.Bytes(), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		want, err := fw.Scheme().EncodeRGB(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("PNG-fed encode differs from PPM-fed encode of the same pixels")
		}
	})
}

func TestDecodeEndpointMatchesCodec(t *testing.T) {
	fw := testFramework()
	_, ts := newTestServer(t, Options{})
	img := testImages(t, 1)[0]
	stream, err := fw.Scheme().EncodeRGB(img)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := jpegcodec.Decode(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	golden := dec.RGB()

	t.Run("ppm", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/decode?format=ppm", "image/jpeg", stream, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		back, err := imgutil.ReadPPM(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if back.W != golden.W || back.H != golden.H || !bytes.Equal(back.Pix, golden.Pix) {
			t.Fatal("served pixels differ from jpegcodec.Decode golden")
		}
		if w := resp.Header.Get("X-Image-Width"); w != strconv.Itoa(golden.W) {
			t.Fatalf("X-Image-Width %q", w)
		}
	})

	t.Run("png", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/decode", "image/jpeg", stream, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
			t.Fatalf("Content-Type %q", ct)
		}
		var buf bytes.Buffer
		if err := writeImage(&buf, golden, outputFormat{"png", "image/png"}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatal("served PNG differs from golden encode")
		}
	})
}

func TestRequantizeEndpointMatchesCodec(t *testing.T) {
	fw := testFramework()
	_, ts := newTestServer(t, Options{})
	img := testImages(t, 1)[0]
	var srcBuf bytes.Buffer
	srcOpts := jpegcodec.Options{
		LumaTable:   qtable.MustScale(qtable.StdLuminance, 95),
		ChromaTable: qtable.MustScale(qtable.StdChrominance, 95),
	}
	if err := jpegcodec.EncodeRGB(&srcBuf, img, &srcOpts); err != nil {
		t.Fatal(err)
	}
	src := srcBuf.Bytes()

	golden := func(luma, chroma qtable.Table) []byte {
		dec, err := jpegcodec.Decode(bytes.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := jpegcodec.Requantize(&buf, dec, luma, chroma,
			&jpegcodec.Options{OptimizeHuffman: true}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("calibrated-default", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/requantize", "image/jpeg", src, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if want := golden(fw.LumaTable, fw.ChromaTable); !bytes.Equal(got, want) {
			t.Fatal("server requantize differs from direct jpegcodec.Requantize")
		}
	})

	t.Run("quality-60", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/requantize?quality=60", "image/jpeg", src, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		want := golden(qtable.MustScale(qtable.StdLuminance, 60), qtable.MustScale(qtable.StdChrominance, 60))
		if !bytes.Equal(got, want) {
			t.Fatal("server qf-60 requantize differs from direct jpegcodec.Requantize")
		}
		if len(got) >= len(src) {
			t.Fatalf("qf-60 requantize grew the stream: %d → %d bytes", len(src), len(got))
		}
	})

	t.Run("restart-semantics", func(t *testing.T) {
		// A restart-carrying source keeps its interval through default
		// requantization; ?restart=-1 strips it, ?restart=n replaces it.
		var rBuf bytes.Buffer
		rOpts := srcOpts
		rOpts.RestartInterval = 2
		if err := jpegcodec.EncodeRGB(&rBuf, img, &rOpts); err != nil {
			t.Fatal(err)
		}
		rSrc := rBuf.Bytes()
		interval := func(stream []byte) int {
			var dec jpegcodec.Decoded
			if err := jpegcodec.DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
				t.Fatal(err)
			}
			return dec.RestartInterval
		}
		for _, tc := range []struct {
			query string
			want  int
		}{
			{"", 2},
			{"?restart=5", 5},
			{"?restart=-1", 0},
		} {
			resp, got := post(t, ts.URL+"/v1/requantize"+tc.query, "image/jpeg", rSrc, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%q: status %d: %s", tc.query, resp.StatusCode, got)
			}
			if ri := interval(got); ri != tc.want {
				t.Fatalf("%q: output restart interval %d, want %d", tc.query, ri, tc.want)
			}
		}
	})
}

// buildMultipart assembles a batch request body.
func buildMultipart(tb testing.TB, items [][]byte) ([]byte, string) {
	tb.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, item := range items {
		pw, err := mw.CreateFormFile("items", fmt.Sprintf("item-%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := pw.Write(item); err != nil {
			tb.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

// readMultipart splits a multipart/mixed response into ordered parts.
type batchPart struct {
	index   int
	isError bool
	data    []byte
	hdr     textproto.MIMEHeader
}

func readMultipart(tb testing.TB, resp *http.Response, body []byte) []batchPart {
	tb.Helper()
	_, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil {
		tb.Fatalf("response Content-Type: %v", err)
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	var parts []batchPart
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		data, err := io.ReadAll(p)
		if err != nil {
			tb.Fatal(err)
		}
		idx, err := strconv.Atoi(p.Header.Get("X-Batch-Index"))
		if err != nil {
			tb.Fatalf("part lacks X-Batch-Index: %v", err)
		}
		parts = append(parts, batchPart{
			index:   idx,
			isError: p.Header.Get("X-Batch-Error") == "true",
			data:    data,
			hdr:     p.Header,
		})
	}
	return parts
}

func TestBatchEncodeOrderAndGoldens(t *testing.T) {
	fw := testFramework()
	_, ts := newTestServer(t, Options{BatchWorkers: 4})
	imgs := testImages(t, 6)
	items := make([][]byte, len(imgs))
	goldens := make([][]byte, len(imgs))
	for i, img := range imgs {
		items[i] = ppmBody(t, img)
		want, err := fw.Scheme().EncodeRGB(img)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = want
	}
	body, ct := buildMultipart(t, items)
	resp, respBody := post(t, ts.URL+"/v1/batch?op=encode", ct, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, respBody)
	}
	if got := resp.Header.Get("X-Batch-Items"); got != strconv.Itoa(len(items)) {
		t.Fatalf("X-Batch-Items %q", got)
	}
	parts := readMultipart(t, resp, respBody)
	if len(parts) != len(items) {
		t.Fatalf("%d response parts for %d items", len(parts), len(items))
	}
	for i, p := range parts {
		if p.index != i {
			t.Fatalf("part %d carries index %d: order not preserved", i, p.index)
		}
		if p.isError {
			t.Fatalf("item %d failed: %s", i, p.data)
		}
		if !bytes.Equal(p.data, goldens[i]) {
			t.Fatalf("item %d differs from its sequential golden encode", i)
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	_, ts := newTestServer(t, Options{BatchWorkers: 2})
	imgs := testImages(t, 3)
	items := [][]byte{
		ppmBody(t, imgs[0]),
		[]byte("this is not an image"),
		ppmBody(t, imgs[2]),
	}
	body, ct := buildMultipart(t, items)
	resp, respBody := post(t, ts.URL+"/v1/batch", ct, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, respBody)
	}
	if got := resp.Header.Get("X-Batch-Failed"); got != "1" {
		t.Fatalf("X-Batch-Failed %q, want 1", got)
	}
	parts := readMultipart(t, resp, respBody)
	if len(parts) != 3 {
		t.Fatalf("%d parts", len(parts))
	}
	for i, p := range parts {
		if p.index != i {
			t.Fatalf("part order broken at %d", i)
		}
	}
	if parts[0].isError || parts[2].isError || !parts[1].isError {
		t.Fatalf("failure flags wrong: %v %v %v", parts[0].isError, parts[1].isError, parts[2].isError)
	}
	var env struct {
		Index int `json:"index"`
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(parts[1].data, &env); err != nil {
		t.Fatalf("error part is not JSON: %v", err)
	}
	if env.Index != 1 || env.Error.Code != "item_failed" {
		t.Fatalf("error part %+v", env)
	}
}

func TestBatchDecodeAndRequantizeOps(t *testing.T) {
	fw := testFramework()
	_, ts := newTestServer(t, Options{})
	imgs := testImages(t, 3)
	streams := make([][]byte, len(imgs))
	for i, img := range imgs {
		data, err := fw.Scheme().EncodeRGB(img)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = data
	}

	t.Run("decode", func(t *testing.T) {
		body, ct := buildMultipart(t, streams)
		resp, respBody := post(t, ts.URL+"/v1/batch?op=decode&format=ppm", ct, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, respBody)
		}
		parts := readMultipart(t, resp, respBody)
		for i, p := range parts {
			if p.isError {
				t.Fatalf("item %d: %s", i, p.data)
			}
			dec, err := jpegcodec.Decode(bytes.NewReader(streams[i]))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := imgutil.WritePPM(&buf, dec.RGB()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p.data, buf.Bytes()) {
				t.Fatalf("decoded item %d differs from golden", i)
			}
		}
	})

	t.Run("requantize", func(t *testing.T) {
		body, ct := buildMultipart(t, streams)
		resp, respBody := post(t, ts.URL+"/v1/batch?op=requantize&quality=50", ct, body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, respBody)
		}
		parts := readMultipart(t, resp, respBody)
		for i, p := range parts {
			if p.isError {
				t.Fatalf("item %d: %s", i, p.data)
			}
			dec, err := jpegcodec.Decode(bytes.NewReader(streams[i]))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := jpegcodec.Requantize(&buf, dec,
				qtable.MustScale(qtable.StdLuminance, 50),
				qtable.MustScale(qtable.StdChrominance, 50),
				&jpegcodec.Options{OptimizeHuffman: true}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p.data, buf.Bytes()) {
				t.Fatalf("requantized item %d differs from golden", i)
			}
		}
	})
}

// TestSingleRouteMatchesBatchPart pins the one operation path: a
// single-image route and the part of a one-item /v1/batch request with
// the same verb and options answer the same bytes, Content-Type and
// per-item headers, and a failing item the same error message.
func TestSingleRouteMatchesBatchPart(t *testing.T) {
	fw := testFramework()
	_, ts := newTestServer(t, Options{})
	img := testImages(t, 1)[0]
	stream, err := fw.Scheme().EncodeRGB(img)
	if err != nil {
		t.Fatal(err)
	}
	// The requantize source carries a restart interval and a comment, so
	// restart=-1 and strip_metadata=true both change the output.
	var archive bytes.Buffer
	aopts := core.SchemeJPEG(95).Opts
	aopts.RestartInterval = 2
	aopts.Metadata = []jpegcodec.MetaSegment{{Marker: 0xFE, Payload: []byte("archive copy")}}
	if err := jpegcodec.EncodeRGB(&archive, img, &aopts); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, verb, query string
		item              []byte
	}{
		{"encode-default", "encode", "", ppmBody(t, img)},
		{"encode-q85-444-optimize", "encode", "quality=85&subsampling=444&optimize=true", ppmBody(t, img)},
		{"encode-restart-4", "encode", "restart=4", ppmBody(t, img)},
		{"encode-undecodable", "encode", "", []byte("GIF89a nonsense")},
		{"decode-ppm", "decode", "format=ppm", stream},
		{"decode-png", "decode", "format=png", stream},
		{"decode-pgm", "decode", "format=pgm", stream},
		{"decode-undecodable", "decode", "format=ppm", stream[:len(stream)/3]},
		{"requantize-default", "requantize", "", archive.Bytes()},
		{"requantize-q50-strip", "requantize", "quality=50&restart=-1&strip_metadata=true", archive.Bytes()},
		{"requantize-undecodable", "requantize", "", []byte("not a JPEG stream")},
	}
	message := func(t *testing.T, body []byte) string {
		t.Helper()
		var env struct {
			Error struct {
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Message == "" {
			t.Fatalf("no error message in %q: %v", body, err)
		}
		return env.Error.Message
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, got := post(t, ts.URL+"/v1/"+tc.verb+"?"+tc.query, "", tc.item, nil)
			body, ct := buildMultipart(t, [][]byte{tc.item})
			bresp, bbody := post(t, ts.URL+"/v1/batch?op="+tc.verb+"&"+tc.query, ct, body, nil)
			if bresp.StatusCode != http.StatusOK {
				t.Fatalf("batch status %d: %s", bresp.StatusCode, bbody)
			}
			parts := readMultipart(t, bresp, bbody)
			if len(parts) != 1 {
				t.Fatalf("%d batch parts for one item", len(parts))
			}
			part := parts[0]
			if failed := resp.StatusCode != http.StatusOK; failed != part.isError {
				t.Fatalf("single route status %d, batch part failed: %v (%s / %s)", resp.StatusCode, part.isError, got, part.data)
			}
			if part.isError {
				if sm, bm := message(t, got), message(t, part.data); sm != bm {
					t.Fatalf("error messages differ: single %q, batch %q", sm, bm)
				}
			} else if !bytes.Equal(got, part.data) {
				t.Fatalf("single route body (%d bytes) differs from batch part (%d bytes)", len(got), len(part.data))
			}
			for _, h := range []string{"Content-Type", "X-Image-Width", "X-Image-Height", "X-Source-Bytes"} {
				if sv, bv := resp.Header.Get(h), part.hdr.Get(h); sv != bv {
					t.Fatalf("%s: single route %q, batch part %q", h, sv, bv)
				}
			}
		})
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 4 << 10, MaxPixels: 1 << 16})
	img := testImages(t, 1)[0]
	small := ppmBody(t, img)
	fw := testFramework()
	stream, err := fw.Scheme().EncodeRGB(img)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad-quality", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/encode?quality=101", "", small, nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "bad_quality")
	})
	t.Run("bad-subsampling", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/encode?subsampling=421", "", small, nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "bad_subsampling")
	})
	t.Run("bad-restart", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/encode?restart=65536", "", small, nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "bad_restart")
	})
	t.Run("bad-restart-negative-encode", func(t *testing.T) {
		// -1 means "strip" only on requantize; encode rejects it.
		resp, body := post(t, ts.URL+"/v1/encode?restart=-1", "", small, nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "bad_restart")
	})
	t.Run("bad-format", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/decode?format=webp", "", stream, nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "bad_format")
	})
	t.Run("truncated-jpeg", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/decode", "", stream[:len(stream)/3], nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "bad_input")
	})
	t.Run("not-an-image", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/encode", "", []byte("GIF89a nonsense"), nil)
		wantJSONError(t, resp, body, http.StatusUnsupportedMediaType, "unsupported_image")
	})
	t.Run("empty-body", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/encode", "", nil, nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "empty_body")
	})
	t.Run("oversized-body", func(t *testing.T) {
		big := make([]byte, 8<<10) // over the 4 KiB cap
		copy(big, small)
		resp, body := post(t, ts.URL+"/v1/encode", "", big, nil)
		wantJSONError(t, resp, body, http.StatusRequestEntityTooLarge, "body_too_large")
	})
	t.Run("allocation-bomb-ppm", func(t *testing.T) {
		resp, body := post(t, ts.URL+"/v1/encode", "",
			[]byte("P6\n60000 60000\n255\nxx"), nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "image_too_large")
	})
	t.Run("oversized-jpeg-dims", func(t *testing.T) {
		// 32×32 stream against a 16-pixel limit exercises the decoder's
		// MaxPixels guard through the server.
		_, tiny := newTestServer(t, Options{MaxPixels: 16})
		resp, body := post(t, tiny.URL+"/v1/decode", "", stream, nil)
		wantJSONError(t, resp, body, http.StatusBadRequest, "bad_input")
		if !strings.Contains(string(body), "pixel") {
			t.Fatalf("error should mention the pixel limit: %s", body)
		}
	})
	t.Run("method-not-allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/encode")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		wantJSONError(t, resp, body, http.StatusMethodNotAllowed, "method_not_allowed")
	})
	t.Run("batch-bad-op", func(t *testing.T) {
		body, ct := buildMultipart(t, [][]byte{small})
		resp, respBody := post(t, ts.URL+"/v1/batch?op=transmogrify", ct, body, nil)
		wantJSONError(t, resp, respBody, http.StatusBadRequest, "bad_op")
	})
	t.Run("batch-not-multipart", func(t *testing.T) {
		resp, respBody := post(t, ts.URL+"/v1/batch", "application/json", []byte("{}"), nil)
		wantJSONError(t, resp, respBody, http.StatusBadRequest, "bad_content_type")
	})
	t.Run("batch-empty", func(t *testing.T) {
		body, ct := buildMultipart(t, nil)
		resp, respBody := post(t, ts.URL+"/v1/batch", ct, body, nil)
		wantJSONError(t, resp, respBody, http.StatusBadRequest, "empty_batch")
	})
	t.Run("batch-too-many-items", func(t *testing.T) {
		_, capped := newTestServer(t, Options{MaxBatchItems: 2})
		body, ct := buildMultipart(t, [][]byte{small, small, small})
		resp, respBody := post(t, capped.URL+"/v1/batch", ct, body, nil)
		wantJSONError(t, resp, respBody, http.StatusRequestEntityTooLarge, "batch_too_large")
	})
	t.Run("batch-oversized-body", func(t *testing.T) {
		// The body cap must classify as 413 on the multipart route too,
		// wherever inside the stream the limit happens to land.
		parts := make([][]byte, 8)
		for i := range parts {
			parts[i] = bytes.Repeat([]byte{byte(i)}, 1<<10)
		}
		body, ct := buildMultipart(t, parts) // ~8 KiB against the 4 KiB cap
		resp, respBody := post(t, ts.URL+"/v1/batch", ct, body, nil)
		wantJSONError(t, resp, respBody, http.StatusRequestEntityTooLarge, "body_too_large")
	})
}

// TestUnsupportedFormatMatrix pins the 415 unsupported_format contract:
// syntactically well-formed JPEG streams whose coding process the decoder
// does not implement (arithmetic, lossless, hierarchical) must come back
// as 415 with the marker named, on both the decode and requantize routes —
// distinct from the 400 bad_input used for corrupt streams.
func TestUnsupportedFormatMatrix(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	sofStream := func(marker byte) []byte {
		return []byte{
			0xFF, 0xD8, // SOI
			0xFF, marker, 0x00, 0x0B, 8, 0, 16, 0, 16, 1, 1, 0x11, 0, // SOFn 16x16 gray
			0xFF, 0xDA, 0x00, 0x08, 1, 1, 0x00, 0, 63, 0, // SOS
			0x12, 0x34, // entropy bytes
			0xFF, 0xD9, // EOI
		}
	}
	cases := []struct {
		name   string
		marker byte
		want   string // marker name the message must carry
	}{
		{"arithmetic-sequential", 0xC9, "SOF9"},
		{"arithmetic-progressive", 0xCA, "SOF10"},
		{"lossless", 0xC3, "SOF3"},
		{"hierarchical-differential", 0xC5, "SOF5"},
	}
	for _, route := range []string{"/v1/decode", "/v1/requantize"} {
		for _, tc := range cases {
			t.Run(strings.TrimPrefix(route, "/v1/")+"-"+tc.name, func(t *testing.T) {
				resp, body := post(t, ts.URL+route, "", sofStream(tc.marker), nil)
				wantJSONError(t, resp, body, http.StatusUnsupportedMediaType, "unsupported_format")
				if !strings.Contains(string(body), tc.want) {
					t.Fatalf("message should name %s: %s", tc.want, body)
				}
			})
		}
	}
}

// TestDecodeDefaultsToServerTransform pins that the server decodes with
// the library's one transform: served pixels equal a library decode
// byte for byte, whether or not a client still passes the retired
// ?transform= parameter.
func TestDecodeDefaultsToServerTransform(t *testing.T) {
	fw := testFramework()
	_, ts := newTestServer(t, Options{Framework: fw})
	img := testImages(t, 1)[0]
	stream, err := fw.Scheme().EncodeRGB(img)
	if err != nil {
		t.Fatal(err)
	}
	var dec jpegcodec.Decoded
	if err := jpegcodec.DecodeInto(bytes.NewReader(stream), &dec, nil); err != nil {
		t.Fatal(err)
	}
	var golden bytes.Buffer
	if err := imgutil.WritePPM(&golden, dec.RGB()); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"", "&transform=naive", "&transform=aan"} {
		resp, got := post(t, ts.URL+"/v1/decode?format=ppm"+query, "image/jpeg", stream, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", query, resp.StatusCode, got)
		}
		if !bytes.Equal(got, golden.Bytes()) {
			t.Fatalf("%q: served pixels differ from the library decode", query)
		}
	}
}

func TestTenantAuth(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Tenants: map[string]TenantConfig{
			"sekrit": {Name: "edge-fleet", MaxInFlight: 4},
		},
	})
	img := testImages(t, 1)[0]
	body := ppmBody(t, img)

	t.Run("missing-key", func(t *testing.T) {
		resp, respBody := post(t, ts.URL+"/v1/encode", "", body, nil)
		wantJSONError(t, resp, respBody, http.StatusUnauthorized, "missing_api_key")
	})
	t.Run("unknown-key", func(t *testing.T) {
		resp, respBody := post(t, ts.URL+"/v1/encode", "", body,
			map[string]string{"X-API-Key": "wrong"})
		wantJSONError(t, resp, respBody, http.StatusUnauthorized, "unknown_api_key")
	})
	t.Run("header-key", func(t *testing.T) {
		resp, respBody := post(t, ts.URL+"/v1/encode", "", body,
			map[string]string{"X-API-Key": "sekrit"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, respBody)
		}
	})
	t.Run("bearer-key", func(t *testing.T) {
		resp, respBody := post(t, ts.URL+"/v1/encode", "", body,
			map[string]string{"Authorization": "Bearer sekrit"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, respBody)
		}
	})
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Tenants: map[string]TenantConfig{"k1": {Name: "alice"}},
	})
	img := testImages(t, 1)[0]
	body := ppmBody(t, img)
	auth := map[string]string{"X-API-Key": "k1"}
	for i := 0; i < 3; i++ {
		resp, respBody := post(t, ts.URL+"/v1/encode", "", body, auth)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up encode: %d %s", resp.StatusCode, respBody)
		}
	}
	// One rejected request for the failure counters.
	if resp, respBody := post(t, ts.URL+"/v1/encode?quality=0", "", body, auth); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad quality accepted: %d %s", resp.StatusCode, respBody)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var health struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal(hb, &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz %q: %v", hb, err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var metrics struct {
		Requests int64 `json:"requests"`
		Failures int64 `json:"failures"`
		BytesIn  int64 `json:"bytes_in"`
		BytesOut int64 `json:"bytes_out"`
		Tenants  map[string]struct {
			Requests int64 `json:"requests"`
			Failed   int64 `json:"failed"`
			BytesIn  int64 `json:"bytes_in"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(mb, &metrics); err != nil {
		t.Fatalf("metrics is not JSON: %v (%s)", err, mb)
	}
	if metrics.Requests != 4 || metrics.Failures != 1 {
		t.Fatalf("requests=%d failures=%d, want 4/1 (%s)", metrics.Requests, metrics.Failures, mb)
	}
	alice, ok := metrics.Tenants["alice"]
	if !ok {
		t.Fatalf("tenant accounting missing: %s", mb)
	}
	if alice.Requests != 4 || alice.Failed != 1 || alice.BytesIn != int64(3*len(body)) {
		t.Fatalf("tenant counters %+v (body %d bytes): %s", alice, len(body), mb)
	}
	if metrics.BytesIn != int64(3*len(body)) || metrics.BytesOut == 0 {
		t.Fatalf("byte accounting bytes_in=%d bytes_out=%d", metrics.BytesIn, metrics.BytesOut)
	}
}
