package server

// Single-image routes read their request body into a buffer from the
// server's pool and return it once the response is written. These tests
// hold a pooled read to what a fresh server answers: a buffer that held
// a larger body must not leak its bytes into a smaller one, a chunked
// body (no Content-Length) reads to its end, and the body cap and the
// empty-body check answer as before.

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
)

// postChunked posts body without a Content-Length, so the client sends
// it chunked.
func postChunked(tb testing.TB, url string, body []byte) (*http.Response, []byte) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodPost, url, io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		tb.Fatal(err)
	}
	req.ContentLength = -1
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

func TestPooledRequestBodies(t *testing.T) {
	const maxBody = 1 << 20
	rng := rand.New(rand.NewSource(31))
	largeImg := imgutil.NewRGB(320, 240)
	rng.Read(largeImg.Pix)
	large := ppmBody(t, largeImg)
	small := ppmBody(t, testImages(t, 1)[0])
	var jpg bytes.Buffer
	if err := jpegcodec.EncodeRGB(&jpg, largeImg, nil); err != nil {
		t.Fatal(err)
	}
	largeJPEG := jpg.Bytes()
	smallJPEG := func() []byte {
		var b bytes.Buffer
		if err := jpegcodec.EncodeRGB(&b, testImages(t, 1)[0], nil); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}()
	oversized := append(bytes.Clone(large), make([]byte, maxBody)...)

	// One server serves every request in order, so each reuses the
	// buffers its predecessors returned to the pool.
	_, ts := newTestServer(t, Options{MaxBodyBytes: maxBody})
	tests := []struct {
		name    string
		route   string
		body    []byte
		chunked bool
		status  int
		code    string // error code of a JSON error reply
	}{
		{name: "large ppm", route: "/v1/encode", body: large, status: http.StatusOK},
		{name: "small ppm after large", route: "/v1/encode", body: small, status: http.StatusOK},
		{name: "chunked large ppm", route: "/v1/encode", body: large, chunked: true, status: http.StatusOK},
		{name: "chunked small ppm", route: "/v1/encode", body: small, chunked: true, status: http.StatusOK},
		{name: "large jpeg", route: "/v1/decode", body: largeJPEG, status: http.StatusOK},
		{name: "small jpeg after large", route: "/v1/decode", body: smallJPEG, status: http.StatusOK},
		{name: "small requantize after large", route: "/v1/requantize?quality=50", body: smallJPEG, status: http.StatusOK},
		{name: "oversized", route: "/v1/encode", body: oversized, status: http.StatusRequestEntityTooLarge, code: "body_too_large"},
		{name: "chunked oversized", route: "/v1/encode", body: oversized, chunked: true, status: http.StatusRequestEntityTooLarge, code: "body_too_large"},
		{name: "empty", route: "/v1/encode", status: http.StatusBadRequest, code: "empty_body"},
		{name: "chunked empty", route: "/v1/encode", chunked: true, status: http.StatusBadRequest, code: "empty_body"},
		{name: "small ppm after oversized", route: "/v1/encode", body: small, status: http.StatusOK},
	}
	send := func(url string, body []byte, chunked bool) (*http.Response, []byte) {
		if chunked {
			return postChunked(t, url, body)
		}
		return post(t, url, "", body, nil)
	}
	for _, tt := range tests {
		t.Run(strings.ReplaceAll(tt.name, " ", "-"), func(t *testing.T) {
			resp, got := send(ts.URL+tt.route, tt.body, tt.chunked)
			if tt.code != "" {
				wantJSONError(t, resp, got, tt.status, tt.code)
				return
			}
			if resp.StatusCode != tt.status {
				t.Fatalf("status %d, want %d (body %q)", resp.StatusCode, tt.status, got)
			}
			_, fresh := newTestServer(t, Options{MaxBodyBytes: maxBody})
			wantResp, want := send(fresh.URL+tt.route, tt.body, false)
			if ct, wantCT := resp.Header.Get("Content-Type"), wantResp.Header.Get("Content-Type"); ct != wantCT {
				t.Fatalf("Content-Type %q, a fresh server answers %q", ct, wantCT)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("reply of %d bytes differs from a fresh server's %d bytes", len(got), len(want))
			}
		})
	}
}

// TestPooledRequestBodiesConcurrent sends large and small bodies from
// several clients at once to one server, so pooled buffers pass between
// requests in flight: every reply must equal a fresh server's.
func TestPooledRequestBodiesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	largeImg := imgutil.NewRGB(256, 192)
	rng.Read(largeImg.Pix)
	var jpg bytes.Buffer
	if err := jpegcodec.EncodeRGB(&jpg, largeImg, nil); err != nil {
		t.Fatal(err)
	}
	reqs := []struct {
		route string
		body  []byte
	}{
		{"/v1/encode", ppmBody(t, largeImg)},
		{"/v1/encode", ppmBody(t, testImages(t, 1)[0])},
		{"/v1/decode", jpg.Bytes()},
		{"/v1/requantize?quality=50", jpg.Bytes()},
	}
	_, fresh := newTestServer(t, Options{})
	want := make([][]byte, len(reqs))
	for i, rq := range reqs {
		resp, body := post(t, fresh.URL+rq.route, "", rq.body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (body %q)", rq.route, resp.StatusCode, body)
		}
		want[i] = body
	}
	_, ts := newTestServer(t, Options{})
	const clients, rounds = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(reqs)
				resp, err := http.Post(ts.URL+reqs[i].route, "", bytes.NewReader(reqs[i].body))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want[i]) {
					t.Errorf("client %d round %d, %s: status %d, %d bytes; a fresh server answers 200 with %d bytes",
						c, r, reqs[i].route, resp.StatusCode, len(got), len(want[i]))
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestReadBodyIgnoresDeclaredLength sends a body far shorter than its
// declared Content-Length: readBody must size its buffer by the bytes
// that arrive, not by the declaration.
func TestReadBodyIgnoresDeclaredLength(t *testing.T) {
	s, err := New(Options{Framework: testFramework()})
	if err != nil {
		t.Fatal(err)
	}
	tn, ae := s.resolveTenant(&http.Request{Header: http.Header{}})
	if ae != nil {
		t.Fatal(ae.msg)
	}
	r := &http.Request{Body: io.NopCloser(strings.NewReader("0123456789")), ContentLength: 32 << 20}
	body, err := s.readBody(r, tn)
	if err != nil {
		t.Fatal(err)
	}
	defer s.putBuf(body)
	if body.String() != "0123456789" {
		t.Fatalf("body %q, want the 10 bytes sent", body.String())
	}
	if c := body.Cap(); c > 64<<10 {
		t.Fatalf("buffer capacity %d for a 10-byte body that declared 32 MiB", c)
	}
}
