package server

// Throughput benchmarks through the real HTTP stack: requests/sec and
// items/sec through the batch endpoint are the serving numbers the
// ROADMAP's "production-scale service" goal is tracked by. Run via
// `make serve-bench`.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/core"
)

// benchServer builds an open-access server and a ready-made batch body.
func benchServer(b *testing.B, nItems int) (*httptest.Server, []byte, string) {
	b.Helper()
	s, err := New(Options{Framework: testFramework()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	imgs := testImages(b, nItems)
	items := make([][]byte, len(imgs))
	for i, img := range imgs {
		items[i] = ppmBody(b, img)
	}
	body, ct := buildMultipart(b, items)
	return ts, body, ct
}

func benchPost(b *testing.B, client *http.Client, url, ct string, body []byte) {
	b.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServeBatchEncode pushes 8-image batches through /v1/batch
// from parallel clients and reports requests/sec and items/sec.
func BenchmarkServeBatchEncode(b *testing.B) {
	const itemsPerBatch = 8
	ts, body, ct := benchServer(b, itemsPerBatch)
	url := ts.URL + "/v1/batch?op=encode"
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0),
	}}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, client, url, ct, body)
		}
	})
	b.StopTimer()
	rps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(rps, "req/s")
	b.ReportMetric(rps*itemsPerBatch, "items/s")
}

// BenchmarkServeEncodeSingle measures the single-image endpoint, the
// per-request floor the batch path amortizes.
func BenchmarkServeEncodeSingle(b *testing.B) {
	s, err := New(Options{Framework: testFramework()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	body := ppmBody(b, testImages(b, 1)[0])
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * runtime.GOMAXPROCS(0),
	}}
	url := ts.URL + "/v1/encode"
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchPost(b, client, url, "image/x-portable-pixmap", body)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeRoutes drives each single-image route through
// Server.Handler in process, with no network in between, so ns/op and
// allocs/op are the handler's own per-request cost plus a fixed
// httptest request and recorder. Decode answers PPM, as perfbench's
// serve-mix does; requantize retargets a QF-90 stream onto the
// calibrated tables.
func BenchmarkServeRoutes(b *testing.B) {
	fw := testFramework()
	s, err := New(Options{Framework: fw})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	img := testImages(b, 1)[0]
	stream, err := fw.Scheme().EncodeRGB(img)
	if err != nil {
		b.Fatal(err)
	}
	archive, err := core.SchemeJPEG(90).EncodeRGB(img)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name, target string
		body         []byte
	}{
		{"encode", "/v1/encode", ppmBody(b, img)},
		{"decode", "/v1/decode?format=ppm", stream},
		{"requantize", "/v1/requantize", archive},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, bc.target, bytes.NewReader(bc.body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
