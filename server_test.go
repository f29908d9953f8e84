package deepnjpeg

// Public-API smoke test for the HTTP server wrapper: the acceptance bar
// is that a stream served over the wire is byte-identical to what the
// same Codec produces in-process. The full endpoint/error/load matrix
// lives in internal/server.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/imgutil"
)

func TestServerEncodeMatchesCodecEncode(t *testing.T) {
	codec, images := batchCodec(t)
	srv, err := NewServer(codec, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	img := images[0]
	var ppm bytes.Buffer
	if err := imgutil.EncodeImage(&ppm, img, "ppm"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/encode", "image/x-portable-pixmap", &ppm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	want, err := codec.Encode(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served stream (%d bytes) is not byte-identical to Codec.Encode (%d bytes)",
			len(got), len(want))
	}
	// And the served requantize path must match Codec.Requantize.
	resp, err = http.Post(ts.URL+"/v1/requantize", "image/jpeg", bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	gotRq, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("requantize status %d: %s", resp.StatusCode, gotRq)
	}
	wantRq, err := codec.Requantize(want, RequantizeOptions{OptimizeHuffman: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRq, wantRq) {
		t.Fatal("served requantize differs from Codec.Requantize")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
