// Server example: run the DeepN-JPEG codec as a multi-tenant HTTP
// service and drive it as a client — single-image encode, a multipart
// batch, coefficient-domain requantization, and the accounting
// endpoints. Everything happens in-process on a loopback port, so the
// example is self-contained; point the same client code at a
// `deepn-jpeg serve` process to use it for real.
//
//	go run ./examples/server
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"time"

	deepnjpeg "repro"
	"repro/internal/dataset"
	"repro/internal/imgutil"
)

func main() {
	// Calibrate a codec on a stand-in dataset (use your own corpus in
	// production) and wrap it in the HTTP service with two tenants.
	cfg := dataset.Quick()
	cfg.Color = true
	train, _, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	codec, err := deepnjpeg.Calibrate(train.Images, train.Labels, deepnjpeg.CalibrateConfig{Chroma: true})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := deepnjpeg.NewServer(codec, deepnjpeg.ServerOptions{
		Tenants: map[string]deepnjpeg.TenantLimits{
			"edge-key":      {Name: "edge-fleet", MaxInFlight: 8},
			"dashboard-key": {Name: "dashboard", MaxInFlight: 2},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	base := "http://" + l.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	client := &http.Client{Timeout: 30 * time.Second}
	auth := func(req *http.Request) *http.Request {
		req.Header.Set("X-API-Key", "edge-key")
		return req
	}

	// 1. Single-image encode: POST raw pixels (PPM here; PNG works too),
	//    receive a DeepN-JPEG stream any JPEG decoder reads.
	img := train.Images[0]
	var ppm bytes.Buffer
	if err := imgutil.WritePPM(&ppm, img); err != nil {
		log.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/encode", bytes.NewReader(ppm.Bytes()))
	resp, err := client.Do(auth(req))
	if err != nil {
		log.Fatal(err)
	}
	stream, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("POST /v1/encode            %s  %d px → %d bytes (calibrated tables)\n",
		resp.Status, img.W*img.H, len(stream))

	// 2. Requantize the archive copy onto harsher standard tables —
	//    coefficient domain, no second generation loss.
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/requantize?quality=50", bytes.NewReader(stream))
	resp, err = client.Do(auth(req))
	if err != nil {
		log.Fatal(err)
	}
	requantized, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("POST /v1/requantize?quality=50  %s  %d → %d bytes\n",
		resp.Status, len(stream), len(requantized))

	// 3. Batch encode: one multipart request, order-preserving multipart
	//    response, items fanned across the server's worker pool.
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	const batch = 8
	for i := 0; i < batch; i++ {
		part, _ := mw.CreateFormFile("items", fmt.Sprintf("img-%d.ppm", i))
		var buf bytes.Buffer
		if err := imgutil.WritePPM(&buf, train.Images[i]); err != nil {
			log.Fatal(err)
		}
		part.Write(buf.Bytes())
	}
	mw.Close()
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/batch?op=encode", &body)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err = client.Do(auth(req))
	if err != nil {
		log.Fatal(err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_, params, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	mr := multipart.NewReader(bytes.NewReader(respBody), params["boundary"])
	total := 0
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		data, _ := io.ReadAll(p)
		total += len(data)
	}
	fmt.Printf("POST /v1/batch?op=encode   %s  %d items → %d bytes total (failed: %s)\n",
		resp.Status, batch, total, resp.Header.Get("X-Batch-Failed"))

	// 4. Accounting: /metrics exposes global and per-tenant counters.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("\nGET /metrics\n%s\n", metrics)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained and stopped")
}
