// Hub example: distributing calibration profiles to a serving fleet.
//
// One origin publishes a signed profile directory over HTTP; two
// servers boot with completely empty profile directories, lazily pull
// the default profile from the origin on first resolve, and serve
// byte-identical encodes. A new version pushed to the origin reaches
// both servers on their next watch tick, and killing the origin
// afterwards is a non-event — the fleet keeps serving from local files
// and the hub cache. Everything runs on loopback in temp directories.
//
//	go run ./examples/hub
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	deepnjpeg "repro"
	"repro/internal/dataset"
	"repro/internal/imgutil"
	"repro/internal/profilehub"
)

func main() {
	// 1. Calibrate once and publish the result as fleet@1 in the
	// origin's directory.
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
	originDir, err := os.MkdirTemp("", "deepn-hub-origin-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(originDir)
	if err := codec.SaveProfile(filepath.Join(originDir, "fleet@1.dnp"), deepnjpeg.ProfileMeta{
		Name: "fleet", Version: 1, Comment: "initial calibration",
	}); err != nil {
		log.Fatal(err)
	}

	// 2. Start a signed origin. In production this is
	// `deepn-jpeg hub serve -dir ... -key ...` on a box; here it is the
	// same handler on a loopback listener, with a kill switch so the
	// example can demonstrate an outage.
	pub, priv, err := profilehub.GenerateKey()
	if err != nil {
		log.Fatal(err)
	}
	origin, err := profilehub.NewOrigin(profilehub.OriginOptions{Dir: originDir, SigningKey: priv})
	if err != nil {
		log.Fatal(err)
	}
	var down atomic.Bool
	hub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		origin.ServeHTTP(w, r)
	}))
	defer hub.Close()
	fmt.Printf("origin serving %s at %s\n", originDir, hub.URL)

	// 3. Boot a two-server fleet from EMPTY profile directories. The
	// default profile misses locally at startup, so each server pulls
	// the signed fleet@1 from the origin before it answers its first
	// request. The trust key makes an unsigned or tampered origin a
	// boot failure, not a silent downgrade.
	fleet := make([]*httptest.Server, 2)
	for i := range fleet {
		dir, err := os.MkdirTemp("", "deepn-hub-node-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		srv, err := deepnjpeg.NewServer(nil, deepnjpeg.ServerOptions{
			ProfileDir:     dir,
			DefaultProfile: "fleet",
			ProfileWatch:   50 * time.Millisecond,
			HubOrigin:      hub.URL,
			HubTrustedKey:  pub,
		})
		if err != nil {
			log.Fatal(err)
		}
		fleet[i] = httptest.NewServer(srv.Handler())
		defer fleet[i].Close()
		fmt.Printf("node %d booted from empty %s, serving %s\n", i, dir, serving(fleet[i].URL))
	}

	// 4. Both nodes encode byte-identically: same profile, same tables.
	var ppm bytes.Buffer
	if err := imgutil.EncodeImage(&ppm, train.Images[0], "ppm"); err != nil {
		log.Fatal(err)
	}
	body := ppm.Bytes()
	a, b := encode(fleet[0].URL, body), encode(fleet[1].URL, body)
	fmt.Printf("fleet@1 encode: node0=%d bytes, node1=%d bytes, identical=%v\n",
		len(a), len(b), bytes.Equal(a, b))

	// 5. Push fleet@2 (here: the same calibration under a new version;
	// in production, a fresh calibration run). Both nodes pick it up on
	// their next watch tick without restarting.
	v2 := filepath.Join(originDir, "push-me.dnp")
	if err := codec.SaveProfile(v2, deepnjpeg.ProfileMeta{Name: "fleet", Version: 2, Comment: "recalibrated"}); err != nil {
		log.Fatal(err)
	}
	blob, err := os.ReadFile(v2)
	if err != nil {
		log.Fatal(err)
	}
	os.Remove(v2) // pushed over the wire, not scanned from disk
	resp, err := http.Post(hub.URL+profilehub.PushPath, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("pushed fleet@2: HTTP %d\n", resp.StatusCode)
	for i, node := range fleet {
		for serving(node.URL) != "fleet@2" {
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Printf("node %d now serving %s\n", i, serving(node.URL))
	}

	// 6. Kill the origin. Profiles are ordinary local files by now and
	// the hub client degrades to its cached index, so the fleet keeps
	// answering.
	down.Store(true)
	a, b = encode(fleet[0].URL, body), encode(fleet[1].URL, body)
	fmt.Printf("origin down: encodes still identical=%v — outage is a non-event\n", bytes.Equal(a, b))
}

func encode(base string, body []byte) []byte {
	resp, err := http.Post(base+"/v1/encode", "image/x-portable-pixmap", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("encode: %d %s", resp.StatusCode, data)
	}
	return data
}

func serving(base string) string {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Profile struct {
			Name    string `json:"name"`
			Version uint32 `json:"version"`
		} `json:"profile"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		log.Fatal(err)
	}
	return fmt.Sprintf("%s@%d", doc.Profile.Name, doc.Profile.Version)
}
