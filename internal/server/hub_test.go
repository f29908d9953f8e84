package server

// Fleet distribution suite — the end-to-end story the profile hub
// exists for: N serving processes with EMPTY profile directories boot
// against one signed origin, lazily pull the same name@version, serve
// byte-identical encodes, keep serving from cache when the origin dies,
// and pick up a pushed new version on the next watch tick. Everything
// runs in-process over httptest; under -race this also exercises the
// hub client, registry sync, and snapshot swap concurrently.

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/profilehub"
)

// startFleetOrigin publishes fleet@1 (the shared test framework) from a
// signed origin whose availability tests can toggle.
func startFleetOrigin(t *testing.T) (url string, down *atomic.Bool, pub ed25519.PublicKey) {
	t.Helper()
	pubKey, priv, err := profilehub.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p, err := profile.FromFramework(testFramework(), profile.Meta{Name: "fleet", Version: 1, CreatedUnix: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(filepath.Join(dir, p.FileName())); err != nil {
		t.Fatal(err)
	}
	origin, err := profilehub.NewOrigin(profilehub.OriginOptions{Dir: dir, SigningKey: priv})
	if err != nil {
		t.Fatal(err)
	}
	down = &atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		origin.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, down, pubKey
}

func TestFleetPullsFromHub(t *testing.T) {
	originURL, down, pub := startFleetOrigin(t)

	// Two servers, zero local profiles, fast hub retry schedule is not
	// configurable per-server — the watch interval is what matters here.
	fleet := make([]*httptest.Server, 2)
	for i := range fleet {
		s, err := New(Options{
			ProfileDir:     t.TempDir(),
			DefaultProfile: "fleet",
			ProfileWatch:   20 * time.Millisecond,
			HubOrigin:      originURL,
			HubTrustedKey:  pub,
		})
		if err != nil {
			t.Fatalf("server %d failed to boot from an empty dir: %v", i, err)
		}
		fleet[i] = newHTTPServer(t, s)
	}

	body := ppmBody(t, testImages(t, 1)[0])
	encodeOn := func(ts *httptest.Server) []byte {
		t.Helper()
		resp, got := post(t, ts.URL+"/v1/encode", "image/x-portable-pixmap", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("encode status %d: %s", resp.StatusCode, got)
		}
		return got
	}

	// Both lazily pulled the same signed fleet@1 at boot and encode
	// byte-identically — to each other and to the direct codec call.
	want := encodeDirect(t, testFramework(), body)
	for i, ts := range fleet {
		if got := encodeOn(ts); !bytes.Equal(got, want) {
			t.Fatalf("server %d: hub-pulled profile encodes differently", i)
		}
	}

	// Healthz shows the hub block with real counters.
	hub := hubStatusFrom(t, fleet[0].URL+"/healthz")
	if hub["origin"] != originURL {
		t.Fatalf("healthz hub origin %v", hub["origin"])
	}
	if n, _ := hub["blob_fetches"].(float64); n < 1 {
		t.Fatalf("healthz hub block records no blob fetches: %v", hub)
	}

	// Publish fleet@2 through the push endpoint; every server's next
	// watch tick must sync it down and re-resolve the default.
	p2, err := profile.FromFramework(altFramework(), profile.Meta{Name: "fleet", Version: 2, CreatedUnix: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(originURL+profilehub.PushPath, "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("push: %d, want 201", resp.StatusCode)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, ts := range fleet {
		for {
			st := profileStatusFrom(t, ts.URL+"/healthz", "profile")
			if st.Name == "fleet" && st.Version == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never picked up pushed fleet@2 (at %s@%d)", st.Name, st.Version)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	want2 := encodeDirect(t, altFramework(), body)
	if bytes.Equal(want2, want) {
		t.Fatal("fixtures indistinguishable; version switch is unprovable")
	}
	for i, ts := range fleet {
		if got := encodeOn(ts); !bytes.Equal(got, want2) {
			t.Fatalf("server %d did not switch to fleet@2", i)
		}
	}

	// Kill the origin. The fleet keeps serving: profiles are local files
	// now and the hub client degrades to its cached index.
	down.Store(true)
	for i, ts := range fleet {
		if got := encodeOn(ts); !bytes.Equal(got, want2) {
			t.Fatalf("server %d stopped serving correctly with the origin down", i)
		}
	}
}

// TestServerHubRequiresProfileDir pins the config contract: a hub
// origin without a directory to materialize into is a boot error, not a
// latent runtime surprise.
func TestServerHubRequiresProfileDir(t *testing.T) {
	_, err := New(Options{Framework: testFramework(), HubOrigin: "http://localhost:1"})
	if err == nil {
		t.Fatal("HubOrigin without ProfileDir booted")
	}
}

// TestServerHubBootFailsOnUnreachableOriginWithEmptyDir pins the other
// edge: nothing local, nothing cached, origin unreachable — the default
// profile cannot resolve and the server must refuse to boot rather than
// serve nothing.
func TestServerHubBootFailsOnUnreachableOriginWithEmptyDir(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusNotFound)
	}))
	defer ts.Close()
	_, err := New(Options{
		ProfileDir:     t.TempDir(),
		DefaultProfile: "fleet",
		HubOrigin:      ts.URL,
	})
	if err == nil {
		t.Fatal("booted with no resolvable default profile")
	}
}

func hubStatusFrom(tb testing.TB, url string) map[string]any {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Profile struct {
			Hub map[string]any `json:"hub"`
		} `json:"profile"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		tb.Fatal(err)
	}
	if doc.Profile.Hub == nil {
		tb.Fatalf("no hub block inside the profile status at %s", url)
	}
	return doc.Profile.Hub
}
