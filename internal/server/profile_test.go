package server

// Profile-serving suite: a server booted from a profile directory must
// answer without any startup calibration, serve per-request and
// per-tenant profile selections byte-identically to direct codec calls,
// answer 404 JSON for unknown profiles, surface the loaded profile in
// /healthz and /metrics, and hot-reload the registry without disturbing
// in-flight requests (run under -race, this also proves the swap is a
// clean atomic publication).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/profile"
)

// altFramework is a second calibration with observably different tables
// (a different SynthNet seed and class count), so tests can tell which
// profile actually served a request.
var altFramework = sync.OnceValue(func() *core.Framework {
	cfg := dataset.Quick()
	cfg.TrainPerClass, cfg.TestPerClass = 6, 1
	cfg.Classes, cfg.Seed = 3, 99
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

// writeProfileDir persists frameworks under name@version into a fresh
// directory.
func writeProfileDir(tb testing.TB, entries map[string]*core.Framework) string {
	tb.Helper()
	dir := tb.TempDir()
	for ref, fw := range entries {
		name, version, _, err := profile.ParseRef(ref)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := profile.FromFramework(fw, profile.Meta{Name: name, Version: version, CreatedUnix: 1})
		if err != nil {
			tb.Fatal(err)
		}
		if err := p.Write(filepath.Join(dir, p.FileName())); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// encodeDirect is the golden: what the framework's own scheme emits for
// a PPM request body.
func encodeDirect(tb testing.TB, fw *core.Framework, body []byte) []byte {
	tb.Helper()
	img, err := imgutil.DecodeImage(body, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	opts := fw.Scheme().Opts
	if err := jpegcodec.EncodeRGB(&buf, img, &opts); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// newHTTPServer mounts an already-constructed Server (the shared
// newTestServer helper builds its own from Options with a Framework
// fallback, which profile tests must avoid).
func newHTTPServer(tb testing.TB, s *Server) *httptest.Server {
	tb.Helper()
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return ts
}

// plainPost is post without tb.Fatal, safe to call from worker
// goroutines.
func plainPost(url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func TestServeFromProfileDir(t *testing.T) {
	mainFW, altFW := testFramework(), altFramework()
	if mainFW.LumaTable == altFW.LumaTable {
		t.Fatal("fixtures share a luma table; the test cannot distinguish them")
	}
	dir := writeProfileDir(t, map[string]*core.Framework{
		"main@1": mainFW,
		"main@2": mainFW,
		"alt@1":  altFW,
	})
	// No Framework at all: the default profile is the only table source.
	s, err := New(Options{ProfileDir: dir, DefaultProfile: "main"})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	body := ppmBody(t, testImages(t, 1)[0])

	t.Run("default profile serves without calibration", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/encode", "image/x-portable-pixmap", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if want := encodeDirect(t, mainFW, body); !bytes.Equal(got, want) {
			t.Fatal("profile-served stream differs from direct encode")
		}
	})

	t.Run("per-request selection", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/encode?profile=alt", "image/x-portable-pixmap", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if want := encodeDirect(t, altFW, body); !bytes.Equal(got, want) {
			t.Fatal("?profile=alt did not serve the alt tables")
		}
		// Exact-version reference works too.
		resp, got = post(t, ts.URL+"/v1/encode?profile=main@1", "image/x-portable-pixmap", body, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, got)
		}
		if want := encodeDirect(t, mainFW, body); !bytes.Equal(got, want) {
			t.Fatal("?profile=main@1 did not serve the main tables")
		}
	})

	t.Run("unknown profile is 404 JSON", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/encode?profile=ghost", "image/x-portable-pixmap", body, nil)
		wantJSONError(t, resp, got, http.StatusNotFound, "unknown_profile")
		resp, got = post(t, ts.URL+"/v1/requantize?profile=main@9", "image/jpeg", encodeDirect(t, mainFW, body), nil)
		wantJSONError(t, resp, got, http.StatusNotFound, "unknown_profile")
	})

	t.Run("malformed profile ref is 400 JSON", func(t *testing.T) {
		resp, got := post(t, ts.URL+"/v1/encode?profile=No%20Such", "image/x-portable-pixmap", body, nil)
		wantJSONError(t, resp, got, http.StatusBadRequest, "bad_profile")
	})

	t.Run("healthz and metrics report the profile", func(t *testing.T) {
		st := profileStatusFrom(t, ts.URL+"/healthz", "profile")
		if st.Name != "main" || st.Version != 2 {
			t.Fatalf("healthz serving %s@%d, want main@2 (bare name resolves highest)", st.Name, st.Version)
		}
		if st.Loads < 1 {
			t.Fatalf("healthz load counter %d, want ≥ 1", st.Loads)
		}
		mt := profileStatusFrom(t, ts.URL+"/metrics", "profile")
		if mt.Name != "main" || mt.Version != 2 || mt.Loads < 1 {
			t.Fatalf("metrics profile block %+v", mt)
		}
	})
}

type profileStatus struct {
	Name           string `json:"name"`
	Version        int    `json:"version"`
	Loads          int64  `json:"loads"`
	WatchErrors    int64  `json:"watch_errors"`
	LastWatchError string `json:"last_watch_error"`
}

func profileStatusFrom(tb testing.TB, url, key string) profileStatus {
	tb.Helper()
	resp, err := http.Get(url)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		tb.Fatal(err)
	}
	var st profileStatus
	if err := json.Unmarshal(doc[key], &st); err != nil {
		tb.Fatalf("no %q block in %s: %v", key, url, err)
	}
	return st
}

// TestServerSurfacesWatchFailures closes the loop on the registry's
// scan-failure reporting: when the profile directory stops being
// scannable, the condition must reach the operator through the profile
// block of /healthz — not die inside the watch callback — while the
// last-good snapshot keeps serving.
func TestServerSurfacesWatchFailures(t *testing.T) {
	dir := writeProfileDir(t, map[string]*core.Framework{"main@1": testFramework()})
	s, err := New(Options{ProfileDir: dir, DefaultProfile: "main", ProfileWatch: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var st profileStatus
	for {
		st = profileStatusFrom(t, ts.URL+"/healthz", "profile")
		if st.WatchErrors > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.WatchErrors == 0 {
		t.Fatal("persistent watch failures never surfaced on /healthz")
	}
	if st.LastWatchError == "" {
		t.Fatal("watch error surfaced without its message")
	}
	// The pre-failure snapshot must keep serving requests.
	body := ppmBody(t, testImages(t, 1)[0])
	resp, got := post(t, ts.URL+"/v1/encode", "image/x-portable-pixmap", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("serving stopped after watch failures: status %d: %s", resp.StatusCode, got)
	}
}

func TestPerTenantProfiles(t *testing.T) {
	mainFW, altFW := testFramework(), altFramework()
	dir := writeProfileDir(t, map[string]*core.Framework{"main@1": mainFW, "alt@1": altFW})
	s, err := New(Options{
		ProfileDir:     dir,
		DefaultProfile: "main",
		Tenants: map[string]TenantConfig{
			"key-alt":  {Name: "edge", Profile: "alt"},
			"key-main": {Name: "dc"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	body := ppmBody(t, testImages(t, 1)[0])

	resp, got := post(t, ts.URL+"/v1/encode", "image/x-portable-pixmap", body,
		map[string]string{"X-API-Key": "key-alt"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if want := encodeDirect(t, altFW, body); !bytes.Equal(got, want) {
		t.Fatal("pinned tenant did not get its profile's tables")
	}
	// The unpinned tenant gets the server default.
	resp, got = post(t, ts.URL+"/v1/encode", "image/x-portable-pixmap", body,
		map[string]string{"X-API-Key": "key-main"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if want := encodeDirect(t, mainFW, body); !bytes.Equal(got, want) {
		t.Fatal("unpinned tenant did not get the default tables")
	}
	// A per-request override beats the tenant pin.
	resp, got = post(t, ts.URL+"/v1/encode?profile=main", "image/x-portable-pixmap", body,
		map[string]string{"X-API-Key": "key-alt"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if want := encodeDirect(t, mainFW, body); !bytes.Equal(got, want) {
		t.Fatal("?profile= did not override the tenant pin")
	}
}

func TestTenantProfileValidatedAtConstruction(t *testing.T) {
	dir := writeProfileDir(t, map[string]*core.Framework{"main@1": testFramework()})
	if _, err := New(Options{
		ProfileDir:     dir,
		DefaultProfile: "main",
		Tenants:        map[string]TenantConfig{"k": {Profile: "ghost"}},
	}); err == nil {
		t.Fatal("tenant pinned to an unknown profile accepted")
	}
	if _, err := New(Options{
		Framework: testFramework(),
		Tenants:   map[string]TenantConfig{"k": {Profile: "main"}},
	}); err == nil {
		t.Fatal("tenant profile without a ProfileDir accepted")
	}
}

func TestAdminKeyGatesReload(t *testing.T) {
	dir := writeProfileDir(t, map[string]*core.Framework{"main@1": testFramework()})
	s, err := New(Options{
		ProfileDir:     dir,
		DefaultProfile: "main",
		AdminKey:       "root-key",
		Tenants:        map[string]TenantConfig{"tenant-key": {Name: "t"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	// A codec tenant cannot reload.
	resp, got := post(t, ts.URL+"/admin/profiles/reload", "", nil,
		map[string]string{"X-API-Key": "tenant-key"})
	wantJSONError(t, resp, got, http.StatusForbidden, "admin_key_required")
	// The admin key can — and needs no codec tenancy.
	resp, got = post(t, ts.URL+"/admin/profiles/reload", "", nil,
		map[string]string{"X-API-Key": "root-key"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin reload status %d: %s", resp.StatusCode, got)
	}
	// The admin key is not a codec backdoor check: it may use codec
	// endpoints (it is a tenant like any other), but an AdminKey equal to
	// a tenant key is rejected at construction.
	if _, err := New(Options{
		ProfileDir:     dir,
		DefaultProfile: "main",
		AdminKey:       "tenant-key",
		Tenants:        map[string]TenantConfig{"tenant-key": {}},
	}); err == nil {
		t.Fatal("AdminKey colliding with a tenant key accepted")
	}
}

func TestProfileServerConstruction(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("no Framework and no DefaultProfile accepted")
	}
	if _, err := New(Options{DefaultProfile: "main"}); err == nil {
		t.Fatal("DefaultProfile without ProfileDir accepted")
	}
	if _, err := New(Options{ProfileDir: t.TempDir(), DefaultProfile: "ghost"}); err == nil {
		t.Fatal("unresolvable default profile accepted")
	}
	// A corrupt file fails construction loudly.
	dir := writeProfileDir(t, map[string]*core.Framework{"main@1": testFramework()})
	if err := os.WriteFile(filepath.Join(dir, "junk.dnp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{ProfileDir: dir, DefaultProfile: "main"}); err == nil {
		t.Fatal("corrupt profile directory accepted at construction")
	}
}

// TestHotReloadUnderLoad hammers the encode endpoint from several
// goroutines while the admin endpoint reloads the registry and the
// default profile flips between two versions on disk. Every request must
// succeed and return one of the two valid streams — never an error, a
// torn table set, or (under -race) a data race.
func TestHotReloadUnderLoad(t *testing.T) {
	mainFW, altFW := testFramework(), altFramework()
	dir := writeProfileDir(t, map[string]*core.Framework{"serving@1": mainFW})
	s, err := New(Options{ProfileDir: dir, DefaultProfile: "serving"})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	body := ppmBody(t, testImages(t, 1)[0])
	want1 := encodeDirect(t, mainFW, body)
	want2 := encodeDirect(t, altFW, body)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, got, err := plainPost(ts.URL+"/v1/encode", "image/x-portable-pixmap", body)
				if err != nil {
					errc <- err
					return
				}
				if status != http.StatusOK {
					errc <- fmt.Errorf("status %d: %s", status, got)
					return
				}
				if !bytes.Equal(got, want1) && !bytes.Equal(got, want2) {
					errc <- fmt.Errorf("response matches neither profile version")
					return
				}
			}
		}()
	}

	// Flip the on-disk profile between versions and reload, repeatedly.
	p2, err := profile.FromFramework(altFW, profile.Meta{Name: "serving", Version: 2, CreatedUnix: 2})
	if err != nil {
		t.Fatal(err)
	}
	path2 := filepath.Join(dir, p2.FileName())
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			if err := p2.Write(path2); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Remove(path2); err != nil {
			t.Fatal(err)
		}
		resp, got := post(t, ts.URL+"/admin/profiles/reload", "", []byte{}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload status %d: %s", resp.StatusCode, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// After the final reload (version 2 present: the loop's last write
	// was on iteration 8, removed on 9... the parity leaves it absent),
	// the default must still resolve and the counter must have advanced.
	st := profileStatusFrom(t, ts.URL+"/healthz", "profile")
	if st.Name != "serving" {
		t.Fatalf("serving %q after reload storm", st.Name)
	}
	if st.Loads < 11 {
		t.Fatalf("load counter %d after 10 reloads, want ≥ 11", st.Loads)
	}
}
