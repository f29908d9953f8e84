package profilehub

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/profile"
)

// newTestOrigin publishes the given refs from a fresh directory and
// returns the origin, its directory, and an httptest server for it.
func newTestOrigin(tb testing.TB, opts OriginOptions, refs ...string) (*Origin, string, *httptest.Server) {
	tb.Helper()
	if opts.Dir == "" {
		opts.Dir = tb.TempDir()
	}
	for _, ref := range refs {
		name, version, _, err := profile.ParseRef(ref)
		if err != nil {
			tb.Fatal(err)
		}
		p, data := testProfile(tb, name, version)
		if err := profile.WriteFileAtomic(filepath.Join(opts.Dir, p.FileName()), data); err != nil {
			tb.Fatal(err)
		}
	}
	o, err := NewOrigin(opts)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(o)
	tb.Cleanup(ts.Close)
	return o, opts.Dir, ts
}

func TestOriginIndexETagRevalidation(t *testing.T) {
	_, dir, ts := newTestOrigin(t, OriginOptions{}, "a@1", "b@2")
	resp, err := http.Get(ts.URL + IndexPath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("index GET: %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("index served without an ETag")
	}
	ix, err := ParseIndex(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Profiles) != 2 {
		t.Fatalf("index lists %d profiles, want 2", len(ix.Profiles))
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+IndexPath, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("unchanged index revalidation: %d, want 304", resp.StatusCode)
	}

	// Changing the directory changes the ETag: the same If-None-Match now
	// gets a fresh 200 listing the new profile.
	p, data := testProfile(t, "c", 1)
	if err := profile.WriteFileAtomic(filepath.Join(dir, p.FileName()), data); err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("changed index revalidation: %d, want 200", resp.StatusCode)
	}
	if ix, err = ParseIndex(body); err != nil || len(ix.Profiles) != 3 {
		t.Fatalf("rebuilt index: %d profiles, %v", len(ix.Profiles), err)
	}
}

func TestOriginBlobServingAndRange(t *testing.T) {
	o, _, ts := newTestOrigin(t, OriginOptions{}, "a@1")
	ix, err := o.Index()
	if err != nil {
		t.Fatal(err)
	}
	e := &ix.Profiles[0]
	_, want := testProfile(t, "a", 1)

	resp, err := http.Get(ts.URL + BlobPathPrefix + e.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(got, want) {
		t.Fatalf("blob GET: %d, %d bytes", resp.StatusCode, len(got))
	}
	if resp.Header.Get("ETag") != `"`+e.SHA256+`"` {
		t.Fatalf("blob ETag %q, want quoted sha", resp.Header.Get("ETag"))
	}

	// Range resume: ask for the tail, get a 206 with exactly the rest.
	half := len(want) / 2
	req, _ := http.NewRequest(http.MethodGet, ts.URL+BlobPathPrefix+e.SHA256, nil)
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-", half))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range GET: %d, want 206", resp.StatusCode)
	}
	if !bytes.Equal(got, want[half:]) {
		t.Fatal("range body is not the requested tail")
	}

	// Unknown and malformed content addresses.
	for _, path := range []string{
		BlobPathPrefix + "0000000000000000000000000000000000000000000000000000000000000000",
		BlobPathPrefix + "not-a-sha",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 404/400", path, resp.StatusCode)
		}
	}
}

func push(tb testing.TB, url string, data []byte, hdr map[string]string) *http.Response {
	tb.Helper()
	req, err := http.NewRequest(http.MethodPost, url+PushPath, bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestOriginPushLifecycle(t *testing.T) {
	o, dir, ts := newTestOrigin(t, OriginOptions{PushKey: "sekrit"})
	_, data := testProfile(t, "pushed", 1)
	auth := map[string]string{"X-Hub-Push-Key": "sekrit"}

	if resp := push(t, ts.URL, data, nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("keyless push: %d, want 403", resp.StatusCode)
	}
	if resp := push(t, ts.URL, data, auth); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first push: %d, want 201", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "pushed@1.dnp")); err != nil {
		t.Fatalf("pushed profile not on disk: %v", err)
	}
	// Idempotent re-push of identical bytes.
	if resp := push(t, ts.URL, data, auth); resp.StatusCode != http.StatusOK {
		t.Fatalf("identical re-push: %d, want 200", resp.StatusCode)
	}
	// Conflicting bytes under the same name@version: versions are
	// immutable.
	p2, _ := testProfile(t, "pushed", 1)
	p2.Comment = "different bytes, same ref"
	conflicting, err := p2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if resp := push(t, ts.URL, conflicting, auth); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-push: %d, want 409", resp.StatusCode)
	}
	// Garbage body.
	if resp := push(t, ts.URL, []byte("not a profile"), auth); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage push: %d, want 400", resp.StatusCode)
	}
	// The pushed profile shows up in the next index build, under the
	// bytes of the first push, which the idempotent one left in place.
	ix, err := o.Index()
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.Resolve("pushed", 1)
	if err != nil {
		t.Fatalf("pushed profile not indexed: %v", err)
	}
	if e.SHA256 != profile.BlobSHA256(data) || e.Size != int64(len(data)) {
		t.Fatalf("index lists pushed@1 as %s (%d bytes), want the pushed %s (%d bytes)",
			e.SHA256, e.Size, profile.BlobSHA256(data), len(data))
	}

	// Immutability is checked by reference, not by file name: copy.dnp
	// declares a@1, so a@1 is published, and a file at a canonical name
	// that does not load still blocks its reference.
	_, copied := testProfile(t, "a", 1)
	if err := os.WriteFile(filepath.Join(dir, "copy.dnp"), copied, 0o644); err != nil {
		t.Fatal(err)
	}
	pa, _ := testProfile(t, "a", 1)
	pa.Comment = "other bytes for a@1"
	otherA, err := pa.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b@1.dnp"), []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, validB := testProfile(t, "b", 1)
	for _, tt := range []struct {
		name string
		body []byte
		want int
	}{
		{"other bytes for a ref declared in copy.dnp", otherA, http.StatusConflict},
		{"identical bytes for a ref declared in copy.dnp", copied, http.StatusOK},
		{"a ref whose canonical file is damaged", validB, http.StatusConflict},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if resp := push(t, ts.URL, tt.body, auth); resp.StatusCode != tt.want {
				t.Fatalf("push: %d, want %d", resp.StatusCode, tt.want)
			}
		})
	}
	if _, err := os.Stat(filepath.Join(dir, "a@1.dnp")); !os.IsNotExist(err) {
		t.Fatalf("a push wrote a@1.dnp beside copy.dnp (%v)", err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "b@1.dnp")); err != nil || string(got) != "damaged" {
		t.Fatalf("a push replaced the damaged b@1.dnp (%q, %v)", got, err)
	}
}

func TestOriginPushOfflineSignature(t *testing.T) {
	pub, priv := testHubKey(t)
	o, dir, ts := newTestOrigin(t, OriginOptions{})
	_, data := testProfile(t, "signed", 1)
	rec := profile.Sign(priv, "signed@1", data)

	resp := push(t, ts.URL, data, map[string]string{
		"X-Hub-Sig":        base64.StdEncoding.EncodeToString(rec.Sig),
		"X-Hub-Sig-Key-Id": rec.KeyID,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("signed push: %d, want 201", resp.StatusCode)
	}
	back, err := profile.ReadSignature(filepath.Join(dir, "signed@1.dnp"+profile.SigExt))
	if err != nil {
		t.Fatalf("sidecar: %v", err)
	}
	if err := back.Verify(pub, "signed@1", data); err != nil {
		t.Fatalf("sidecar does not verify: %v", err)
	}
	// The index entry carries the offline signature even though the
	// origin itself has no key.
	ix, err := o.Index()
	if err != nil {
		t.Fatal(err)
	}
	e, err := ix.Resolve("signed", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Record().Verify(pub, "signed@1", data); err != nil {
		t.Fatalf("indexed signature: %v", err)
	}

	// A malformed signature fails the whole push — no blob, no sidecar.
	_, data2 := testProfile(t, "signed", 2)
	resp = push(t, ts.URL, data2, map[string]string{"X-Hub-Sig": "!!not-base64!!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed sig push: %d, want 400", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "signed@2.dnp")); !os.IsNotExist(err) {
		t.Fatal("blob published despite rejected signature")
	}
}

func TestOriginSignsEntriesAndIndex(t *testing.T) {
	pub, priv := testHubKey(t)
	o, _, _ := newTestOrigin(t, OriginOptions{SigningKey: priv}, "a@1")
	ix, err := o.Index()
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.VerifySignature(pub); err != nil {
		t.Fatalf("index signature: %v", err)
	}
	e := &ix.Profiles[0]
	_, data := testProfile(t, "a", 1)
	if err := e.Record().Verify(pub, "a@1", data); err != nil {
		t.Fatalf("entry signature: %v", err)
	}
}

func TestOriginSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk@1.dnp"), []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, _, _ := newTestOrigin(t, OriginOptions{Dir: dir}, "ok@1")
	ix, err := o.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Profiles) != 1 || ix.Profiles[0].Ref() != "ok@1" {
		t.Fatalf("index = %+v, want just ok@1", ix.Profiles)
	}
}

func TestOriginRejectsDuplicateRefs(t *testing.T) {
	dir := t.TempDir()
	_, data := testProfile(t, "dup", 1)
	for _, fn := range []string{"dup@1.dnp", "copy-of-dup.dnp"} {
		if err := os.WriteFile(filepath.Join(dir, fn), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewOrigin(OriginOptions{Dir: dir}); err == nil {
		t.Fatal("two files declaring the same ref should fail the scan")
	}
}

// getBlob fetches one blob and fails the test when a 200 body does not
// hash to the sha256 its URL names.
func getBlob(tb testing.TB, url, sha string) (int, []byte) {
	tb.Helper()
	resp, err := http.Get(url + BlobPathPrefix + sha)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && profile.BlobSHA256(body) != sha {
		tb.Fatalf("blob %s served bytes that hash to %s", sha, profile.BlobSHA256(body))
	}
	return resp.StatusCode, body
}

// getIndex fetches and parses the index, failing on any status but 200.
func getIndex(tb testing.TB, url string) *Index {
	tb.Helper()
	resp, err := http.Get(url + IndexPath)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("index GET: %d %s", resp.StatusCode, body)
	}
	ix, err := ParseIndex(body)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestOriginPublishesChangesAfterBoot changes an origin's directory after
// its first index build. The next index must list what a profile
// registry over the directory serves — a@1 once, with the sha256 of
// a@1.dnp as it now reads — a client must pull it, and every blob
// response must hash to the sha256 in its URL.
func TestOriginPublishesChangesAfterBoot(t *testing.T) {
	pub, priv := testHubKey(t)
	// rewrite replaces a@1.dnp with a profile differing in one table
	// step, so its size stays the same, and optionally restores the old
	// mtime: a rewrite within the file system's timestamp granularity.
	rewrite := func(keepMtime bool, comment string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			path := filepath.Join(dir, "a@1.dnp")
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := testProfile(t, "a", 1)
			p.Luma[0]++
			p.Comment = comment
			if err := p.Write(path); err != nil {
				t.Fatal(err)
			}
			if keepMtime {
				if st2, err := os.Stat(path); err != nil || st2.Size() != st.Size() {
					t.Fatalf("the rewrite must keep the size (%d vs %d, %v)", st2.Size(), st.Size(), err)
				}
				if err := os.Chtimes(path, st.ModTime(), st.ModTime()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tests := []struct {
		name   string
		change func(t *testing.T, dir string)
		// blobsFirst requests the boot index's blobs after the change
		// and before the next index build.
		blobsFirst bool
		wantSigned bool
	}{
		{name: "same-size rewrite with the old mtime", change: rewrite(true, "")},
		{name: "stray copy", change: func(t *testing.T, dir string) {
			data, err := os.ReadFile(filepath.Join(dir, "a@1.dnp"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "backup-of-a.dnp"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "sidecar written", wantSigned: true, change: func(t *testing.T, dir string) {
			data, err := os.ReadFile(filepath.Join(dir, "a@1.dnp"))
			if err != nil {
				t.Fatal(err)
			}
			if err := profile.Sign(priv, "a@1", data).WriteFile(filepath.Join(dir, "a@1.dnp"+profile.SigExt)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "rewrite between an index build and a blob request", change: rewrite(false, "rewritten"), blobsFirst: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, dir, ts := newTestOrigin(t, OriginOptions{}, "a@1")
			boot := getIndex(t, ts.URL)
			tt.change(t, dir)
			if tt.blobsFirst {
				for _, e := range boot.Profiles {
					if status, _ := getBlob(t, ts.URL, e.SHA256); status != http.StatusOK {
						t.Fatalf("blob %s of the last index build: %d, want 200", e.Ref(), status)
					}
				}
			}

			ix := getIndex(t, ts.URL)
			if len(ix.Profiles) != 1 || ix.Profiles[0].Ref() != "a@1" {
				t.Fatalf("index lists %+v, want a@1 once", ix.Profiles)
			}
			e := &ix.Profiles[0]
			want, err := os.ReadFile(filepath.Join(dir, "a@1.dnp"))
			if err != nil {
				t.Fatal(err)
			}
			if e.SHA256 != profile.BlobSHA256(want) {
				t.Fatalf("index lists sha256 %s, a@1.dnp hashes to %s", e.SHA256, profile.BlobSHA256(want))
			}
			for _, b := range append(boot.Profiles, *e) {
				getBlob(t, ts.URL, b.SHA256)
			}
			if err := e.Record().Verify(pub, "a@1", want); (err == nil) != tt.wantSigned {
				t.Fatalf("entry signature verifies: %v, want %v", err == nil, tt.wantSigned)
			}

			got, _, err := newTestClient(t, ts.URL, nil).Pull(context.Background(), "a", 1)
			if err != nil {
				t.Fatalf("pull: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("pulled bytes differ from a@1.dnp")
			}
		})
	}
}

// TestOriginConcurrentRequests runs index and blob requests from several
// goroutines while pushes add versions: blob requests read the last
// index build without the origin's lock, so under -race this checks that
// hand-off, and every blob must still hash to the sha256 in its URL.
func TestOriginConcurrentRequests(t *testing.T) {
	_, _, ts := newTestOrigin(t, OriginOptions{}, "a@1")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(ts.URL + IndexPath)
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				ix, err := ParseIndex(body)
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range ix.Profiles {
					resp, err := http.Get(ts.URL + BlobPathPrefix + e.SHA256)
					if err != nil {
						t.Error(err)
						return
					}
					blob, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || profile.BlobSHA256(blob) != e.SHA256 {
						t.Errorf("blob %s: %d, %d bytes hashing to %s", e.Ref(), resp.StatusCode, len(blob), profile.BlobSHA256(blob))
					}
				}
			}
		}()
	}
	for v := uint32(2); v <= 8; v++ {
		_, data := testProfile(t, "a", v)
		if resp := push(t, ts.URL, data, nil); resp.StatusCode != http.StatusCreated {
			t.Errorf("push a@%d: %d, want 201", v, resp.StatusCode)
		}
	}
	wg.Wait()
}
