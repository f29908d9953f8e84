package profilehub

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/profile"
)

// newTestClient builds a client against an origin URL with a fast retry
// schedule suitable for tests.
func newTestClient(tb testing.TB, origin string, mutate func(*ClientOptions)) *Client {
	tb.Helper()
	opts := ClientOptions{
		Origin:         origin,
		CacheDir:       tb.TempDir(),
		RequestTimeout: 5 * time.Second,
		MaxAttempts:    4,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := NewClient(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestClientPullFetchThenCacheHit(t *testing.T) {
	_, _, ts := newTestOrigin(t, OriginOptions{}, "a@1", "a@2")
	c := newTestClient(t, ts.URL, nil)
	ctx := context.Background()

	_, want := testProfile(t, "a", 2)
	data, e, err := c.Pull(ctx, "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Ref() != "a@2" || !bytes.Equal(data, want) {
		t.Fatalf("pulled %s, %d bytes", e.Ref(), len(data))
	}
	if st := c.Stats(); st.BlobFetches != 1 || st.BlobCacheHits != 0 {
		t.Fatalf("first pull stats: %+v", st)
	}
	// Same blob again: cache hit, no second download.
	if _, _, err := c.Pull(ctx, "a", 2); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.BlobFetches != 1 || st.BlobCacheHits != 1 {
		t.Fatalf("second pull stats: %+v", st)
	}
}

func TestClientRetries5xxThenSucceeds(t *testing.T) {
	o, _, _ := newTestOrigin(t, OriginOptions{}, "a@1")
	var blobFailures atomic.Int64
	blobFailures.Store(2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, BlobPathPrefix) && blobFailures.Add(-1) >= 0 {
			httpError(w, http.StatusServiceUnavailable, "flaky", "injected outage")
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	_, want := testProfile(t, "a", 1)
	data, _, err := c.Pull(context.Background(), "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("pulled bytes differ after retries")
	}
	// Exactly two injected failures → exactly two retries, then success.
	if st := c.Stats(); st.Retries != 2 || st.BlobFetches != 1 {
		t.Fatalf("stats after flaky pull: %+v", st)
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	o, _, _ := newTestOrigin(t, OriginOptions{}, "a@1")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, BlobPathPrefix) {
			httpError(w, http.StatusInternalServerError, "down", "always failing")
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(o *ClientOptions) { o.MaxAttempts = 3 })
	_, _, err := c.Pull(context.Background(), "a", 1)
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("want exhaustion error, got %v", err)
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("3 attempts = 2 retries, got %+v", st)
	}
}

func TestClientResumesTruncatedBlob(t *testing.T) {
	o, _, _ := newTestOrigin(t, OriginOptions{}, "a@1")
	_, want := testProfile(t, "a", 1)
	half := len(want) / 2
	var truncations atomic.Int64
	truncations.Store(1)
	var sawRange atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, BlobPathPrefix) {
			if rg := r.Header.Get("Range"); rg != "" {
				sawRange.Store(rg)
			}
			if truncations.Add(-1) >= 0 {
				// A complete, well-formed response that is simply missing
				// the tail — as a proxy or dying origin would produce.
				w.Header().Set("Content-Length", fmt.Sprint(half))
				w.WriteHeader(http.StatusOK)
				w.Write(want[:half])
				return
			}
		}
		o.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	data, e, err := c.Pull(context.Background(), "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("resumed blob differs from original")
	}
	// The second attempt resumed from the banked prefix instead of
	// restarting at zero.
	if got, _ := sawRange.Load().(string); got != fmt.Sprintf("bytes=%d-", half) {
		t.Fatalf("resume Range header = %q", got)
	}
	if st := c.Stats(); st.Retries != 1 {
		t.Fatalf("stats after truncated pull: %+v", st)
	}
	// The .part file is gone once the blob verifies.
	if _, err := os.Stat(c.cache.partPath(e.SHA256)); !os.IsNotExist(err) {
		t.Fatal(".part survived a successful pull")
	}
}

func TestClientRejectsCorruptBlobWithoutRetry(t *testing.T) {
	o, _, _ := newTestOrigin(t, OriginOptions{}, "a@1")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, BlobPathPrefix) {
			rec := httptest.NewRecorder()
			o.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			body[len(body)/2] ^= 0x01 // same length, wrong bytes
			w.WriteHeader(rec.Code)
			w.Write(body)
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	_, _, err := c.Pull(context.Background(), "a", 1)
	if err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Fatalf("want sha256 mismatch, got %v", err)
	}
	// Provably wrong bytes are not retried: re-downloading them cannot
	// help, and the failure is counted.
	if st := c.Stats(); st.Retries != 0 || st.VerifyFailures != 1 || st.BlobFetches != 0 {
		t.Fatalf("stats after corrupt blob: %+v", st)
	}
}

func TestClientRejectsIndexCRCMismatch(t *testing.T) {
	// A hand-built origin whose index lies about the CRC: sha256 and size
	// match the blob, so only the CRC cross-check can catch it.
	_, data := testProfile(t, "a", 1)
	ix := testIndex(t, "a@1")
	ix.Profiles[0].CRC32 = "deadbeef"
	encoded, err := ix.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == IndexPath:
			w.Write(encoded)
		case strings.HasPrefix(r.URL.Path, BlobPathPrefix):
			w.Write(data)
		}
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, nil)
	_, _, err = c.Pull(context.Background(), "a", 1)
	if err == nil || !strings.Contains(err.Error(), "crc32") {
		t.Fatalf("want crc32 mismatch, got %v", err)
	}
	if st := c.Stats(); st.VerifyFailures != 1 || st.Retries != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClientIndexRevalidation(t *testing.T) {
	_, dir, ts := newTestOrigin(t, OriginOptions{}, "a@1")
	c := newTestClient(t, ts.URL, nil)
	ctx := context.Background()

	if _, err := c.Index(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Index(ctx); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.IndexFetches != 1 || st.IndexNotModified != 1 {
		t.Fatalf("revalidation stats: %+v", st)
	}
	// Directory change → stale ETag → fresh fetch.
	p, data := testProfile(t, "b", 1)
	if err := profile.WriteFileAtomic(filepath.Join(dir, p.FileName()), data); err != nil {
		t.Fatal(err)
	}
	ix, err := c.Index(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Resolve("b", 1); err != nil {
		t.Fatalf("fresh index missing new profile: %v", err)
	}
	if st := c.Stats(); st.IndexFetches != 2 {
		t.Fatalf("stale-ETag stats: %+v", st)
	}
}

func TestClientOriginDownFallsBackToCache(t *testing.T) {
	o, _, _ := newTestOrigin(t, OriginOptions{}, "a@1")
	down := &atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() // slam the connection: transport-level failure
			}
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cacheDir := t.TempDir()
	c := newTestClient(t, ts.URL, func(o *ClientOptions) {
		o.CacheDir = cacheDir
		o.MaxAttempts = 2
	})
	ctx := context.Background()
	first, _, err := c.Pull(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}

	down.Store(true)
	// Index and blob both keep working from the cache, and the
	// degradation is visible in the counters.
	if _, err := c.Index(ctx); err != nil {
		t.Fatalf("index with origin down: %v", err)
	}
	again, _, err := c.Pull(ctx, "a", 1)
	if err != nil {
		t.Fatalf("pull with origin down: %v", err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("cached bytes differ")
	}
	if st := c.Stats(); st.IndexFallbacks < 2 || st.BlobCacheHits != 1 {
		t.Fatalf("degraded stats: %+v", st)
	}

	// A fresh process over the same cache dir survives a boot-time
	// outage: the persisted index is loaded and the blob serves from
	// cache.
	c2 := newTestClient(t, ts.URL, func(o *ClientOptions) {
		o.CacheDir = cacheDir
		o.MaxAttempts = 2
	})
	again, _, err = c2.Pull(ctx, "a", 1)
	if err != nil {
		t.Fatalf("restarted pull with origin down: %v", err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("restarted cached bytes differ")
	}
}

func TestClientTrustKeyGatesEverything(t *testing.T) {
	pub, priv := testHubKey(t)
	wrongPub, _ := testHubKey(t)

	// Unsigned origin + trust key → rejected.
	_, _, unsignedTS := newTestOrigin(t, OriginOptions{}, "a@1")
	c := newTestClient(t, unsignedTS.URL, func(o *ClientOptions) { o.TrustedKey = pub })
	if _, err := c.Index(context.Background()); err == nil || !strings.Contains(err.Error(), "unsigned") {
		t.Fatalf("unsigned index accepted: %v", err)
	}

	// Signed origin + matching key → full pull works.
	_, _, signedTS := newTestOrigin(t, OriginOptions{SigningKey: priv}, "a@1")
	c = newTestClient(t, signedTS.URL, func(o *ClientOptions) { o.TrustedKey = pub })
	if _, _, err := c.Pull(context.Background(), "a", 1); err != nil {
		t.Fatalf("signed pull: %v", err)
	}

	// Signed origin + wrong key → rejected, counted.
	c = newTestClient(t, signedTS.URL, func(o *ClientOptions) { o.TrustedKey = wrongPub })
	if _, err := c.Index(context.Background()); err == nil || !strings.Contains(err.Error(), "does not verify") {
		t.Fatalf("wrong-key index accepted: %v", err)
	}
	if st := c.Stats(); st.VerifyFailures != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestClientRejectsTamperedSignedIndex(t *testing.T) {
	pub, priv := testHubKey(t)
	o, _, _ := newTestOrigin(t, OriginOptions{SigningKey: priv}, "a@1", "b@1")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == IndexPath {
			// Man-in-the-middle: strip entry b@1 from the signed index and
			// re-encode. Structurally valid JSON, dead signature.
			ix, err := o.Index()
			if err != nil {
				httpError(w, 500, "x", "%v", err)
				return
			}
			forged := *ix
			forged.Profiles = forged.Profiles[:1]
			data, _ := forged.Encode()
			w.Write(data)
			return
		}
		o.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, func(o *ClientOptions) { o.TrustedKey = pub })
	if _, err := c.Index(context.Background()); err == nil || !strings.Contains(err.Error(), "does not verify") {
		t.Fatalf("forged index accepted: %v", err)
	}
}

func TestClientCacheSelfHeals(t *testing.T) {
	_, _, ts := newTestOrigin(t, OriginOptions{}, "a@1")
	c := newTestClient(t, ts.URL, nil)
	ctx := context.Background()
	data, e, err := c.Pull(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-rot the cached blob. The next pull detects the bad hash,
	// treats it as a miss, and re-downloads.
	blobPath := c.cache.blobPath(e.SHA256)
	rotted := append([]byte(nil), data...)
	rotted[10] ^= 0xff
	if err := os.WriteFile(blobPath, rotted, 0o644); err != nil {
		t.Fatal(err)
	}
	again, _, err := c.Pull(ctx, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("self-healed blob differs")
	}
	if st := c.Stats(); st.BlobFetches != 2 || st.BlobCacheHits != 0 {
		t.Fatalf("self-heal stats: %+v", st)
	}
}
