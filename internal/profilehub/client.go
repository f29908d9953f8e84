package profilehub

// Hub client: verified pulls with a local content-addressed cache. The
// client implements profile.Source, so attaching it to a Registry gives
// every serving process lazy first-use pulls and periodic sync rides on
// the registry's existing Watch loop.
//
// Failure posture: transport errors and 5xx retry with exponential
// backoff + jitter; verification failures (hash, size, CRC, signature)
// never retry — re-requesting provably wrong bytes only re-downloads
// them; and when the origin is unreachable the last verified index and
// cached blobs keep the fleet serving (graceful degradation, counted in
// Stats so operators can see they are running on cached state).

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/profile"
)

// ClientOptions configures a hub client.
type ClientOptions struct {
	// Origin is the hub base URL, e.g. "http://hub.internal:9701".
	Origin string
	// CacheDir is the local content-addressed cache root. Required: the
	// cache is what makes origin outages non-events.
	CacheDir string
	// TrustedKey, when set, requires the index and every pulled profile
	// to verify against this Ed25519 public key.
	TrustedKey ed25519.PublicKey
	// HTTPClient overrides the transport (tests inject httptest clients).
	HTTPClient *http.Client
	// RequestTimeout bounds each individual HTTP attempt (default 30s).
	RequestTimeout time.Duration
	// MaxAttempts caps tries per request including the first (default 4).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the retry schedule: the delay
	// before attempt n is BackoffBase·2ⁿ⁻¹ capped at BackoffMax, with
	// ±50% jitter (defaults 200ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// ClientStats is the client's cumulative counter snapshot, surfaced on
// the server's /healthz and /metrics.
type ClientStats struct {
	IndexFetches     int64 // index GETs that returned a fresh document
	IndexNotModified int64 // index GETs answered 304 by ETag
	IndexFallbacks   int64 // index reads served from cache with origin down
	BlobFetches      int64 // blobs downloaded and verified
	BlobCacheHits    int64 // pulls satisfied from the local cache
	Retries          int64 // individual HTTP attempts beyond the first
	VerifyFailures   int64 // hash/size/CRC/signature rejections
}

// Client pulls profiles from one origin through a local cache.
// It implements profile.Source.
type Client struct {
	opts  ClientOptions
	http  *http.Client
	cache *cache

	mu      sync.Mutex // serializes index refresh and blob download
	current *Index     // last verified index
	etag    string     // ETag the current index was served under

	indexFetches     atomic.Int64
	indexNotModified atomic.Int64
	indexFallbacks   atomic.Int64
	blobFetches      atomic.Int64
	blobCacheHits    atomic.Int64
	retries          atomic.Int64
	verifyFailures   atomic.Int64
}

// NewClient validates options and opens the cache. A cached index from a
// previous run is loaded (and signature-checked) eagerly so a process
// restarted during an origin outage still knows the catalog.
func NewClient(opts ClientOptions) (*Client, error) {
	if opts.Origin == "" {
		return nil, errors.New("profilehub: client needs an origin URL")
	}
	if opts.CacheDir == "" {
		return nil, errors.New("profilehub: client needs a cache directory")
	}
	opts.Origin = strings.TrimRight(opts.Origin, "/")
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 200 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	ca, err := newCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	c := &Client{opts: opts, http: opts.HTTPClient, cache: ca}
	if c.http == nil {
		c.http = &http.Client{}
	}
	if ix, _, etag, err := ca.loadIndex(); err == nil {
		if opts.TrustedKey == nil || ix.VerifySignature(opts.TrustedKey) == nil {
			c.current, c.etag = ix, etag
		}
	}
	return c, nil
}

// Stats snapshots the counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		IndexFetches:     c.indexFetches.Load(),
		IndexNotModified: c.indexNotModified.Load(),
		IndexFallbacks:   c.indexFallbacks.Load(),
		BlobFetches:      c.blobFetches.Load(),
		BlobCacheHits:    c.blobCacheHits.Load(),
		Retries:          c.retries.Load(),
		VerifyFailures:   c.verifyFailures.Load(),
	}
}

// Index returns the current catalog, revalidating against the origin
// (If-None-Match) on every call. When the origin is unreachable and a
// previously verified index exists, that snapshot is returned instead —
// degraded, counted, but serving.
func (c *Client) Index(ctx context.Context) (*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refreshIndexLocked(ctx)
}

func (c *Client) refreshIndexLocked(ctx context.Context) (*Index, error) {
	var hdr http.Header
	if c.etag != "" && c.current != nil {
		hdr = http.Header{"If-None-Match": []string{c.etag}}
	}
	status, body, respHdr, err := c.do(ctx, c.opts.Origin+IndexPath, hdr, MaxIndexBytes+1)
	if err != nil {
		if c.current != nil {
			c.indexFallbacks.Add(1)
			return c.current, nil
		}
		return nil, fmt.Errorf("profilehub: fetching index from %s: %w", c.opts.Origin, err)
	}
	if status == http.StatusNotModified {
		c.indexNotModified.Add(1)
		return c.current, nil
	}
	if status != http.StatusOK {
		if c.current != nil {
			c.indexFallbacks.Add(1)
			return c.current, nil
		}
		return nil, fmt.Errorf("profilehub: index fetch: origin returned %d", status)
	}
	ix, err := ParseIndex(body)
	if err != nil {
		c.verifyFailures.Add(1)
		return nil, err
	}
	if c.opts.TrustedKey != nil {
		if err := ix.VerifySignature(c.opts.TrustedKey); err != nil {
			c.verifyFailures.Add(1)
			return nil, err
		}
	}
	c.indexFetches.Add(1)
	etag := respHdr.Get("ETag")
	if err := c.cache.storeIndex(body, etag); err != nil {
		return nil, err
	}
	c.current, c.etag = ix, etag
	return ix, nil
}

// Pull fetches one profile by name and version (0 = latest), returning
// the verified raw .dnp bytes and the index entry they matched.
func (c *Client) Pull(ctx context.Context, name string, version uint32) ([]byte, *Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ix, err := c.refreshIndexLocked(ctx)
	if err != nil {
		return nil, nil, err
	}
	e, err := ix.Resolve(name, version)
	if err != nil {
		return nil, nil, err
	}
	// Authenticity gate BEFORE any bytes move: with a trust key, an
	// entry whose signature record does not verify is not fetchable.
	if c.opts.TrustedKey != nil {
		if err := e.Record().VerifyDigest(c.opts.TrustedKey, e.Ref(), e.SHA256); err != nil {
			c.verifyFailures.Add(1)
			return nil, nil, err
		}
	}
	if data, ok := c.cache.loadBlob(e.SHA256); ok && int64(len(data)) == e.Size {
		c.blobCacheHits.Add(1)
		return data, e, nil
	}
	data, err := c.fetchBlob(ctx, e)
	if err != nil {
		return nil, nil, err
	}
	if err := c.cache.commitBlob(e.SHA256, data); err != nil {
		return nil, nil, err
	}
	c.blobFetches.Add(1)
	return data, e, nil
}

// Fetch implements profile.Source.
func (c *Client) Fetch(ctx context.Context, name string, version uint32) ([]byte, error) {
	data, _, err := c.Pull(ctx, name, version)
	return data, err
}

// List implements profile.Source.
func (c *Client) List(ctx context.Context) ([]profile.SourceRef, error) {
	ix, err := c.Index(ctx)
	if err != nil {
		return nil, err
	}
	refs := make([]profile.SourceRef, 0, len(ix.Profiles))
	for i := range ix.Profiles {
		e := &ix.Profiles[i]
		refs = append(refs, profile.SourceRef{Name: e.Name, Version: e.Version})
	}
	return refs, nil
}

// fetchBlob downloads one blob with resume support and verifies it
// against everything the index promised: size, sha256, embedded CRC32,
// and (when trusted) the signature record. Partial downloads persist as
// .part files and resume with a Range request on the next attempt —
// including attempts in a later process.
func (c *Client) fetchBlob(ctx context.Context, e *Entry) ([]byte, error) {
	partPath := c.cache.partPath(e.SHA256)
	url := c.opts.Origin + BlobPathPrefix + e.SHA256

	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			if err := sleepCtx(ctx, c.backoff(attempt-1)); err != nil {
				return nil, err
			}
		}
		data, retryable, err := c.fetchBlobOnce(ctx, url, partPath, e)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !retryable {
			return nil, err
		}
	}
	return nil, fmt.Errorf("profilehub: pulling %s: %w (after %d attempts)", e.Ref(), lastErr, c.opts.MaxAttempts)
}

// fetchBlobOnce is one download attempt. It returns (bytes, false, nil)
// on success, or an error plus whether the failure class is worth
// retrying.
func (c *Client) fetchBlobOnce(ctx context.Context, url, partPath string, e *Entry) (_ []byte, retryable bool, _ error) {
	part, _ := os.ReadFile(partPath)
	if int64(len(part)) >= e.Size {
		// A stale oversized partial can't be right; restart clean.
		os.Remove(partPath)
		part = nil
	}
	var hdr http.Header
	if len(part) > 0 {
		hdr = http.Header{"Range": []string{fmt.Sprintf("bytes=%d-", len(part))}}
	}
	status, body, _, err := c.doOnce(ctx, url, hdr, e.Size+1)
	if err != nil {
		// Transport died mid-body; bank whatever prefix arrived so the
		// next attempt resumes instead of restarting.
		if len(body) > 0 && (status == http.StatusOK || status == http.StatusPartialContent) {
			banked := body
			if status == http.StatusPartialContent {
				banked = append(append([]byte(nil), part...), body...)
			}
			if int64(len(banked)) < e.Size {
				profile.WriteFileAtomic(partPath, banked)
			}
		}
		return nil, true, err
	}
	var data []byte
	switch status {
	case http.StatusOK:
		data = body // full body: any partial is obsolete
	case http.StatusPartialContent:
		data = append(append([]byte(nil), part...), body...)
	case http.StatusRequestedRangeNotSatisfiable:
		os.Remove(partPath)
		return nil, true, fmt.Errorf("origin rejected resume range at offset %d", len(part))
	default:
		if status >= 500 || status == http.StatusTooManyRequests {
			return nil, true, fmt.Errorf("origin returned %d", status)
		}
		return nil, false, fmt.Errorf("origin returned %d", status)
	}
	if int64(len(data)) < e.Size {
		// Truncated transfer: keep what arrived for the next attempt's
		// Range request, then retry.
		profile.WriteFileAtomic(partPath, data)
		return nil, true, fmt.Errorf("short blob: got %d of %d bytes", len(data), e.Size)
	}
	os.Remove(partPath)
	if err := c.verifyBlob(data, e); err != nil {
		c.verifyFailures.Add(1)
		return nil, false, err
	}
	return data, false, nil
}

// verifyBlob checks downloaded bytes against the index entry. Order
// matters for error quality: size, content hash, embedded CRC cross-
// check, then signature.
func (c *Client) verifyBlob(data []byte, e *Entry) error {
	if int64(len(data)) != e.Size {
		return fmt.Errorf("profilehub: %s: blob is %d bytes, index says %d", e.Ref(), len(data), e.Size)
	}
	if got := profile.BlobSHA256(data); got != e.SHA256 {
		return fmt.Errorf("profilehub: %s: blob sha256 %s does not match index %s", e.Ref(), got, e.SHA256)
	}
	p, err := profile.Decode(data) // structural + CRC validation
	if err != nil {
		return fmt.Errorf("profilehub: %s: blob is not a valid profile: %w", e.Ref(), err)
	}
	if got := fmt.Sprintf("%08x", blobCRC(data)); got != e.CRC32 {
		return fmt.Errorf("profilehub: %s: blob crc32 %s does not match index %s", e.Ref(), got, e.CRC32)
	}
	if p.Ref() != e.Ref() {
		return fmt.Errorf("profilehub: blob for %s declares itself %s", e.Ref(), p.Ref())
	}
	if c.opts.TrustedKey != nil {
		if err := e.Record().Verify(c.opts.TrustedKey, e.Ref(), data); err != nil {
			return err
		}
	}
	return nil
}

// do runs a GET with the retry/backoff schedule. Index fetches use it;
// blob fetches manage their own loop because partial bodies are worth
// keeping between attempts.
func (c *Client) do(ctx context.Context, url string, hdr http.Header, maxBytes int64) (int, []byte, http.Header, error) {
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			if err := sleepCtx(ctx, c.backoff(attempt-1)); err != nil {
				return 0, nil, nil, err
			}
		}
		status, body, respHdr, err := c.doOnce(ctx, url, hdr, maxBytes)
		if err != nil {
			lastErr = err
			continue
		}
		if status >= 500 || status == http.StatusTooManyRequests {
			lastErr = fmt.Errorf("origin returned %d", status)
			continue
		}
		return status, body, respHdr, nil
	}
	return 0, nil, nil, fmt.Errorf("%w (after %d attempts)", lastErr, c.opts.MaxAttempts)
}

// doOnce is a single bounded-read GET attempt.
func (c *Client) doOnce(ctx context.Context, url string, hdr http.Header, maxBytes int64) (int, []byte, http.Header, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes))
	if err != nil {
		// A broken body mid-read is a transport failure, but the prefix
		// that DID arrive is still useful to a resuming caller.
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent {
			return resp.StatusCode, body, resp.Header, err
		}
		return 0, nil, nil, err
	}
	return resp.StatusCode, body, resp.Header, nil
}

// backoff computes the pre-attempt delay: base·2ⁿ⁻¹ capped, ±50% jitter.
func (c *Client) backoff(n int) time.Duration {
	d := c.opts.BackoffBase << (n - 1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	// Jitter decorrelates a fleet that lost its origin at the same
	// moment; math/rand's global source is fine for scheduling.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// blobCRC reads the trailing stored CRC32 of an encoded profile.
func blobCRC(data []byte) uint32 {
	if len(data) < 4 {
		return 0
	}
	return uint32(data[len(data)-4])<<24 | uint32(data[len(data)-3])<<16 |
		uint32(data[len(data)-2])<<8 | uint32(data[len(data)-1])
}
