package profilehub

// Local content-addressed cache backing the client. Layout under the
// cache directory:
//
//	index.json          last verified index document (byte-exact)
//	index.etag          the ETag that document was served under
//	blobs/<sha256>      verified profile bytes, named by content address
//	blobs/<sha256>.part partial download awaiting resume
//
// Everything verified is committed with temp+rename, so a crash leaves
// either the old state or the new state — never a torn file that a
// later run would have to distrust.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/profile"
)

// cache is the on-disk store. Methods are not internally locked; the
// owning Client serializes writers, and readers tolerate concurrent
// replacement because commits are atomic renames.
type cache struct {
	dir string
}

func newCache(dir string) (*cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("profilehub: cache dir: %w", err)
	}
	return &cache{dir: dir}, nil
}

func (c *cache) indexPath() string { return filepath.Join(c.dir, "index.json") }
func (c *cache) etagPath() string  { return filepath.Join(c.dir, "index.etag") }
func (c *cache) blobPath(sha string) string {
	return filepath.Join(c.dir, "blobs", sha)
}
func (c *cache) partPath(sha string) string { return c.blobPath(sha) + ".part" }

// storeIndex persists a verified index document with the ETag it was
// served under.
func (c *cache) storeIndex(data []byte, etag string) error {
	if err := profile.WriteFileAtomic(c.indexPath(), data); err != nil {
		return err
	}
	return profile.WriteFileAtomic(c.etagPath(), []byte(etag))
}

// loadIndex returns the cached index document and ETag, re-validating
// the document through ParseIndex so a corrupted cache reads as absent,
// not as truth.
func (c *cache) loadIndex() (*Index, []byte, string, error) {
	data, err := os.ReadFile(c.indexPath())
	if err != nil {
		return nil, nil, "", err
	}
	ix, err := ParseIndex(data)
	if err != nil {
		return nil, nil, "", err
	}
	etag := ""
	if raw, err := os.ReadFile(c.etagPath()); err == nil {
		etag = strings.TrimSpace(string(raw))
	}
	return ix, data, etag, nil
}

// loadBlob returns cached bytes for a content address, re-hashing on
// every load: a cache hit is only a hit if the bytes still match their
// name. A mismatch (bit rot, tampering) deletes the file and reads as a
// miss so the client re-pulls.
func (c *cache) loadBlob(sha string) ([]byte, bool) {
	data, err := os.ReadFile(c.blobPath(sha))
	if err != nil {
		return nil, false
	}
	if profile.BlobSHA256(data) != sha {
		os.Remove(c.blobPath(sha))
		return nil, false
	}
	return data, true
}

// commitBlob lands verified bytes at their content address.
func (c *cache) commitBlob(sha string, data []byte) error {
	return profile.WriteFileAtomic(c.blobPath(sha), data)
}
