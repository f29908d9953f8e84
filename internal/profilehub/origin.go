package profilehub

// Origin mode: publish a directory of .dnp profiles over the hub wire
// protocol. `deepn-jpeg hub serve` wraps this handler so a fleet needs
// no external infrastructure — one process with a profile directory IS
// the hub — and the whole distribution loop stays httptest-coverable.

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/profile"
)

// OriginOptions configures an Origin.
type OriginOptions struct {
	// Dir is the profile directory being published. It must exist; every
	// index request refreshes the origin's profile.Registry over it, so
	// files dropped in (or pushed) appear in the index without restarts.
	Dir string
	// SigningKey, when set, signs the index manifest and every entry
	// that does not already carry a valid sidecar signature record.
	SigningKey ed25519.PrivateKey
	// PushKey gates POST /hub/v1/push: requests must present it as
	// X-Hub-Push-Key. Empty leaves push open — fine on a workstation,
	// not on anything reachable.
	PushKey string
}

// Origin serves one profile directory over the hub protocol: exactly what
// a profile.Registry over it serves, each blob from the bytes it decoded.
type Origin struct {
	opts OriginOptions
	reg  *profile.Registry

	// mu serializes registry refreshes, index builds and pushes; blob
	// requests read the last build without it.
	mu    sync.Mutex
	built atomic.Pointer[builtIndex]
}

// builtIndex is one immutable index build: document bytes, parsed form,
// the registry load it was built from, and the blob bytes by sha256 hex.
type builtIndex struct {
	index   *Index
	encoded []byte
	etag    string
	loads   int64
	blobs   map[string][]byte
}

// NewOrigin opens a registry on the directory and builds the first
// index, so a serve command fails at boot — not at first request — on a
// directory it cannot scan or one where two files declare one
// name@version. Damaged files are skipped.
func NewOrigin(opts OriginOptions) (*Origin, error) {
	reg, err := profile.OpenRegistry(opts.Dir)
	// A registry with no load has not scanned the directory at all.
	if reg.Loads() == 0 || errors.Is(err, profile.ErrDuplicateRef) {
		return nil, err
	}
	o := &Origin{opts: opts, reg: reg}
	if _, err := o.refresh(); err != nil {
		return nil, err
	}
	return o, nil
}

// Index returns the current parsed index (rebuilding if the directory
// changed since the last build).
func (o *Origin) Index() (*Index, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, err := o.refresh()
	if err != nil {
		return nil, err
	}
	return b.index, nil
}

// refresh runs the registry's poll step and returns the index built from
// its snapshot, rebuilding it when the registry reloaded. A scan failure
// is an error; files that fail to load are not — the registry skips them
// and so does the index. o.mu must be held.
func (o *Origin) refresh() (*builtIndex, error) {
	if reloaded, _, err := o.reg.Refresh(); !reloaded && err != nil {
		return nil, err
	}
	loads := o.reg.Loads()
	if b := o.built.Load(); b != nil && b.loads == loads {
		return b, nil
	}
	b, err := o.buildIndex(loads)
	if err != nil {
		return nil, err
	}
	o.built.Store(b)
	return b, nil
}

// buildIndex turns the registry's snapshot into a fresh signed index
// build.
func (o *Origin) buildIndex(loads int64) (*builtIndex, error) {
	ix := &Index{Format: ProtocolVersion, GeneratedUnix: time.Now().Unix()}
	blobs := make(map[string][]byte)
	for _, s := range o.reg.List() {
		p, data := s.Profile, s.Data
		ref := p.Ref()
		e := Entry{
			Name:        p.Name,
			Version:     p.Version,
			SHA256:      profile.BlobSHA256(data),
			Size:        int64(len(data)),
			CRC32:       fmt.Sprintf("%08x", binary.BigEndian.Uint32(data[len(data)-4:])),
			CreatedUnix: p.CreatedUnix,
			Comment:     p.Comment,
		}
		// Signature precedence: a valid sidecar record (offline signing)
		// wins; otherwise the origin's own key signs; otherwise the
		// entry ships unsigned.
		if rec, err := profile.ReadSignature(s.Path + profile.SigExt); err == nil &&
			rec.Ref == ref && rec.SHA256 == e.SHA256 {
			e.Sig, e.SigKeyID = rec.Sig, rec.KeyID
		} else if o.opts.SigningKey != nil {
			rec := profile.Sign(o.opts.SigningKey, ref, data)
			e.Sig, e.SigKeyID = rec.Sig, rec.KeyID
		}
		blobs[e.SHA256] = data
		ix.Profiles = append(ix.Profiles, e)
	}
	if o.opts.SigningKey != nil {
		ix.Sign(o.opts.SigningKey)
	}
	encoded, err := ix.Encode()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(encoded)
	return &builtIndex{
		index:   ix,
		encoded: encoded,
		etag:    `"` + hex.EncodeToString(sum[:16]) + `"`,
		loads:   loads,
		blobs:   blobs,
	}, nil
}

// ServeHTTP routes the three protocol endpoints.
func (o *Origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == IndexPath:
		o.serveIndex(w, r)
	case strings.HasPrefix(r.URL.Path, BlobPathPrefix):
		o.serveBlob(w, r)
	case r.URL.Path == PushPath:
		o.servePush(w, r)
	default:
		httpError(w, http.StatusNotFound, "not_found", "unknown hub path %q", r.URL.Path)
	}
}

func (o *Origin) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "index is GET only")
		return
	}
	o.mu.Lock()
	b, err := o.refresh()
	o.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "index_unavailable", "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", b.etag)
	// ServeContent handles If-None-Match → 304 and (irrelevantly small
	// here) range requests; the zero modtime disables time-based
	// validation so the ETag is the single source of truth.
	http.ServeContent(w, r, "index.json", time.Time{}, bytes.NewReader(b.encoded))
}

func (o *Origin) serveBlob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "blobs are GET only")
		return
	}
	sha := strings.TrimPrefix(r.URL.Path, BlobPathPrefix)
	if err := validateSHA256(sha); err != nil {
		httpError(w, http.StatusBadRequest, "bad_blob_ref", "%v", err)
		return
	}
	// The last build's bytes, which hash to the sha256 the index listed.
	data, ok := o.built.Load().blobs[sha]
	if !ok {
		httpError(w, http.StatusNotFound, "unknown_blob", "no blob %s in index", sha)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("ETag", `"`+sha+`"`)
	// Content-addressed blobs are immutable, so the zero modtime +
	// sha ETag give correct revalidation, and ServeContent's Range
	// support is what makes client pulls resumable.
	http.ServeContent(w, r, sha, time.Time{}, bytes.NewReader(data))
}

// servePush accepts one encoded profile, validates it end to end, and
// publishes it into the directory. Versions are immutable: re-pushing the
// bytes the index lists for a name@version is an idempotent success, and
// other bytes under it, or a damaged file at its canonical name, a 409.
func (o *Origin) servePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "method_not_allowed", "push is POST only")
		return
	}
	if o.opts.PushKey != "" && r.Header.Get("X-Hub-Push-Key") != o.opts.PushKey {
		httpError(w, http.StatusForbidden, "push_key_required", "push requires the origin's push key")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBlobBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "blob_too_large", "%v", err)
		return
	}
	p, err := profile.Decode(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad_profile", "pushed bytes are not a valid profile: %v", err)
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	b, err := o.refresh()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "index_unavailable", "%v", err)
		return
	}
	if e, err := b.index.Resolve(p.Name, p.Version); err == nil {
		if e.SHA256 == profile.BlobSHA256(data) {
			writePushResponse(w, http.StatusOK, p, data)
			return
		}
		httpError(w, http.StatusConflict, "version_conflict",
			"%s already published with different bytes; versions are immutable, push a new version", p.Ref())
		return
	}
	path := filepath.Join(o.opts.Dir, p.FileName())
	if _, err := os.Lstat(path); err == nil {
		httpError(w, http.StatusConflict, "version_conflict",
			"%s is in the directory but does not load; push a new version", p.FileName())
		return
	}
	if err := profile.WriteFileAtomic(path, data); err != nil {
		httpError(w, http.StatusInternalServerError, "publish_failed", "%v", err)
		return
	}
	// An offline signature may ride along in headers; it lands as the
	// sidecar the next index build picks up (and prefers over origin
	// signing). A malformed one fails the push — publishing a blob while
	// dropping its signature would downgrade it to unsigned silently.
	if sig := r.Header.Get("X-Hub-Sig"); sig != "" {
		rec, err := parsePushSignature(r, p.Ref(), data)
		if err != nil {
			os.Remove(path)
			httpError(w, http.StatusBadRequest, "bad_signature", "%v", err)
			return
		}
		if err := rec.WriteFile(path + profile.SigExt); err != nil {
			os.Remove(path)
			httpError(w, http.StatusInternalServerError, "publish_failed", "%v", err)
			return
		}
	}
	writePushResponse(w, http.StatusCreated, p, data)
}

// parsePushSignature reconstructs a signature record from the push
// headers (X-Hub-Sig: base64 signature, X-Hub-Sig-Key-Id: key id).
func parsePushSignature(r *http.Request, ref string, data []byte) (*profile.SignatureRecord, error) {
	raw, err := base64.StdEncoding.DecodeString(r.Header.Get("X-Hub-Sig"))
	if err != nil {
		return nil, fmt.Errorf("X-Hub-Sig: %w", err)
	}
	if len(raw) != ed25519.SignatureSize {
		return nil, fmt.Errorf("X-Hub-Sig is %d bytes, want %d", len(raw), ed25519.SignatureSize)
	}
	return &profile.SignatureRecord{
		Ref:    ref,
		SHA256: profile.BlobSHA256(data),
		KeyID:  r.Header.Get("X-Hub-Sig-Key-Id"),
		Sig:    raw,
	}, nil
}

func writePushResponse(w http.ResponseWriter, status int, p *profile.Profile, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"ref":    p.Ref(),
		"sha256": profile.BlobSHA256(data),
		"size":   len(data),
	})
}

// httpError mirrors the serving layer's JSON error envelope so hub and
// codec endpoints read the same on the wire.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status": status,
		"error":  map[string]string{"code": code, "message": fmt.Sprintf(format, args...)},
	})
}
