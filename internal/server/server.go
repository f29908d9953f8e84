// Package server implements the multi-tenant HTTP front end of the
// DeepN-JPEG codec. The paper pitches the framework for large-scale
// image transmission and storage between edge sensors and cloud DNN
// inference; this package is the network boundary of that story: a
// small JSON/HTTP service that dispatches every request through the
// same pooled codec hot paths the batch API uses, with per-tenant
// concurrency limits and request accounting so one caller cannot
// starve the rest.
//
// Endpoints:
//
//	POST /v1/encode      raw image (PNG/PPM/PGM) → DeepN-JPEG stream
//	POST /v1/decode      JPEG → PNG/PPM/PGM pixels
//	POST /v1/requantize  JPEG → JPEG re-targeted in the coefficient domain
//	POST /v1/batch       multipart: many items through the worker pool
//	GET  /healthz        liveness + uptime
//	GET  /metrics        expvar-style JSON counters
//
// The three single-image routes and every /v1/batch part run the same
// per-verb operation (opFor); a batch picks its verb with ?op=.
//
// Request options travel as query parameters (?quality=, ?profile=,
// ?subsampling=, ?optimize=, ?restart=, ?format=, ?strip_metadata=,
// ?op=); errors come back as structured
// JSON ({"error":{"code","message"},"status"}). Authentication is a
// static API-key table (X-API-Key or Authorization: Bearer); a server
// constructed without keys runs open with a single anonymous tenant.
package server

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"image/png"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/imgutil"
	"repro/internal/jpegcodec"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/profilehub"
	"repro/internal/qtable"
)

// servingProfile is the immutable default-serving state one atomic
// pointer swap publishes: the restored framework plus the identity
// /healthz and /metrics report. Name is empty when the server runs on an
// in-memory Framework rather than a persisted profile.
type servingProfile struct {
	fw      *core.Framework
	name    string
	version uint32
}

// Options configures a Server. Either Framework or a ProfileDir with a
// DefaultProfile is required; every other field has a serving-safe
// default.
type Options struct {
	// Framework supplies the calibrated tables the unqualified
	// encode/requantize paths use. Optional when DefaultProfile names a
	// profile to serve instead.
	Framework *core.Framework
	// ProfileDir, when set, loads a registry of persisted calibration
	// profiles (*.dnp) the server resolves ?profile= references and
	// per-tenant defaults against. Construction fails if any file in the
	// directory is corrupt — a server must not boot over a damaged
	// artifact store — while runtime reloads are lenient and keep
	// serving the healthy remainder.
	ProfileDir string
	// DefaultProfile selects the profile ("name" or "name@version") the
	// server boots with instead of Framework; requires ProfileDir. A
	// reload re-resolves it, hot-swapping the default tables without
	// disturbing in-flight requests.
	DefaultProfile string
	// ProfileWatch, when positive, polls ProfileDir at this interval and
	// hot-reloads the registry when files change. The watcher stops at
	// Shutdown.
	ProfileWatch time.Duration
	// HubOrigin, when set, attaches a profile-hub client to the registry:
	// a profile reference that misses locally is pulled from this origin
	// on first use (including the boot-time DefaultProfile resolution, so
	// a server can start against an empty ProfileDir), and each
	// ProfileWatch tick syncs newly published profiles down before the
	// normal directory rescan. Requires ProfileDir.
	HubOrigin string
	// HubCacheDir is the hub client's local content-addressed cache
	// (default: <ProfileDir>/.hub-cache). Cached blobs keep the server
	// booting and serving through origin outages.
	HubCacheDir string
	// HubTrustedKey, when set, requires the hub index and every pulled
	// profile to carry a valid Ed25519 signature under this key.
	HubTrustedKey ed25519.PublicKey
	// HubFetchTimeout bounds one lazy miss-triggered hub fetch
	// (default 30s).
	HubFetchTimeout time.Duration
	// AdminKey, when set, is required (as X-API-Key or Bearer token) by
	// the /admin/* endpoints in addition to normal tenant admission, so
	// ordinary codec tenants cannot trigger reloads. Empty leaves admin
	// endpoints behind the ordinary tenant gate only — acceptable for
	// development, not for multi-tenant production.
	AdminKey string
	// MaxBodyBytes caps request bodies (default 32 MiB); larger bodies
	// answer 413.
	MaxBodyBytes int64
	// MaxPixels caps the declared dimensions of any image the server
	// decodes or parses (default 1<<24). A tiny hostile body can declare
	// a multi-gigabyte frame; this bound rejects it before allocation.
	MaxPixels int
	// BatchWorkers sizes the worker pool of one /v1/batch request;
	// ≤ 0 selects GOMAXPROCS.
	BatchWorkers int
	// MaxBatchItems caps the part count of a /v1/batch request
	// (default 256).
	MaxBatchItems int
	// Tenants maps API keys to per-tenant limits. Empty means the server
	// runs open: every request shares one anonymous tenant.
	Tenants map[string]TenantConfig
	// MaxInFlight is the per-tenant concurrent-request cap applied when
	// a TenantConfig doesn't set its own (default 16).
	MaxInFlight int
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxPixels <= 0 {
		o.MaxPixels = 1 << 24
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 256
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 16
	}
	return o
}

// Server is the HTTP codec service. Construct with New, mount Handler
// (or call Serve/ListenAndServe), stop with Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	tenants map[string]*tenant // keyed by API key
	anon    *tenant            // the open-access tenant when no keys are set
	admin   *tenant            // implicit tenant behind Options.AdminKey

	// registry serves persisted calibration profiles when ProfileDir is
	// set; serving holds the current default table set. Handlers load the
	// pointer once per request, so a concurrent hot reload swaps what
	// later requests see while in-flight ones finish on the snapshot they
	// started with.
	registry   *profile.Registry
	hub        *profilehub.Client
	defaultRef string
	serving    atomic.Pointer[servingProfile]
	stopWatch  context.CancelFunc

	mu      sync.Mutex
	httpSrv *http.Server

	start time.Time

	// Process-wide counters; per-tenant counts live on each tenant.
	requests expvar.Int
	rejected expvar.Int
	failures expvar.Int
	bytesIn  expvar.Int
	bytesOut expvar.Int
	inFlight expvar.Int
	metrics  *expvar.Map // the whole /metrics document

	// Profile-watcher health, fed by the registry's onReload callback and
	// surfaced in the profile block of /healthz and /metrics: reload
	// errors and persistent scan failures land here, so a watcher gone
	// blind is an operator-visible condition rather than a silent retry
	// loop.
	watchErrs    expvar.Int
	lastWatchErr atomic.Value // string

	// bufPool recycles response-sized scratch buffers across requests so
	// the pooled, allocation-light codec paths survive the network
	// boundary instead of drowning in per-request buffers.
	bufPool sync.Pool
	// decPool recycles decoder working sets for /v1/decode and
	// /v1/requantize.
	decPool sync.Pool
	// imgPool recycles decoded RGB images; pixels are written to the
	// response before the image returns to the pool.
	imgPool sync.Pool
}

// New validates opts, fills defaults and builds the route table.
func New(opts Options) (*Server, error) {
	if opts.Framework == nil && opts.DefaultProfile == "" {
		return nil, errors.New("server: Options.Framework or Options.DefaultProfile is required")
	}
	if opts.DefaultProfile != "" && opts.ProfileDir == "" {
		return nil, errors.New("server: Options.DefaultProfile requires Options.ProfileDir")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		tenants: make(map[string]*tenant, len(opts.Tenants)),
		start:   time.Now(),
	}
	if opts.ProfileDir != "" {
		reg, err := profile.OpenRegistry(opts.ProfileDir)
		if err != nil {
			return nil, fmt.Errorf("server: loading profile directory: %w", err)
		}
		s.registry = reg
	}
	if opts.HubOrigin != "" {
		if s.registry == nil {
			return nil, errors.New("server: Options.HubOrigin requires Options.ProfileDir")
		}
		cacheDir := opts.HubCacheDir
		if cacheDir == "" {
			cacheDir = filepath.Join(opts.ProfileDir, ".hub-cache")
		}
		hub, err := profilehub.NewClient(profilehub.ClientOptions{
			Origin:         opts.HubOrigin,
			CacheDir:       cacheDir,
			TrustedKey:     opts.HubTrustedKey,
			RequestTimeout: opts.HubFetchTimeout,
		})
		if err != nil {
			return nil, fmt.Errorf("server: hub client: %w", err)
		}
		s.hub = hub
		// Attached before the DefaultProfile resolution below, so a fleet
		// node with an empty profile directory lazily pulls its serving
		// profile at boot.
		s.registry.AttachSource(hub, opts.HubFetchTimeout)
	}
	s.defaultRef = opts.DefaultProfile
	if s.defaultRef != "" {
		fw, p, err := s.registry.ResolveFramework(s.defaultRef)
		if err != nil {
			return nil, fmt.Errorf("server: resolving default profile: %w", err)
		}
		s.serving.Store(&servingProfile{fw: fw, name: p.Name, version: p.Version})
	} else {
		s.serving.Store(&servingProfile{fw: opts.Framework})
	}
	s.bufPool.New = func() any { return new(bytes.Buffer) }
	s.decPool.New = func() any { return new(jpegcodec.Decoded) }
	s.imgPool.New = func() any { return new(imgutil.RGB) }

	tenantVars := new(expvar.Map).Init()
	for key, cfg := range opts.Tenants {
		name := cfg.Name
		if name == "" {
			name = key
		}
		limit := cfg.MaxInFlight
		if limit <= 0 {
			limit = opts.MaxInFlight
		}
		if cfg.Profile != "" {
			if s.registry == nil {
				return nil, fmt.Errorf("server: tenant %q pins profile %q but no ProfileDir is configured", name, cfg.Profile)
			}
			if _, err := s.registry.Resolve(cfg.Profile); err != nil {
				return nil, fmt.Errorf("server: tenant %q: %w", name, err)
			}
		}
		t := newTenant(name, limit, cfg.Profile)
		s.tenants[key] = t
		tenantVars.Set(name, t.vars)
	}
	if len(s.tenants) == 0 {
		s.anon = newTenant("anonymous", opts.MaxInFlight, "")
		tenantVars.Set("anonymous", s.anon.vars)
	}
	if opts.AdminKey != "" {
		if _, clash := s.tenants[opts.AdminKey]; clash {
			return nil, errors.New("server: Options.AdminKey collides with a tenant API key")
		}
		s.admin = newTenant("admin", opts.MaxInFlight, "")
		tenantVars.Set("admin", s.admin.vars)
	}

	m := new(expvar.Map).Init()
	m.Set("uptime_seconds", expvar.Func(func() any {
		return time.Since(s.start).Seconds()
	}))
	m.Set("requests", &s.requests)
	m.Set("rejected", &s.rejected)
	m.Set("failures", &s.failures)
	m.Set("bytes_in", &s.bytesIn)
	m.Set("bytes_out", &s.bytesOut)
	m.Set("in_flight", &s.inFlight)
	m.Set("tenants", tenantVars)
	m.Set("profile", expvar.Func(func() any { return s.profileStatus() }))
	s.metrics = m

	for _, verb := range []string{"encode", "decode", "requantize"} {
		s.mux.HandleFunc("/v1/"+verb, s.endpoint(s.handleItem(verb)))
	}
	s.mux.HandleFunc("/v1/batch", s.endpoint(s.handleBatch))
	s.mux.HandleFunc("/admin/profiles/reload", s.endpoint(s.handleProfileReload))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)

	// The watcher starts only once every validation above has passed, so
	// a failed New never leaks a polling goroutine.
	if s.registry != nil && opts.ProfileWatch > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopWatch = cancel
		go s.registry.Watch(ctx, opts.ProfileWatch, func(_ int, err error) {
			if err != nil {
				s.watchErrs.Add(1)
				s.lastWatchErr.Store(err.Error())
			}
			s.reresolveDefault()
		})
	}
	return s, nil
}

// ServingProfile reports the default table set currently being served:
// the profile's name and version (empty/0 when the server runs on an
// in-memory calibration) plus the restored framework's calibration size.
func (s *Server) ServingProfile() (name string, version uint32, sampled int) {
	sp := s.serving.Load()
	return sp.name, sp.version, sp.fw.SampledCount
}

// profileStatus is the profile block /healthz and /metrics share: which
// default table set is serving and how many registry (re)loads have run.
// An empty name means the server runs on an in-memory calibration rather
// than a persisted profile.
func (s *Server) profileStatus() map[string]any {
	sp := s.serving.Load()
	var loads int64
	if s.registry != nil {
		loads = s.registry.Loads()
	}
	status := map[string]any{
		"name":    sp.name,
		"version": sp.version,
		"loads":   loads,
	}
	if n := s.watchErrs.Value(); n > 0 {
		status["watch_errors"] = n
		if msg, _ := s.lastWatchErr.Load().(string); msg != "" {
			status["last_watch_error"] = msg
		}
	}
	if s.hub != nil {
		hs := s.hub.Stats()
		status["hub"] = map[string]any{
			"origin":             s.opts.HubOrigin,
			"index_fetches":      hs.IndexFetches,
			"index_not_modified": hs.IndexNotModified,
			"index_fallbacks":    hs.IndexFallbacks,
			"blob_fetches":       hs.BlobFetches,
			"blob_cache_hits":    hs.BlobCacheHits,
			"retries":            hs.Retries,
			"verify_failures":    hs.VerifyFailures,
		}
	}
	return status
}

// reresolveDefault re-resolves the default profile reference after a
// registry reload and publishes the fresh framework with one atomic
// swap. In-flight requests keep the snapshot they loaded; if the default
// no longer resolves (its file was removed), the previous snapshot keeps
// serving, so a bad deploy degrades to "stale tables", never to downtime.
func (s *Server) reresolveDefault() error {
	if s.defaultRef == "" || s.registry == nil {
		return nil
	}
	fw, p, err := s.registry.ResolveFramework(s.defaultRef)
	if err != nil {
		return err
	}
	s.serving.Store(&servingProfile{fw: fw, name: p.Name, version: p.Version})
	return nil
}

// frameworkFor selects the table set one request runs against, in
// precedence order: the ?profile= query parameter, the tenant's pinned
// profile, the server default. Unknown references answer 404 with the
// JSON error envelope; malformed ones 400.
func (s *Server) frameworkFor(q url.Values, t *tenant) (*core.Framework, error) {
	ref := q.Get("profile")
	if ref == "" {
		ref = t.profileRef
	}
	if ref == "" {
		return s.serving.Load().fw, nil
	}
	if s.registry == nil {
		return nil, errf(http.StatusNotFound, "unknown_profile",
			"profile %q requested but the server has no profile directory", ref)
	}
	fw, _, err := s.registry.ResolveFramework(ref)
	if err != nil {
		if errors.Is(err, profile.ErrNotFound) {
			return nil, errf(http.StatusNotFound, "unknown_profile", "%v", err)
		}
		return nil, errf(http.StatusBadRequest, "bad_profile", "%v", err)
	}
	return fw, nil
}

// handleProfileReload is the admin endpoint behind hot reloads: rescan
// the profile directory, re-resolve the default, and report what is now
// serving. Per-file failures are reported but do not abort the reload —
// the healthy profiles still swap in.
func (s *Server) handleProfileReload(w http.ResponseWriter, r *http.Request, t *tenant) error {
	if s.opts.AdminKey != "" && requestKey(r) != s.opts.AdminKey {
		return errf(http.StatusForbidden, "admin_key_required",
			"admin endpoints require the configured admin key")
	}
	if s.registry == nil {
		return errf(http.StatusNotFound, "no_profile_registry",
			"the server was started without a profile directory")
	}
	n, reloadErr := s.registry.Reload()
	resolveErr := s.reresolveDefault()
	resp := map[string]any{
		"profiles": n,
		"loads":    s.registry.Loads(),
		"profile":  s.profileStatus(),
	}
	var problems []string
	if reloadErr != nil {
		problems = append(problems, reloadErr.Error())
	}
	if resolveErr != nil {
		problems = append(problems, fmt.Sprintf("default profile %q: %v", s.defaultRef, resolveErr))
	}
	if len(problems) > 0 {
		resp["errors"] = problems
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(resp)
}

// Handler returns the route table for mounting under an external
// http.Server (httptest, custom TLS, shared mux).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	return srv.Serve(l)
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown gracefully stops a Serve/ListenAndServe server: the listener
// closes immediately, in-flight requests run to completion (or until ctx
// expires), and idle keep-alive connections are closed. A server that
// never served is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.stopWatch != nil {
		s.stopWatch()
	}
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// apiError is an error with an HTTP status and a stable machine code.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// writeError emits the structured JSON error envelope every non-2xx
// response uses.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status": status,
		"error":  map[string]string{"code": code, "message": msg},
	})
}

// writeAPIError classifies err into the JSON envelope: apiErrors keep
// their status, body-limit errors become 413, recognized-but-unsupported
// JPEG coding processes (arithmetic, lossless, hierarchical) become 415,
// everything else 400 (the codec only fails on bad input).
func writeAPIError(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeError(w, ae.status, ae.code, ae.msg)
		return
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error())
		return
	}
	var ufe *jpegcodec.UnsupportedFormatError
	if errors.As(err, &ufe) {
		writeError(w, http.StatusUnsupportedMediaType, "unsupported_format", err.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "bad_input", err.Error())
}

// statusWriter records the response status and body size for accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.n += int64(n)
	return n, err
}

// requestKey extracts the API key of a request (X-API-Key, or an
// Authorization: Bearer token).
func requestKey(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		return key
	}
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimPrefix(auth, "Bearer ")
	}
	return ""
}

// resolveTenant authenticates the request against the API-key table.
// The admin key (when configured) admits its own implicit tenant, so an
// operator does not need a codec tenancy to hit /admin endpoints.
func (s *Server) resolveTenant(r *http.Request) (*tenant, *apiError) {
	key := requestKey(r)
	if s.admin != nil && key == s.opts.AdminKey {
		return s.admin, nil
	}
	if s.anon != nil {
		return s.anon, nil
	}
	if key == "" {
		return nil, errf(http.StatusUnauthorized, "missing_api_key",
			"set X-API-Key or Authorization: Bearer <key>")
	}
	t, ok := s.tenants[key]
	if !ok {
		return nil, errf(http.StatusUnauthorized, "unknown_api_key", "API key not recognized")
	}
	return t, nil
}

// endpoint wraps a codec handler with the request lifecycle every /v1
// route shares: POST-only, authentication, the tenant concurrency gate,
// the body-size cap, and byte/status accounting.
func (s *Server) endpoint(fn func(http.ResponseWriter, *http.Request, *tenant) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s only accepts POST", r.URL.Path))
			return
		}
		t, ae := s.resolveTenant(r)
		if ae != nil {
			writeError(w, ae.status, ae.code, ae.msg)
			return
		}
		if !t.tryAcquire() {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "tenant_over_limit",
				fmt.Sprintf("tenant %q has reached its in-flight request limit", t.name))
			return
		}
		defer t.release()
		s.requests.Add(1)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)

		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		sw := &statusWriter{ResponseWriter: w}
		if err := fn(sw, r, t); err != nil {
			if sw.status == 0 { // nothing written yet: emit the envelope
				writeAPIError(sw, err)
			}
		}
		if sw.status >= 400 {
			s.failures.Add(1)
			t.failed.Add(1)
		}
		s.bytesOut.Add(sw.n)
		t.bytesOut.Add(sw.n)
	}
}

// readBody drains the (size-capped) request body and accounts it.
func (s *Server) readBody(r *http.Request, t *tenant) ([]byte, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	s.bytesIn.Add(int64(len(body)))
	t.bytesIn.Add(int64(len(body)))
	if len(body) == 0 {
		return nil, errf(http.StatusBadRequest, "empty_body", "request body is empty")
	}
	return body, nil
}

// --- per-request option parsing -----------------------------------------

func parseBoolParam(q url.Values, name string, def bool) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, errf(http.StatusBadRequest, "bad_"+name, "%s=%q is not a boolean", name, v)
	}
	return b, nil
}

// parseQuality returns the quality factor and whether one was given at
// all; absent means "use the calibrated DeepN-JPEG tables".
func parseQuality(q url.Values) (int, bool, error) {
	v := q.Get("quality")
	if v == "" {
		return 0, false, nil
	}
	qf, err := strconv.Atoi(v)
	if err != nil || qf < 1 || qf > 100 {
		return 0, false, errf(http.StatusBadRequest, "bad_quality",
			"quality=%q must be an integer in [1,100]", v)
	}
	return qf, true, nil
}

// tablesFor picks the quantization tables of an encode or requantize
// request: the framework's calibrated tables, or the Annex-K tables
// scaled to ?quality= (parseQuality bounds it to the range Scale takes).
func tablesFor(fw *core.Framework, q url.Values) (luma, chroma qtable.Table, err error) {
	qf, ok, err := parseQuality(q)
	if err != nil || !ok {
		return fw.LumaTable, fw.ChromaTable, err
	}
	return qtable.MustScale(qtable.StdLuminance, qf), qtable.MustScale(qtable.StdChrominance, qf), nil
}

// encodeOptions assembles the encoder configuration of one request.
func encodeOptions(fw *core.Framework, q url.Values) (o jpegcodec.Options, err error) {
	if o.LumaTable, o.ChromaTable, err = tablesFor(fw, q); err != nil {
		return o, err
	}
	if v := q.Get("subsampling"); v != "" {
		if o.Subsampling, err = jpegcodec.ParseSubsampling(v); err != nil {
			return o, errf(http.StatusBadRequest, "bad_subsampling",
				"subsampling=%q is not one of 420, 444, 422, 440, 411", v)
		}
	}
	if o.OptimizeHuffman, err = parseBoolParam(q, "optimize", false); err != nil {
		return o, err
	}
	// Restart sharding is the codec's own choice: one request saturating
	// every core is fine when the box is idle, and under concurrent load
	// the scheduler time-slices the segment goroutines like any other
	// work.
	o.RestartInterval, err = parseRestartParam(q, false)
	return o, err
}

// requantizeOptions assembles the requantizer configuration of one
// request; unlike encode, it optimizes Huffman tables by default.
func requantizeOptions(fw *core.Framework, q url.Values) (o jpegcodec.Options, err error) {
	if o.LumaTable, o.ChromaTable, err = tablesFor(fw, q); err != nil {
		return o, err
	}
	if o.OptimizeHuffman, err = parseBoolParam(q, "optimize", true); err != nil {
		return o, err
	}
	if o.RestartInterval, err = parseRestartParam(q, true); err != nil {
		return o, err
	}
	o.StripMetadata, err = parseBoolParam(q, "strip_metadata", false)
	return o, err
}

// parseRestartParam reads the ?restart= query parameter, the output
// restart interval in MCUs. Encode treats 0 (the default) as "no restart
// markers"; requantize (allowNegative) treats 0 as "preserve the
// source's interval" and -1 as "strip restart markers".
func parseRestartParam(q url.Values, allowNegative bool) (int, error) {
	v := q.Get("restart")
	if v == "" {
		return 0, nil
	}
	lo := 0
	if allowNegative {
		lo = -1
	}
	ri, err := strconv.Atoi(v)
	if err != nil || ri < lo || ri > 0xFFFF {
		return 0, errf(http.StatusBadRequest, "bad_restart",
			"restart=%q must be an integer in [%d,65535]", v, lo)
	}
	return ri, nil
}

type outputFormat struct {
	name        string // png, ppm, pgm
	contentType string
}

func parseFormat(q url.Values) (outputFormat, error) {
	switch v := q.Get("format"); v {
	case "", "png":
		return outputFormat{"png", "image/png"}, nil
	case "ppm":
		return outputFormat{"ppm", "image/x-portable-pixmap"}, nil
	case "pgm":
		return outputFormat{"pgm", "image/x-portable-graymap"}, nil
	default:
		return outputFormat{}, errf(http.StatusBadRequest, "bad_format",
			"format=%q is not one of png, ppm, pgm", v)
	}
}

// --- image parsing ------------------------------------------------------

var pngMagic = []byte{0x89, 'P', 'N', 'G'}

// parseImage sniffs and decodes a PNG/PPM/PGM body, enforcing the
// declared-dimension cap before any pixel buffer is allocated.
func (s *Server) parseImage(body []byte) (*imgutil.RGB, error) {
	switch {
	case bytes.HasPrefix(body, pngMagic):
		cfg, err := png.DecodeConfig(bytes.NewReader(body))
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad_image", "invalid PNG header: %v", err)
		}
		if exceedsPixelCap(cfg.Width, cfg.Height, s.opts.MaxPixels) {
			return nil, errf(http.StatusBadRequest, "image_too_large",
				"%dx%d exceeds the %d-pixel limit", cfg.Width, cfg.Height, s.opts.MaxPixels)
		}
		img, err := png.Decode(bytes.NewReader(body))
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad_image", "invalid PNG: %v", err)
		}
		return imgutil.FromImage(img), nil
	case bytes.HasPrefix(body, []byte("P6")):
		if err := s.checkPNMDims(body); err != nil {
			return nil, err
		}
		img, err := imgutil.ReadPPM(bytes.NewReader(body))
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad_image", "invalid PPM: %v", err)
		}
		return img, nil
	case bytes.HasPrefix(body, []byte("P5")):
		if err := s.checkPNMDims(body); err != nil {
			return nil, err
		}
		g, err := imgutil.ReadPGM(bytes.NewReader(body))
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad_image", "invalid PGM: %v", err)
		}
		return g.ToRGB(), nil
	default:
		return nil, errf(http.StatusUnsupportedMediaType, "unsupported_image",
			"body is not PNG, PPM (P6) or PGM (P5)")
	}
}

// exceedsPixelCap reports whether a declared w×h frame is out of bounds
// for the pixel cap. Hostile headers can declare dimensions near the int
// range (a PNG field holds up to 2³¹−1), where the naive w*h product
// overflows int on 32-bit platforms and can wrap below the cap — so each
// dimension is bounded first and the product test is phrased as a
// division, which cannot overflow for any input.
func exceedsPixelCap(w, h, maxPixels int) bool {
	if w <= 0 || h <= 0 {
		return true
	}
	return w > maxPixels || h > maxPixels || w > maxPixels/h
}

// checkPNMDims parses just the width/height tokens of a binary PNM
// header and applies the pixel cap, so a 30-byte body declaring a
// terabyte image is rejected before ReadPPM allocates for it.
func (s *Server) checkPNMDims(body []byte) error {
	// Bound the header scan generously: real headers fit well within a
	// few hundred bytes, but comment lines may legally push the
	// dimension tokens past that, so only truly unbounded headers fail.
	const maxHeaderScan = 4096
	fields := make([]int, 0, 2)
	i := 2 // past the magic
	for len(fields) < 2 && i < len(body) && i < maxHeaderScan {
		c := body[i]
		switch {
		case c == '#': // comment runs to end of line
			for i < len(body) && body[i] != '\n' {
				i++
			}
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9':
			// Consume the WHOLE run of digits even once the value is
			// known to be out of bounds: stopping mid-token would hand
			// the remaining digits to the next field and misparse the
			// header (the real height token would never be read). Values
			// that would overflow int saturate instead.
			v, saturated := 0, false
			for i < len(body) && body[i] >= '0' && body[i] <= '9' {
				if d := int(body[i] - '0'); !saturated {
					if v > (math.MaxInt-d)/10 {
						saturated = true
					} else {
						v = v*10 + d
					}
				}
				i++
			}
			if saturated {
				v = math.MaxInt
			}
			fields = append(fields, v)
		default:
			return errf(http.StatusBadRequest, "bad_image", "malformed PNM header")
		}
	}
	if len(fields) < 2 {
		return errf(http.StatusBadRequest, "bad_image", "truncated PNM header")
	}
	if exceedsPixelCap(fields[0], fields[1], s.opts.MaxPixels) {
		return errf(http.StatusBadRequest, "image_too_large",
			"%dx%d exceeds the %d-pixel limit", fields[0], fields[1], s.opts.MaxPixels)
	}
	return nil
}

// --- the codec operations -----------------------------------------------

// scratch is the reusable per-item state of one single-image request or
// one batch worker. The decoder working set and the decoded image come
// out of the server's pools on first use, so an encode holds no decode
// state; release returns them.
type scratch struct {
	rd  bytes.Reader
	dec *jpegcodec.Decoded
	img *imgutil.RGB
}

// decode reads one JPEG item into the scratch's decoder working set.
func (s *Server) decode(sc *scratch, item []byte) error {
	if sc.dec == nil {
		sc.dec = s.decPool.Get().(*jpegcodec.Decoded)
	}
	sc.rd.Reset(item)
	return jpegcodec.DecodeInto(&sc.rd, sc.dec, &jpegcodec.DecodeOptions{MaxPixels: s.opts.MaxPixels})
}

// release returns the scratch's pooled state.
func (s *Server) release(sc *scratch) {
	if sc.dec != nil {
		s.decPool.Put(sc.dec)
	}
	if sc.img != nil {
		s.imgPool.Put(sc.img)
	}
}

// op is one codec verb compiled against a request. run processes one
// item into out and, only on success, sets the item's descriptive
// headers in h: X-Image-Width and X-Image-Height on decode,
// X-Source-Bytes on requantize.
type op struct {
	contentType string
	run         func(sc *scratch, item []byte, out *bytes.Buffer, h http.Header) error
}

// opFor compiles verb (encode, decode or requantize) against the query
// parameters and the resolved framework, before the body is read, so
// configuration errors surface once. The framework is captured, so every
// item of a batch runs on the same profile snapshot even if a hot reload
// lands mid-request.
func (s *Server) opFor(verb string, fw *core.Framework, q url.Values) (op, error) {
	switch verb {
	case "encode":
		o, err := encodeOptions(fw, q)
		if err != nil {
			return op{}, err
		}
		return op{"image/jpeg", func(_ *scratch, item []byte, out *bytes.Buffer, _ http.Header) error {
			img, err := s.parseImage(item)
			if err != nil {
				return err
			}
			return jpegcodec.EncodeRGB(out, img, &o)
		}}, nil
	case "decode":
		format, err := parseFormat(q)
		if err != nil {
			return op{}, err
		}
		return op{format.contentType, func(sc *scratch, item []byte, out *bytes.Buffer, h http.Header) error {
			if err := s.decode(sc, item); err != nil {
				return err
			}
			if sc.img == nil {
				sc.img = s.imgPool.Get().(*imgutil.RGB)
			}
			sc.img = sc.dec.RGBInto(sc.img)
			if err := writeImage(out, sc.img, format); err != nil {
				return err
			}
			h.Set("X-Image-Width", strconv.Itoa(sc.img.W))
			h.Set("X-Image-Height", strconv.Itoa(sc.img.H))
			return nil
		}}, nil
	case "requantize":
		o, err := requantizeOptions(fw, q)
		if err != nil {
			return op{}, err
		}
		return op{"image/jpeg", func(sc *scratch, item []byte, out *bytes.Buffer, h http.Header) error {
			if err := s.decode(sc, item); err != nil {
				return err
			}
			if err := jpegcodec.Requantize(out, sc.dec, o.LumaTable, o.ChromaTable, &o); err != nil {
				return err
			}
			h.Set("X-Source-Bytes", strconv.Itoa(len(item)))
			return nil
		}}, nil
	default:
		return op{}, errf(http.StatusBadRequest, "bad_op",
			"op=%q is not one of encode, decode, requantize", verb)
	}
}

func writeImage(w io.Writer, img *imgutil.RGB, format outputFormat) error {
	switch format.name {
	case "png":
		return png.Encode(w, img.ToImage())
	case "ppm":
		return imgutil.WritePPM(w, img)
	case "pgm":
		return imgutil.WritePGM(w, img.ToGray())
	default:
		return fmt.Errorf("server: unknown output format %q", format.name)
	}
}

// handleItem serves the single-image route of verb: it runs the op on
// the request body and answers with its output.
func (s *Server) handleItem(verb string) func(http.ResponseWriter, *http.Request, *tenant) error {
	return func(w http.ResponseWriter, r *http.Request, t *tenant) error {
		q := r.URL.Query()
		// Decoding needs no calibrated tables, but ?profile= still
		// resolves so a bad reference fails on every route alike.
		fw, err := s.frameworkFor(q, t)
		if err != nil {
			return err
		}
		op, err := s.opFor(verb, fw, q)
		if err != nil {
			return err
		}
		body, err := s.readBody(r, t)
		if err != nil {
			return err
		}
		var sc scratch
		defer s.release(&sc)
		buf := s.bufPool.Get().(*bytes.Buffer)
		defer func() { buf.Reset(); s.bufPool.Put(buf) }()
		buf.Reset()
		if err := op.run(&sc, body, buf, w.Header()); err != nil {
			return err
		}
		w.Header().Set("Content-Type", op.contentType)
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		_, err = w.Write(buf.Bytes())
		return err
	}
}

// handleBatch reads a multipart request, fans the parts across the
// pipeline worker pool (order preserved), and answers multipart/mixed
// with one part per input in input order. Failed items come back as
// application/json error parts flagged X-Batch-Error: true; the request
// itself still answers 200 so partial progress survives.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, t *tenant) error {
	q := r.URL.Query()
	fw, err := s.frameworkFor(q, t)
	if err != nil {
		return err
	}
	verb := q.Get("op")
	if verb == "" {
		verb = "encode"
	}
	op, err := s.opFor(verb, fw, q)
	if err != nil {
		return err
	}
	ct := r.Header.Get("Content-Type")
	mt, params, err := mime.ParseMediaType(ct)
	if err != nil || !strings.HasPrefix(mt, "multipart/") {
		return errf(http.StatusBadRequest, "bad_content_type",
			"Content-Type %q is not multipart", ct)
	}
	mr := multipart.NewReader(r.Body, params["boundary"])
	var items [][]byte
	total := 0
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			// A body-cap hit surfaces here when the limit lands between
			// parts; keep it classified as 413 like every other route.
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return err
			}
			return errf(http.StatusBadRequest, "bad_multipart", "reading part %d: %v", len(items), err)
		}
		if len(items) >= s.opts.MaxBatchItems {
			part.Close()
			return errf(http.StatusRequestEntityTooLarge, "batch_too_large",
				"batch exceeds %d items", s.opts.MaxBatchItems)
		}
		data, err := io.ReadAll(part)
		part.Close()
		if err != nil {
			return fmt.Errorf("reading part %d: %w", len(items), err)
		}
		items = append(items, data)
		total += len(data)
	}
	if len(items) == 0 {
		return errf(http.StatusBadRequest, "empty_batch", "multipart body has no parts")
	}
	s.bytesIn.Add(int64(total))
	t.bytesIn.Add(int64(total))
	t.items.Add(int64(len(items)))

	scs := make([]scratch, pipeline.Workers(s.opts.BatchWorkers, len(items)))
	defer func() {
		for i := range scs {
			s.release(&scs[i])
		}
	}()
	// Each item gets its own output buffer and part header, because the
	// results of all items coexist until the answer is written.
	hdrs := make([]textproto.MIMEHeader, len(items))
	results, runErr := pipeline.MapWorker(r.Context(), len(items), s.opts.BatchWorkers,
		func(_ context.Context, wk, i int) ([]byte, error) {
			var buf bytes.Buffer
			hdrs[i] = make(textproto.MIMEHeader, 4)
			err := op.run(&scs[wk], items[i], &buf, http.Header(hdrs[i]))
			return buf.Bytes(), err
		})
	itemErrs := make(map[int]error)
	if runErr != nil {
		// Cancellation skips items without per-item errors; a partial
		// multipart answer would present them as empty successes, so the
		// whole request fails even if some items also carry errors.
		if ctxErr := r.Context().Err(); ctxErr != nil && errors.Is(runErr, ctxErr) {
			return runErr
		}
		var be *pipeline.BatchError
		if errors.As(runErr, &be) {
			for _, it := range be.Items {
				itemErrs[it.Index] = it.Err
			}
		} else {
			return runErr
		}
	}

	mw := multipart.NewWriter(w)
	defer mw.Close()
	w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	w.Header().Set("X-Batch-Items", strconv.Itoa(len(items)))
	w.Header().Set("X-Batch-Failed", strconv.Itoa(len(itemErrs)))
	for i, hdr := range hdrs {
		hdr.Set("X-Batch-Index", strconv.Itoa(i))
		if err, failed := itemErrs[i]; failed {
			hdr.Set("Content-Type", "application/json")
			hdr.Set("X-Batch-Error", "true")
			pw, werr := mw.CreatePart(hdr)
			if werr != nil {
				return werr
			}
			json.NewEncoder(pw).Encode(map[string]any{
				"index": i,
				"error": map[string]string{"code": "item_failed", "message": err.Error()},
			})
			continue
		}
		hdr.Set("Content-Type", op.contentType)
		pw, werr := mw.CreatePart(hdr)
		if werr != nil {
			return werr
		}
		if _, werr := pw.Write(results[i]); werr != nil {
			return werr
		}
	}
	return nil
}

// --- observability ------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"in_flight":      s.inFlight.Value(),
		"profile":        s.profileStatus(),
	})
}

// handleMetrics serves the expvar document assembled in New. The maps
// render themselves as JSON, matching /debug/vars conventions without
// touching the process-global expvar registry (several Servers can
// coexist in one process).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, s.metrics.String())
}
