package profile

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Registry serves the profiles of one directory, resolved by name or
// name@version references. It is safe for concurrent use: lookups take a
// read lock over an immutable snapshot, and Reload swaps a freshly
// scanned snapshot in atomically, so requests holding frameworks from
// the previous snapshot keep serving with them — a hot reload never
// disturbs in-flight work.
type Registry struct {
	dir string

	mu          sync.RWMutex
	entries     map[string]map[uint32]*entry // name → version → entry
	fingerprint string

	loads atomic.Int64 // successful scan passes (initial load counts)

	// source, when attached, backfills resolve misses and Watch-tick
	// syncs from a remote hub; fetchMu single-flights miss fetches.
	source  Source
	fetchMu sync.Mutex
}

// entry pairs a loaded profile with its source file, the bytes it was
// decoded from and a lazily built, cached framework, so per-request
// profile selection does not pay the restore cost on every request.
type entry struct {
	profile *Profile
	data    []byte
	path    string
	modTime time.Time
	size    int64
	crc     uint32 // stored trailing CRC32 at load time

	once  sync.Once
	fw    *core.Framework
	fwErr error
}

func (e *entry) framework() (*core.Framework, error) {
	e.once.Do(func() { e.fw, e.fwErr = e.profile.Framework() })
	return e.fw, e.fwErr
}

// OpenRegistry scans dir for profile files (*.dnp) and returns the
// registry serving them. The directory must exist; an empty directory is
// a valid (empty) registry. Files that fail to decode are skipped and
// reported through the returned error while every readable profile still
// loads — a single corrupt artifact must not take down serving.
func OpenRegistry(dir string) (*Registry, error) {
	r := &Registry{dir: dir}
	_, err := r.Reload()
	return r, err
}

// Loads reports how many successful scan passes the registry has run —
// the profile-(re)load counter surfaced by the serving layer.
func (r *Registry) Loads() int64 { return r.loads.Load() }

// Reload rescans the directory and atomically swaps the served snapshot.
// It returns the number of profiles now served. Per-file decode failures
// and duplicate name@version pairs (ErrDuplicateRef; the first file in
// name order serves) are joined into the error while the healthy remainder
// is still swapped in; the error is nil only when every file loaded
// cleanly. Entries whose file is unchanged (same path, size,
// mtime and stored CRC32) carry their cached framework over, so a reload
// is cheap and in-flight requests see either the old or the new snapshot,
// never a mix.
func (r *Registry) Reload() (int, error) {
	_, n, err := r.refresh(true)
	return n, err
}

// Refresh is one poll step: a rescan, and a reload from that same scan
// when its fingerprint moved. It reports whether it reloaded, with
// Reload's results; a scan failure reports false and its error.
func (r *Registry) Refresh() (reloaded bool, n int, err error) {
	return r.refresh(false)
}

// refresh scans the directory and, when forced or when the fingerprint
// moved, swaps in the snapshot the scan describes.
func (r *Registry) refresh(force bool) (bool, int, error) {
	files, fingerprint, err := r.scanDir()
	if err != nil {
		return false, 0, err
	}
	r.mu.RLock()
	prev, changed := r.entries, fingerprint != r.fingerprint
	r.mu.RUnlock()
	if !force && !changed {
		return false, 0, nil
	}

	next := make(map[string]map[uint32]*entry)
	var errs []error
	n := 0
	for _, f := range files {
		path := filepath.Join(r.dir, f.name)
		e := reuseEntry(prev, path, f)
		if e == nil {
			p, data, err := readFile(path)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			e = &entry{profile: p, data: data, path: path, modTime: f.modTime, size: f.size, crc: f.crc}
		}
		byVersion := next[e.profile.Name]
		if byVersion == nil {
			byVersion = make(map[uint32]*entry)
			next[e.profile.Name] = byVersion
		}
		if dup, ok := byVersion[e.profile.Version]; ok {
			errs = append(errs, fmt.Errorf("%w: %s and %s both declare %s",
				ErrDuplicateRef, dup.path, path, e.profile.Ref()))
			continue
		}
		byVersion[e.profile.Version] = e
		n++
	}

	r.mu.Lock()
	r.entries = next
	r.fingerprint = fingerprint
	r.mu.Unlock()
	r.loads.Add(1)
	return true, n, errors.Join(errs...)
}

// scannedFile is one profile file as observed by a directory scan.
type scannedFile struct {
	name    string
	size    int64
	modTime time.Time
	crc     uint32
}

// scanDir lists the profile files of the directory in file-name order
// plus a fingerprint of their (name, size, mtime, stored CRC32) tuples,
// and of the (name, size, mtime) tuples of signature sidecars, which a
// hub origin publishes. The CRC — the trailing four bytes every profile
// file carries — is what catches a same-size rewrite landing within the
// file system's mtime granularity, which size and mtime alone cannot see.
func (r *Registry) scanDir() ([]scannedFile, string, error) {
	dirents, err := os.ReadDir(r.dir) // sorted by file name
	if err != nil {
		return nil, "", err
	}
	var files []scannedFile
	var fp strings.Builder
	for _, de := range dirents {
		name := de.Name()
		isProfile := strings.HasSuffix(name, Ext)
		if de.IsDir() || !isProfile && !strings.HasSuffix(name, Ext+SigExt) {
			continue
		}
		f := scannedFile{name: name}
		if info, err := de.Info(); err == nil {
			f.size, f.modTime = info.Size(), info.ModTime()
		}
		if !isProfile {
			fmt.Fprintf(&fp, "%s|%d|%d\n", f.name, f.size, f.modTime.UnixNano())
			continue
		}
		f.crc = storedCRC(filepath.Join(r.dir, name))
		files = append(files, f)
		fmt.Fprintf(&fp, "%s|%d|%d|%08x\n", f.name, f.size, f.modTime.UnixNano(), f.crc)
	}
	return files, fp.String(), nil
}

// storedCRC reads the trailing CRC32 of one profile file. Unreadable or
// too-short files report 0 — their real problem surfaces with a precise
// error when Reload decodes them.
func storedCRC(path string) uint32 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() < 4 {
		return 0
	}
	var buf [4]byte
	if _, err := f.ReadAt(buf[:], st.Size()-4); err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(buf[:])
}

// reuseEntry returns the previous snapshot's entry for path when the file
// is unchanged (size, mtime and stored CRC32 all match), preserving its
// cached framework.
func reuseEntry(prev map[string]map[uint32]*entry, path string, f scannedFile) *entry {
	for _, byVersion := range prev {
		for _, e := range byVersion {
			if e.path == path && e.size == f.size && e.modTime.Equal(f.modTime) && e.crc == f.crc {
				return e
			}
		}
	}
	return nil
}

// resolve finds the entry a reference names, consulting the attached
// source (lazy pull) when the reference misses locally. A bare name that
// resolves to some local version never fetches — periodic sync is what
// brings newer versions in — so the hot path stays local.
func (r *Registry) resolve(ref string) (*entry, error) {
	e, err := r.resolveLocal(ref)
	if err != nil && errors.Is(err, ErrNotFound) && r.source != nil {
		name, version, _, perr := ParseRef(ref)
		if perr != nil {
			return nil, perr
		}
		return r.fetchMiss(ref, name, version)
	}
	return e, err
}

// resolveLocal finds the entry a reference names in the current local
// snapshot: an explicit name@version, or the highest version under a
// bare name.
func (r *Registry) resolveLocal(ref string) (*entry, error) {
	name, version, hasVersion, err := ParseRef(ref)
	if err != nil {
		return nil, err
	}
	r.mu.RLock()
	byVersion := r.entries[name]
	r.mu.RUnlock()
	if len(byVersion) == 0 {
		return nil, fmt.Errorf("%w: %q in %s", ErrNotFound, ref, r.dir)
	}
	if hasVersion {
		e, ok := byVersion[version]
		if !ok {
			return nil, fmt.Errorf("%w: %q in %s", ErrNotFound, ref, r.dir)
		}
		return e, nil
	}
	var best *entry
	for _, e := range byVersion {
		if best == nil || e.profile.Version > best.profile.Version {
			best = e
		}
	}
	return best, nil
}

// Resolve returns the profile a reference names ("name" resolves to the
// highest version, "name@N" to that exact version). Unknown references
// return an error wrapping ErrNotFound.
func (r *Registry) Resolve(ref string) (*Profile, error) {
	e, err := r.resolve(ref)
	if err != nil {
		return nil, err
	}
	return e.profile, nil
}

// ResolveFramework resolves a reference and returns the ready-to-serve
// framework restored from it, cached per loaded profile.
func (r *Registry) ResolveFramework(ref string) (*core.Framework, *Profile, error) {
	e, err := r.resolve(ref)
	if err != nil {
		return nil, nil, err
	}
	fw, err := e.framework()
	if err != nil {
		return nil, nil, err
	}
	return fw, e.profile, nil
}

// Served is one profile of a registry snapshot, with the file bytes it
// was decoded from (not to be modified) and the file's path.
type Served struct {
	Profile *Profile
	Data    []byte
	Path    string
}

// List returns every served profile ordered by name, then version.
func (r *Registry) List() []Served {
	r.mu.RLock()
	var out []Served
	for _, byVersion := range r.entries {
		for _, e := range byVersion {
			out = append(out, Served{Profile: e.profile, Data: e.data, Path: e.path})
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Profile, out[j].Profile
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Version < b.Version
	})
	return out
}

// watchFailureThreshold is how many consecutive failed polls Watch
// tolerates silently before surfacing the problem through onReload. One
// failure is routinely transient (a directory mid-swap); a run of them
// means the watcher is effectively blind and the operator should know.
const watchFailureThreshold = 3

// Watch runs Refresh every interval, so it reloads when the file set
// changes (names, sizes, mtimes, stored CRCs or signature sidecars),
// calling onReload — which may be nil — after each triggered reload with
// Reload's results.
// It blocks until ctx is done, so callers run it in a goroutine; a
// failed poll or reload leaves the current snapshot serving and retries
// next tick. Scan failures are not silently retried forever: after
// watchFailureThreshold consecutive failures, onReload is called once
// per streak with a nil-count error describing the condition, so a
// persistently unreadable directory surfaces instead of the registry
// quietly serving stale profiles.
//
// With a source attached, every tick first syncs newly published
// profiles from it into the directory; the files it writes change the
// fingerprint and flow through the same reload path as local edits. A
// sync failure (origin down) leaves the materialized snapshot serving —
// graceful degradation — and surfaces through onReload only after
// watchFailureThreshold consecutive failures, like scan failures.
func (r *Registry) Watch(ctx context.Context, interval time.Duration, onReload func(int, error)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	failures := 0
	syncFailures := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			if r.source != nil {
				if _, err := r.SyncSource(ctx); err != nil {
					syncFailures++
					if syncFailures == watchFailureThreshold && onReload != nil {
						onReload(0, fmt.Errorf("profile: hub sync into %s failing for %d consecutive polls: %w",
							r.dir, syncFailures, err))
					}
				} else {
					syncFailures = 0
				}
			}
			reloaded, n, err := r.Refresh()
			if !reloaded && err != nil {
				failures++
				if failures == watchFailureThreshold && onReload != nil {
					onReload(0, fmt.Errorf("profile: watch of %s failing for %d consecutive polls: %w",
						r.dir, failures, err))
				}
				continue
			}
			failures = 0
			if reloaded && onReload != nil {
				onReload(n, err)
			}
		}
	}
}
