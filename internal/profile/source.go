package profile

// A Source feeds a Registry with profiles it does not have locally — the
// abstraction a profile hub client plugs into. The registry stays a
// plain directory of .dnp files (everything downstream of it — hot
// reload, framework caching, fingerprint polling — is unchanged); a
// source only gets consulted on a resolve miss (lazy pull) and on Watch
// ticks (periodic sync), and every byte it returns is fully decoded and
// validated before it is materialized into the directory.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"
)

// SourceRef names one profile a source can provide.
type SourceRef struct {
	Name    string
	Version uint32
}

// Source is a remote provider of encoded profiles.
//
// Implementations must be safe for concurrent use; the registry calls
// them from request goroutines (lazy pulls) and the Watch goroutine
// (periodic sync).
type Source interface {
	// Fetch returns the canonical encoded bytes of name@version;
	// version 0 requests the highest published version. The returned
	// bytes must decode to a profile whose Name matches name (and whose
	// Version matches, when one was requested) — the registry re-checks.
	Fetch(ctx context.Context, name string, version uint32) ([]byte, error)
	// List enumerates every profile the source currently publishes.
	List(ctx context.Context) ([]SourceRef, error)
}

// fetchTimeout bounds a lazy pull triggered from a resolve miss, where
// no caller context exists: a hub origin that stops answering must fail
// the one request that missed, not wedge it.
const fetchTimeout = 30 * time.Second

// AttachSource connects a remote source to the registry. After this,
// a Resolve/ResolveFramework miss triggers a synchronous fetch (bounded
// by 30 s) and Watch ticks sync newly published profiles into the
// directory. Attach before serving; the field is not synchronized
// against concurrent resolves.
func (r *Registry) AttachSource(src Source) {
	r.source = src
}

// fetchMiss pulls one missing reference from the source, materializes it
// into the registry directory and reloads. The single flight mutex
// collapses a stampede of concurrent misses for the same cold profile
// into one origin fetch: later waiters re-resolve locally and return.
func (r *Registry) fetchMiss(ref string, name string, version uint32) (*entry, error) {
	r.fetchMu.Lock()
	defer r.fetchMu.Unlock()
	// A concurrent fetch may have landed the profile while this caller
	// waited on the mutex.
	if e, err := r.resolveLocal(ref); err == nil {
		return e, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
	defer cancel()
	if _, err := r.materialize(ctx, name, version); err != nil {
		return nil, fmt.Errorf("%w: %q not in %s and hub fetch failed: %v", ErrNotFound, ref, r.dir, err)
	}
	if _, err := r.Reload(); err != nil {
		// Another file in the directory may be corrupt; the fetched
		// profile still swapped in, so only a failed resolve below is
		// fatal for this request.
		_ = err
	}
	return r.resolveLocal(ref)
}

// materialize fetches name@version (0 = latest) from the source,
// validates it end to end, and writes it into the registry directory
// under its canonical file name. It does not reload.
func (r *Registry) materialize(ctx context.Context, name string, version uint32) (*Profile, error) {
	data, err := r.source.Fetch(ctx, name, version)
	if err != nil {
		return nil, err
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("fetched %s@%d: %w", name, version, err)
	}
	// The source answers for the bytes; the registry answers for the
	// identity. A blob that decodes fine but names a different profile
	// (a hub index mix-up, a malicious origin) must not land under the
	// requested name.
	if p.Name != name {
		return nil, fmt.Errorf("fetched %s@%d but blob declares name %q", name, version, p.Name)
	}
	if version != 0 && p.Version != version {
		return nil, fmt.Errorf("fetched %s@%d but blob declares version %d", name, version, p.Version)
	}
	if err := WriteFileAtomic(filepath.Join(r.dir, p.FileName()), data); err != nil {
		return nil, err
	}
	return p, nil
}

// SyncSource pulls every profile the source publishes that is not in the
// local snapshot yet, materializing them into the directory. It returns
// how many files were written. It does NOT reload: callers either reload
// explicitly or — the Watch path — let the directory fingerprint change
// trigger the normal reload machinery, so one code path publishes
// snapshots no matter where a file came from. With no source attached it
// is a no-op.
func (r *Registry) SyncSource(ctx context.Context) (int, error) {
	if r.source == nil {
		return 0, nil
	}
	refs, err := r.source.List(ctx)
	if err != nil {
		return 0, err
	}
	r.mu.RLock()
	have := make(map[SourceRef]bool)
	for name, byVersion := range r.entries {
		for v := range byVersion {
			have[SourceRef{name, v}] = true
		}
	}
	r.mu.RUnlock()
	added := 0
	var errs []error
	for _, ref := range refs {
		if have[ref] {
			continue
		}
		if err := ValidateName(ref.Name); err != nil || ref.Version == 0 {
			errs = append(errs, fmt.Errorf("source lists invalid ref %s@%d", ref.Name, ref.Version))
			continue
		}
		if _, err := r.materialize(ctx, ref.Name, ref.Version); err != nil {
			errs = append(errs, err)
			continue
		}
		added++
	}
	return added, errors.Join(errs...)
}
