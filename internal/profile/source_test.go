package profile

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource serves profiles from memory and counts fetches, standing in
// for a hub client.
type fakeSource struct {
	mu       sync.Mutex
	profiles map[SourceRef][]byte // version 0 keys are not allowed
	fetches  atomic.Int64
	fail     error // when set, every call fails with this
}

func newFakeSource() *fakeSource {
	return &fakeSource{profiles: make(map[SourceRef][]byte)}
}

func (f *fakeSource) add(tb testing.TB, name string, version uint32, mutate func(*Profile)) []byte {
	tb.Helper()
	p := syntheticProfile(false)
	p.Name, p.Version = name, version
	p.Luma[0] = uint16(1 + version)
	if mutate != nil {
		mutate(p)
	}
	data, err := p.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	f.mu.Lock()
	f.profiles[SourceRef{name, version}] = data
	f.mu.Unlock()
	return data
}

func (f *fakeSource) Fetch(ctx context.Context, name string, version uint32) ([]byte, error) {
	f.fetches.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return nil, f.fail
	}
	if version == 0 {
		for ref := range f.profiles {
			if ref.Name == name && ref.Version > version {
				version = ref.Version
			}
		}
	}
	data, ok := f.profiles[SourceRef{name, version}]
	if !ok {
		return nil, fmt.Errorf("fake source: no %s@%d", name, version)
	}
	return data, nil
}

func (f *fakeSource) List(ctx context.Context) ([]SourceRef, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail != nil {
		return nil, f.fail
	}
	refs := make([]SourceRef, 0, len(f.profiles))
	for ref := range f.profiles {
		refs = append(refs, ref)
	}
	return refs, nil
}

func TestRegistryLazyFetchOnMiss(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	src.add(t, "remote", 2, nil)
	reg.AttachSource(src)

	// Explicit version miss → fetched, materialized, resolvable.
	p, err := reg.Resolve("remote@2")
	if err != nil {
		t.Fatalf("lazy fetch: %v", err)
	}
	if p.Ref() != "remote@2" {
		t.Fatalf("resolved %s, want remote@2", p.Ref())
	}
	if _, err := os.Stat(filepath.Join(dir, "remote@2.dnp")); err != nil {
		t.Fatalf("fetched profile not materialized: %v", err)
	}
	// Second resolve is local: no new fetch.
	before := src.fetches.Load()
	if _, err := reg.Resolve("remote@2"); err != nil {
		t.Fatal(err)
	}
	if got := src.fetches.Load(); got != before {
		t.Fatalf("local re-resolve hit the source (%d → %d fetches)", before, got)
	}
	// Bare name resolves locally too now.
	if _, err := reg.Resolve("remote"); err != nil {
		t.Fatal(err)
	}
	if got := src.fetches.Load(); got != before {
		t.Fatalf("bare-name resolve with a local version hit the source")
	}
}

func TestRegistryLazyFetchBareNameLatest(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	src.add(t, "edge", 1, nil)
	src.add(t, "edge", 3, nil)
	reg.AttachSource(src)
	p, err := reg.Resolve("edge")
	if err != nil {
		t.Fatal(err)
	}
	if p.Ref() != "edge@3" {
		t.Fatalf("bare-name lazy fetch resolved %s, want edge@3 (latest)", p.Ref())
	}
	fw, rp, err := reg.ResolveFramework("edge@3")
	if err != nil || fw == nil || rp.Version != 3 {
		t.Fatalf("ResolveFramework after lazy fetch: %v", err)
	}
}

func TestRegistryLazyFetchRejectsMisnamedBlob(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	// The source lies: asked for "wanted", it returns a blob declaring a
	// different identity.
	lie := src.add(t, "other", 1, nil)
	src.mu.Lock()
	src.profiles[SourceRef{"wanted", 1}] = lie
	src.mu.Unlock()
	reg.AttachSource(src)
	if _, err := reg.Resolve("wanted@1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("misnamed blob resolved: err=%v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wanted@1.dnp")); !os.IsNotExist(err) {
		t.Fatal("misnamed blob was materialized")
	}
}

func TestRegistryResolveWithoutSourceStillMisses(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Resolve("absent@1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestRegistrySourceFailureWrapsNotFound(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	src.fail = errors.New("origin down")
	reg.AttachSource(src)
	_, err = reg.Resolve("gone@1")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound wrap, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "origin down") {
		t.Fatalf("error should carry the source failure, got %v", err)
	}
}

func TestSyncSourcePullsMissingWithoutReload(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "local", Version: 1})
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	src.add(t, "local", 1, nil) // already present: not re-fetched
	src.add(t, "new", 1, nil)
	reg.AttachSource(src)

	added, err := reg.SyncSource(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("SyncSource added %d, want 1", added)
	}
	if _, err := os.Stat(filepath.Join(dir, "new@1.dnp")); err != nil {
		t.Fatalf("synced profile not on disk: %v", err)
	}
	// Sync does not publish a snapshot by itself; a reload does.
	if _, err := reg.resolveLocal("new@1"); err == nil {
		t.Fatal("SyncSource should not reload the snapshot")
	}
	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Resolve("new@1"); err != nil {
		t.Fatalf("after reload: %v", err)
	}
}

func TestWatchSyncsSourceAndPublishes(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "tenant", Version: 1})
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	reg.AttachSource(src)

	reloaded := make(chan int, 16)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reg.Watch(ctx, 5*time.Millisecond, func(n int, err error) {
		if err == nil {
			reloaded <- n
		}
	})
	// Publish a new version at the source mid-watch; the next tick must
	// sync it down and the fingerprint change must drive a reload.
	src.add(t, "tenant", 2, nil)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-reloaded:
			if p, err := reg.Resolve("tenant"); err == nil && p.Version == 2 {
				return
			}
		case <-deadline:
			t.Fatal("watch never synced and published tenant@2")
		}
	}
}

func TestLazyFetchSingleFlight(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeSource()
	src.add(t, "hot", 1, nil)
	reg.AttachSource(src)

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = reg.Resolve("hot@1")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	// The mutex collapses the stampede: one fetch (the map write is
	// atomic under the fake's own mutex, so an exact count is reliable).
	if got := src.fetches.Load(); got != 1 {
		t.Fatalf("stampede made %d fetches, want 1", got)
	}
}
