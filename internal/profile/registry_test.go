package profile

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeVersions persists the synthetic fixture under several
// name/version identities into dir.
func writeVersions(tb testing.TB, dir string, refs ...Meta) {
	tb.Helper()
	for _, m := range refs {
		p := syntheticProfile(false)
		p.Name, p.Version = m.Name, m.Version
		// Distinguish versions observably: bump the DC step.
		p.Luma[0] = uint16(1 + m.Version)
		if err := p.Write(filepath.Join(dir, p.FileName())); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestRegistryResolve(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir,
		Meta{Name: "alpha", Version: 1}, Meta{Name: "alpha", Version: 3},
		Meta{Name: "alpha", Version: 2}, Meta{Name: "beta", Version: 1})
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reg.List()); got != 4 {
		t.Fatalf("serving %d profiles, want 4", got)
	}
	if p, err := reg.Resolve("alpha"); err != nil || p.Version != 3 {
		t.Fatalf("bare name resolved to %+v, %v (want highest version 3)", p, err)
	}
	if p, err := reg.Resolve("alpha@2"); err != nil || p.Version != 2 {
		t.Fatalf("alpha@2 resolved to %+v, %v", p, err)
	}
	if _, err := reg.Resolve("alpha@9"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("alpha@9: %v, want ErrNotFound", err)
	}
	if _, err := reg.Resolve("gamma"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("gamma: %v, want ErrNotFound", err)
	}
	if _, err := reg.Resolve("Not A Name"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("malformed ref: %v, want a parse error", err)
	}
	// List is ordered by name then version.
	var order []string
	for _, s := range reg.List() {
		order = append(order, s.Profile.Ref())
	}
	want := "alpha@1,alpha@2,alpha@3,beta@1"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("List order %s, want %s", got, want)
	}
}

func TestRegistryFrameworkCachedAndDistinct(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "alpha", Version: 1}, Meta{Name: "alpha", Version: 2})
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	fw1, p1, err := reg.ResolveFramework("alpha@1")
	if err != nil {
		t.Fatal(err)
	}
	fw2, _, err := reg.ResolveFramework("alpha@2")
	if err != nil {
		t.Fatal(err)
	}
	if fw1.LumaTable[0] != 2 || fw2.LumaTable[0] != 3 {
		t.Fatalf("versions served wrong tables: %d, %d", fw1.LumaTable[0], fw2.LumaTable[0])
	}
	again, p1again, err := reg.ResolveFramework("alpha@1")
	if err != nil {
		t.Fatal(err)
	}
	if again != fw1 || p1again != p1 {
		t.Fatal("repeated resolution rebuilt the framework instead of serving the cache")
	}
}

func TestRegistryReload(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Loads() != 1 {
		t.Fatalf("loads %d after open, want 1", reg.Loads())
	}
	fwOld, _, err := reg.ResolveFramework("alpha")
	if err != nil {
		t.Fatal(err)
	}

	writeVersions(t, dir, Meta{Name: "alpha", Version: 2})
	n, err := reg.Reload()
	if err != nil || n != 2 {
		t.Fatalf("reload: %d profiles, %v", n, err)
	}
	if reg.Loads() != 2 {
		t.Fatalf("loads %d after reload, want 2", reg.Loads())
	}
	if p, err := reg.Resolve("alpha"); err != nil || p.Version != 2 {
		t.Fatalf("post-reload alpha resolved to %+v, %v", p, err)
	}
	// The unchanged file's cached framework must survive the reload.
	fwSame, _, err := reg.ResolveFramework("alpha@1")
	if err != nil {
		t.Fatal(err)
	}
	if fwSame != fwOld {
		t.Fatal("reload dropped the cached framework of an unchanged file")
	}
}

func TestRegistryToleratesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
	if err := os.WriteFile(filepath.Join(dir, "junk.dnp"), []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(dir)
	if err == nil {
		t.Fatal("corrupt file went unreported")
	}
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("error %v, want ErrBadMagic", err)
	}
	// The healthy profile still serves.
	if _, rerr := reg.Resolve("alpha"); rerr != nil {
		t.Fatalf("healthy profile lost: %v", rerr)
	}
}

func TestRegistryRejectsDuplicateRefs(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
	// Same name@version under a different file name.
	p := syntheticProfile(false)
	p.Name, p.Version = "alpha", 1
	if err := p.Write(filepath.Join(dir, "copy.dnp")); err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(dir)
	if err == nil || !strings.Contains(err.Error(), "both declare alpha@1") {
		t.Fatalf("duplicate declaration not reported: %v", err)
	}
	if !errors.Is(err, ErrDuplicateRef) {
		t.Fatalf("duplicate declaration %v does not wrap ErrDuplicateRef", err)
	}
	if _, rerr := reg.Resolve("alpha@1"); rerr != nil {
		t.Fatalf("first copy should still serve: %v", rerr)
	}
}

// TestRegistryReloadDetectsSameSizeSameMtimeRewrite pins the CRC leg of
// entry reuse: a rewrite that changes only table bytes keeps the file
// size identical, and forcing the old mtime back simulates a rewrite
// landing within the file system's timestamp granularity. Size+mtime
// matching alone would wrongly carry the stale cached profile over.
func TestRegistryReloadDetectsSameSizeSameMtimeRewrite(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
	path := filepath.Join(dir, "alpha@1.dnp")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := reg.ResolveFramework("alpha@1")
	if err != nil {
		t.Fatal(err)
	}

	// Same name, version and structure — only a table step differs, so
	// the encoded file is byte-for-byte the same length.
	p := syntheticProfile(false)
	p.Name, p.Version = "alpha", 1
	p.Luma[0] = 77
	if err := p.Write(path); err != nil {
		t.Fatal(err)
	}
	if st2, err := os.Stat(path); err != nil || st2.Size() != st.Size() {
		t.Fatalf("fixture must rewrite at identical size (%d vs %d, %v)", st2.Size(), st.Size(), err)
	}
	if err := os.Chtimes(path, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}

	if _, err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	after, _, err := reg.ResolveFramework("alpha@1")
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("reload reused the stale entry for a same-size, same-mtime rewrite")
	}
	if after.LumaTable[0] != 77 {
		t.Fatalf("reload serves luma DC step %d, want the rewritten 77", after.LumaTable[0])
	}
}

// TestRegistryWatchDetectsCRCOnlyChange drives the same rewrite through
// the polling watcher, whose fingerprint must fold the stored CRC in.
func TestRegistryWatchDetectsCRCOnlyChange(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
	path := filepath.Join(dir, "alpha@1.dnp")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reloaded := make(chan int, 8)
	go reg.Watch(ctx, 5*time.Millisecond, func(n int, err error) {
		if err != nil {
			t.Errorf("watch reload: %v", err)
		}
		reloaded <- n
	})

	p := syntheticProfile(false)
	p.Name, p.Version = "alpha", 1
	p.Luma[0] = 55
	if err := p.Write(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-reloaded:
	case <-time.After(10 * time.Second):
		t.Fatal("watcher never noticed a rewrite that changed only the content CRC")
	}
	if fw, _, err := reg.ResolveFramework("alpha@1"); err != nil || fw.LumaTable[0] != 55 {
		t.Fatalf("post-watch table step %d, %v (want 55)", fw.LumaTable[0], err)
	}
}

// TestRegistryWatchSurfacesScanFailures pins the failure path: a
// directory that stops being scannable must be reported through onReload
// after a few consecutive failed polls instead of being retried in
// silence forever.
func TestRegistryWatchSurfacesScanFailures(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 8)
	go reg.Watch(ctx, 5*time.Millisecond, func(n int, err error) {
		if err != nil {
			errs <- err
		}
	})

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		if !strings.Contains(err.Error(), "consecutive polls") {
			t.Fatalf("surfaced error %v does not describe the failing watch", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("persistent scan failures were never surfaced through onReload")
	}
	// The pre-failure snapshot must keep serving.
	if _, err := reg.Resolve("alpha@1"); err != nil {
		t.Fatalf("failure surfacing must not drop the serving snapshot: %v", err)
	}
}

func TestRegistryWatch(t *testing.T) {
	dir := t.TempDir()
	writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reloaded := make(chan int, 8)
	go reg.Watch(ctx, 5*time.Millisecond, func(n int, err error) {
		if err != nil {
			t.Errorf("watch reload: %v", err)
		}
		reloaded <- n
	})

	writeVersions(t, dir, Meta{Name: "alpha", Version: 2})
	select {
	case n := <-reloaded:
		if n != 2 {
			t.Fatalf("watch reloaded %d profiles, want 2", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watcher never noticed the new profile")
	}
	if p, err := reg.Resolve("alpha"); err != nil || p.Version != 2 {
		t.Fatalf("post-watch alpha resolved to %+v, %v", p, err)
	}
}

// TestRegistryRefresh runs the poll step after one change each: it must
// reload exactly when a profile file or a signature sidecar moved, and
// leave other files alone.
func TestRegistryRefresh(t *testing.T) {
	sidecar := func(dir string) string { return filepath.Join(dir, "alpha@1"+Ext+SigExt) }
	writeSidecar := func(t *testing.T, dir string) {
		if err := os.WriteFile(sidecar(dir), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name         string
		setup        func(t *testing.T, dir string) // before the registry opens
		change       func(t *testing.T, dir string)
		wantReloaded bool
		wantN        int
	}{
		{name: "nothing", change: func(*testing.T, string) {}},
		{name: "other file", change: func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "new version", wantReloaded: true, wantN: 2, change: func(t *testing.T, dir string) {
			writeVersions(t, dir, Meta{Name: "alpha", Version: 2})
		}},
		{name: "sidecar written", wantReloaded: true, wantN: 1, change: writeSidecar},
		{name: "sidecar removed", wantReloaded: true, wantN: 1, setup: writeSidecar, change: func(t *testing.T, dir string) {
			if err := os.Remove(sidecar(dir)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
			if tt.setup != nil {
				tt.setup(t, dir)
			}
			reg, err := OpenRegistry(dir)
			if err != nil {
				t.Fatal(err)
			}
			tt.change(t, dir)
			reloaded, n, err := reg.Refresh()
			if err != nil || reloaded != tt.wantReloaded || n != tt.wantN {
				t.Fatalf("Refresh() = %v, %d, %v; want %v, %d, nil", reloaded, n, err, tt.wantReloaded, tt.wantN)
			}
			if reloaded, _, _ := reg.Refresh(); reloaded {
				t.Fatal("a second Refresh with nothing changed reloaded")
			}
			wantLoads := int64(1)
			if tt.wantReloaded {
				wantLoads = 2
			}
			if reg.Loads() != wantLoads {
				t.Fatalf("loads %d, want %d", reg.Loads(), wantLoads)
			}
		})
	}
}

// TestRegistryWatchReloadsOnSidecarChange drives sidecar-only changes
// through the polling watcher: a hub origin publishes sidecars, so one
// written or removed must count as a change.
func TestRegistryWatchReloadsOnSidecarChange(t *testing.T) {
	tests := []struct {
		name    string
		present bool // a sidecar exists when the registry opens
		change  func(path string) error
	}{
		{"sidecar written", false, func(path string) error { return os.WriteFile(path, []byte("{}\n"), 0o644) }},
		{"sidecar removed", true, os.Remove},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			writeVersions(t, dir, Meta{Name: "alpha", Version: 1})
			path := filepath.Join(dir, "alpha@1"+Ext+SigExt)
			if tt.present {
				if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			reg, err := OpenRegistry(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reloaded := make(chan int, 8)
			go reg.Watch(ctx, 5*time.Millisecond, func(n int, err error) {
				if err != nil {
					t.Errorf("watch reload: %v", err)
				}
				reloaded <- n
			})
			if err := tt.change(path); err != nil {
				t.Fatal(err)
			}
			select {
			case n := <-reloaded:
				if n != 1 {
					t.Fatalf("watch reloaded %d profiles, want 1", n)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("watcher never noticed a change to a signature sidecar")
			}
		})
	}
}
