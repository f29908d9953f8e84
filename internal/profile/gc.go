package profile

// Retention for profile directories: a max-bytes / max-versions-per-name
// policy, usable against any directory a registry serves (`deepn-jpeg
// profiles gc`). Published versions are immutable, so "garbage" means
// old versions, never live bytes: the newest version of every name
// always survives.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// GCPolicy bounds a profile store.
type GCPolicy struct {
	// MaxBytes caps the total size of retained profile files; 0 means
	// unbounded. Eviction is LRU (oldest modification time first).
	MaxBytes int64
	// MaxVersionsPerName caps how many versions of one name survive
	// (highest version numbers win); 0 means unbounded.
	MaxVersionsPerName int
}

// GCResult reports what a collection pass did.
type GCResult struct {
	// Removed lists the deleted profile files (not their sidecars).
	Removed []string
	// RetainedBytes is the byte total of surviving profile files.
	RetainedBytes int64
	// OverBudget is true when MaxBytes could not be met without deleting
	// a name's newest version — the pass stops rather than remove it.
	OverBudget bool
}

// gcFile is one profile file under retention consideration.
type gcFile struct {
	path    string
	name    string
	version uint32
	size    int64
	modTime time.Time
}

// GCDir applies a retention policy to a directory of .dnp files. Files
// that fail to decode are left untouched (a GC must never destroy the
// evidence of a corruption bug); each removed profile also drops its
// .sig sidecar. A dry run lists what would be removed without deleting.
func GCDir(dir string, policy GCPolicy, dryRun bool) (*GCResult, error) {
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []gcFile
	for _, de := range dirents {
		if de.IsDir() || filepath.Ext(de.Name()) != Ext {
			continue
		}
		path := filepath.Join(dir, de.Name())
		p, err := Read(path)
		if err != nil {
			continue // damaged or foreign file: not GC's to judge
		}
		f := gcFile{path: path, name: p.Name, version: p.Version}
		if info, err := de.Info(); err == nil {
			f.size, f.modTime = info.Size(), info.ModTime()
		}
		files = append(files, f)
	}

	res := &GCResult{}
	drop := make(map[string]bool)

	// Pass 1: version cap. Per name, keep the MaxVersionsPerName highest
	// versions.
	if policy.MaxVersionsPerName > 0 {
		byName := make(map[string][]gcFile)
		for _, f := range files {
			byName[f.name] = append(byName[f.name], f)
		}
		for _, group := range byName {
			sort.Slice(group, func(i, j int) bool { return group[i].version > group[j].version })
			for _, f := range group[min(policy.MaxVersionsPerName, len(group)):] {
				drop[f.path] = true
			}
		}
	}

	// Pass 2: byte cap over the survivors, LRU by modification time —
	// but a name's newest version is never evicted for space (removing
	// it would turn a retention pass into an outage for that tenant).
	if policy.MaxBytes > 0 {
		newest := make(map[string]uint32)
		var total int64
		var survivors []gcFile
		for _, f := range files {
			if drop[f.path] {
				continue
			}
			survivors = append(survivors, f)
			total += f.size
			if f.version > newest[f.name] {
				newest[f.name] = f.version
			}
		}
		sort.Slice(survivors, func(i, j int) bool { return survivors[i].modTime.Before(survivors[j].modTime) })
		for _, f := range survivors {
			if total <= policy.MaxBytes {
				break
			}
			if f.version == newest[f.name] {
				continue
			}
			drop[f.path] = true
			total -= f.size
		}
		res.OverBudget = total > policy.MaxBytes
	}

	for _, f := range files {
		if !drop[f.path] {
			res.RetainedBytes += f.size
			continue
		}
		res.Removed = append(res.Removed, f.path)
		if dryRun {
			continue
		}
		if err := os.Remove(f.path); err != nil {
			return res, fmt.Errorf("profile: gc: %w", err)
		}
		os.Remove(f.path + SigExt) // best-effort sidecar cleanup
	}
	sort.Strings(res.Removed)
	return res, nil
}
