// Package atomicfile publishes files crash-safely: a reader, or the
// filesystem after a crash, sees either the old file or the complete new
// one, and a published file stays published.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Write lands raw under path via temp file + fsync + rename +
// parent-directory fsync. The temp file is created next to path with the
// os.CreateTemp name pattern tmpPattern, and removed when a step fails.
func Write(path, tmpPattern string, raw []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	// Sync before rename: a crash right after Write must leave either the
	// old file or the complete new one, never a short write behind the
	// final name.
	_, werr := tmp.Write(raw)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %v/%v/%v", path, werr, serr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}

// SyncDir makes a just-renamed directory entry durable: rename alone only
// updates the entry in memory, so without it a crash shortly after the
// rename can roll the file back to its previous contents, or out of the
// directory.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("syncing %s: %w", dir, serr)
	}
	if cerr != nil {
		return cerr
	}
	dirSyncs.Add(1)
	return nil
}

var dirSyncs atomic.Uint64

// DirSyncs counts the directory syncs completed so far in this process,
// so tests can pin that a rename is followed by one.
func DirSyncs() uint64 { return dirSyncs.Load() }
