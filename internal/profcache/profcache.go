// Package profcache is the persistent on-disk profile cache: it maps
// (block machine code, microarchitecture, profiling options, block seed)
// to the profiling result, so repeated evaluation runs over an unchanged
// corpus skip re-profiling entirely. The cache is a single JSON file
// carrying a format/semantics version; a version bump invalidates every
// persisted entry (the file is simply ignored and rewritten).
package profcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"bhive/internal/atomicfile"
	"bhive/internal/pipeline"
)

// Version tags the profiling semantics. Bump it whenever the profiler or
// the machine model changes in a way that can alter results: stale caches
// are then discarded wholesale on Open.
const Version = 1

// Entry is one persisted profiling result.
type Entry struct {
	Status       int
	Throughput   float64
	ErrText      string `json:",omitempty"`
	UnrollHi     int
	UnrollLo     int
	PagesMapped  int
	CleanSamples int
	Counters     pipeline.Counters
}

// fileFormat is the on-disk representation.
type fileFormat struct {
	Version int
	Entries map[string]Entry
}

// Cache is a thread-safe persistent profile cache. Save snapshots the
// entries under the lock but performs the disk write unlocked, so
// long-running callers (the evaluation server flushes the shared cache
// while other jobs keep profiling) never stall Get/Put behind I/O.
type Cache struct {
	path string

	// saveMu serializes Save calls: two concurrent Saves would otherwise
	// race their renames, and an older snapshot winning the rename would
	// roll back entries the newer one had already persisted.
	saveMu sync.Mutex

	mu      sync.Mutex
	entries map[string]Entry
	dirty   bool
	gen     uint64 // bumped by every mutating Put; gates clearing dirty
}

// Open loads the cache at path. A missing file or a version mismatch
// yields an empty cache bound to the same path; corrupt files are an
// error so silent cache loss is visible.
func Open(path string) (*Cache, error) {
	c := &Cache{path: path, entries: make(map[string]Entry)}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("profcache: %w", err)
	}
	var f fileFormat
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("profcache: %s: %w", path, err)
	}
	if f.Version != Version {
		// Version bump: discard persisted entries, start fresh.
		return c, nil
	}
	if f.Entries != nil {
		c.entries = f.Entries
	}
	return c, nil
}

// Key derives the cache key for one profiling attempt. optsFingerprint
// must encode every Options field (any change must miss the cache); seed
// is the content-derived block seed.
func Key(blockHex, uarchName, optsFingerprint string, seed int64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s|%s|%s|%d",
		Version, blockHex, uarchName, optsFingerprint, seed)))
	return hex.EncodeToString(h[:])
}

// Get returns the cached entry for key.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// Put records an entry.
func (c *Cache) Put(key string, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok && old == e {
		return
	}
	c.entries[key] = e
	c.dirty = true
	c.gen++
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Save writes the cache back to its path atomically (temp file + rename).
// It is a no-op when nothing changed since Open/the last Save. The write
// happens outside the entry lock, so concurrent Get/Put never block on
// disk I/O; entries Put during the write window stay dirty (the snapshot
// predates them) and are picked up by the next Save instead of being
// silently dropped.
func (c *Cache) Save() error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()

	c.mu.Lock()
	if !c.dirty {
		c.mu.Unlock()
		return nil
	}
	snap := make(map[string]Entry, len(c.entries))
	for k, v := range c.entries {
		snap[k] = v
	}
	genAtSnap := c.gen
	c.mu.Unlock()

	raw, err := json.Marshal(fileFormat{Version: Version, Entries: snap})
	if err != nil {
		return fmt.Errorf("profcache: %w", err)
	}
	if err := atomicfile.Write(c.path, ".profcache-*", raw); err != nil {
		return fmt.Errorf("profcache: %w", err)
	}
	c.mu.Lock()
	// Only what was in the snapshot is on disk. A Put that landed during
	// the write bumped gen past genAtSnap; leaving dirty set then makes
	// the next Save persist it.
	if c.gen == genAtSnap {
		c.dirty = false
	}
	c.mu.Unlock()
	return nil
}
