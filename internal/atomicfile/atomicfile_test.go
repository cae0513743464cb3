package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWritePublishesAndSyncsDir checks the publish discipline: the file
// lands whole (also over an existing one), no temp file survives, and
// every rename is followed by exactly one directory sync.
func TestWritePublishesAndSyncsDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub") // Write creates missing parents
	path := filepath.Join(dir, "out.json")
	for i, body := range []string{`{"v":1}`, `{"v":2}`} {
		before := DirSyncs()
		if err := Write(path, ".tmp-*", []byte(body)); err != nil {
			t.Fatal(err)
		}
		if got := DirSyncs(); got != before+1 {
			t.Fatalf("write %d: dir syncs %d -> %d, want one after the rename", i, before, got)
		}
		raw, err := os.ReadFile(path)
		if err != nil || string(raw) != body {
			t.Fatalf("write %d: content %q, %v; want %q", i, raw, err, body)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the published file", len(entries))
	}
}

// TestWriteFailureLeavesNothing checks that a failed publish removes its
// temp file and leaves the target untouched.
func TestWriteFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	// Renaming a file over a directory fails after the temp file is
	// written and synced.
	if err := Write(target, ".tmp-*", []byte("x")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("leftovers after a failed write: %v", entries)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncing a missing directory succeeded")
	}
}
