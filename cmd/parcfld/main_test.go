package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: -addr-file is replaced whole, and no temp file is
// left next to it.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := writeFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("read %q", data)
	}
	dir, _ := os.ReadDir(filepath.Dir(path))
	if len(dir) != 1 {
		t.Fatalf("temp files left behind: %v", dir)
	}
}
