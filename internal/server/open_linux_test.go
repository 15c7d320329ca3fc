//go:build linux

package server

import (
	"encoding/binary"
	"path/filepath"
	"syscall"
	"testing"
)

// countOpens reports how many times do opens path, through inotify. Closes
// are watched too: identical successive events coalesce, and a close between
// two opens keeps them apart.
func countOpens(t *testing.T, path string, do func()) int {
	t.Helper()
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	defer syscall.Close(fd)
	if _, err := syscall.InotifyAddWatch(fd, path, syscall.IN_OPEN|syscall.IN_CLOSE_NOWRITE); err != nil {
		t.Skipf("inotify watch: %v", err)
	}
	do()
	buf := make([]byte, 4096)
	n, err := syscall.Read(fd, buf)
	if err != nil {
		t.Fatalf("reading inotify events: %v", err)
	}
	opens := 0
	for ev := buf[:n]; len(ev) >= syscall.SizeofInotifyEvent; {
		if binary.LittleEndian.Uint32(ev[4:])&syscall.IN_OPEN != 0 {
			opens++
		}
		ev = ev[syscall.SizeofInotifyEvent+binary.LittleEndian.Uint32(ev[12:]):]
	}
	return opens
}

// TestConstructorsOpenSnapshotOnce: each constructor verifies and loads
// through one open file. On builds without mmap this is NewMapped's fallback,
// which materializes from the reader it already verified instead of loading
// the path a second time.
func TestConstructorsOpenSnapshotOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tables.snap")
	if err := quantize(t, testSnapshot(t, 40, 40, 8, 4)).Write(path); err != nil {
		t.Fatalf("writing snapshot: %v", err)
	}
	for name, build := range map[string]func(string, Config, ...Option) (*Server, error){"New": New, "NewMapped": NewMapped} {
		opens := countOpens(t, path, func() {
			srv, err := build(path, Config{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
		})
		if opens != 1 {
			t.Errorf("%s opened the snapshot %d times, want 1", name, opens)
		}
	}
}
