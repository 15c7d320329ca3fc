//go:build linux && !purego && (amd64 || arm64)

package snapshot

import (
	"fmt"
	"syscall"
	"unsafe"

	"entmatcher/internal/matrix"
)

// MmapSupported reports whether this build can alias snapshot table sections
// in place. True here: Linux on a little-endian architecture, where the
// file's little-endian float64 slabs have native layout. The purego tag
// disables it so CI exercises the chunked-ReadAt fallback on the same host.
const MmapSupported = true

// MapTable memory-maps an embedding-table section and returns a Dense that
// aliases the file pages directly — zero heap for the table, on-demand
// page-in, shared page cache across processes. The Dense is read-only by
// contract (PROT_READ: writes fault) and is valid until the Reader is
// closed. kind must be SectionSrcTable or SectionTgtTable.
func (r *Reader) MapTable(kind SectionKind) (*matrix.Dense, error) {
	sec, err := r.table(kind)
	if err != nil {
		return nil, err
	}
	if r.f == nil {
		return nil, fmt.Errorf("%w: section %v: source is not a file", ErrMmapUnsupported, kind)
	}
	rows, cols := sec.shape.rows, sec.shape.dim
	dataOff := sec.off + tablePrefixLen
	length := int64(rows) * int64(cols) * 8
	// Map from the enclosing page boundary; section payloads are 8-aligned
	// but not page-aligned.
	pg := int64(syscall.Getpagesize())
	aligned := dataOff &^ (pg - 1)
	delta := dataOff - aligned
	m, err := syscall.Mmap(int(r.f.Fd()), aligned, int(delta+length), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("%w: mmap section %v: %v", ErrMmapUnsupported, kind, err)
	}
	// Advise sequential access: the tile pass and the shard gatherer both
	// walk rows in ascending order, so aggressive readahead is right.
	_ = madvise(m, syscall.MADV_SEQUENTIAL)
	data := m[delta : delta+length]
	vals := unsafe.Slice((*float64)(unsafe.Pointer(&data[0])), rows*cols)
	d, err := matrix.NewFromData(rows, cols, vals)
	if err != nil {
		_ = syscall.Munmap(m)
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	r.mu.Lock()
	r.maps = append(r.maps, m)
	r.mu.Unlock()
	return d, nil
}

func munmap(m []byte) error { return syscall.Munmap(m) }

func madvise(m []byte, advice int) error {
	if len(m) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MADVISE,
		uintptr(unsafe.Pointer(&m[0])), uintptr(len(m)), uintptr(advice))
	if errno != 0 {
		return errno
	}
	return nil
}
