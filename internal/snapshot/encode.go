package snapshot

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

const (
	headerLen     = 24
	footerLen     = 32
	indexEntryLen = 32
)

// castagnoli is the CRC32C table used for every checksum in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var zeroPad [8]byte

// indexEntry is one record of the section index.
type indexEntry struct {
	kind SectionKind
	off  int64
	len  int64
	crc  uint32
}

// encoder streams a snapshot into its binary form, tracking the absolute
// offset and, while a section is open, folding written bytes into the
// section CRC. Its first write error sticks and turns later writes into
// no-ops, so the encoding code checks err once per section and at the end
// instead of after every field.
type encoder struct {
	w       io.Writer
	off     int64
	crc     uint32
	sum     bool // CRC accumulation enabled (inside a section payload)
	err     error
	index   []indexEntry
	scratch []byte
}

func (e *encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	n, err := e.w.Write(p)
	e.off += int64(n)
	if e.sum {
		e.crc = crc32.Update(e.crc, castagnoli, p[:n])
	}
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	e.err = err
}

// pad8 advances the writer to the next 8-byte boundary.
func (e *encoder) pad8() {
	if rem := e.off & 7; rem != 0 {
		e.write(zeroPad[:8-rem])
	}
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.scratch[:4], v)
	e.write(e.scratch[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch[:8], v)
	e.write(e.scratch[:8])
}

// f64s writes a float64 slice in little-endian chunks.
func (e *encoder) f64s(vs []float64) {
	buf := e.scratch
	for len(vs) > 0 && e.err == nil {
		n := min(len(buf)/8, len(vs))
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		e.write(buf[: n*8 : n*8])
		vs = vs[n:]
	}
}

// i64s writes an int64 slice.
func (e *encoder) i64s(vs []int64) {
	buf := e.scratch
	for len(vs) > 0 && e.err == nil {
		n := min(len(buf)/8, len(vs))
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
		e.write(buf[: n*8 : n*8])
		vs = vs[n:]
	}
}

// i32s writes an int32 slice.
func (e *encoder) i32s(vs []int32) {
	buf := e.scratch
	for len(vs) > 0 && e.err == nil {
		n := min(len(buf)/4, len(vs))
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
		}
		e.write(buf[: n*4 : n*4])
		vs = vs[n:]
	}
}

// i8s writes an int8 slice as raw bytes.
func (e *encoder) i8s(vs []int8) {
	buf := e.scratch
	for len(vs) > 0 && e.err == nil {
		n := min(len(buf), len(vs))
		for i, v := range vs[:n] {
			buf[i] = byte(v)
		}
		e.write(buf[:n:n])
		vs = vs[n:]
	}
}

// section streams one payload, recording its extent and CRC in the index.
func (e *encoder) section(kind SectionKind, payload func()) {
	e.pad8()
	start := e.off
	e.crc, e.sum = 0, true
	payload()
	e.sum = false
	if e.err != nil {
		e.err = fmt.Errorf("snapshot: writing section %v: %w", kind, e.err)
	}
	e.index = append(e.index, indexEntry{kind: kind, off: start, len: e.off - start, crc: e.crc})
}

// table encodes a Dense as rows, cols, row-major float64 data.
func (e *encoder) table(m *matrix.Dense) {
	e.u64(uint64(m.Rows()))
	e.u64(uint64(m.Cols()))
	e.f64s(m.Data())
}

// vocab encodes a string list as count, then per-string u32 length + bytes.
func (e *encoder) vocab(names []string) {
	e.u64(uint64(len(names)))
	for _, s := range names {
		e.u32(uint32(len(s)))
		e.write([]byte(s))
	}
}

// ivf encodes an index's flat slabs: dim, n, k, centroids, listPtr, ids
// (padded to 8), vecs.
func (e *encoder) ivf(d *ann.IVFData) {
	e.u64(uint64(d.Dim))
	e.u64(uint64(d.N))
	e.u64(uint64(d.K))
	e.f64s(d.Centroids)
	e.i64s(d.ListPtr)
	e.i32s(d.IDs)
	if d.N%2 != 0 { // keep the vecs slab 8-aligned within the payload
		e.write(zeroPad[:4])
	}
	e.f64s(d.Vecs)
}

// sq8 encodes a quantized table's flat slabs: rows, dim, per-dimension
// scales, then the raw int8 codes (the scales come first so every f64 slab
// in the payload stays 8-aligned; the code slab needs no alignment).
func (e *encoder) sq8(d *quant.TableData) {
	e.u64(uint64(d.Rows))
	e.u64(uint64(d.Dim))
	e.f64s(d.Scales)
	e.i8s(d.Codes)
}

// WriteTo streams the snapshot in format-version Version to w and returns
// the byte count. The snapshot is validated first; an invalid snapshot is
// never written. WriteTo writes sequentially, so tests can interpose a
// fault-injecting writer to model crashes and short writes.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	meta := s.Meta
	if meta.Tool == "" {
		meta.Tool = "entmatcher"
	}
	if meta.CreatedUnix == 0 {
		meta.CreatedUnix = time.Now().Unix()
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding metadata: %w", err)
	}
	e := &encoder{w: w, scratch: make([]byte, 64<<10)}
	type step struct {
		kind SectionKind
		fn   func()
	}
	steps := []step{
		{SectionMeta, func() { e.write(metaJSON) }},
		{SectionSrcTable, func() { e.table(s.SrcTable) }},
		{SectionTgtTable, func() { e.table(s.TgtTable) }},
		{SectionSrcVocab, func() { e.vocab(s.SrcVocab) }},
		{SectionTgtVocab, func() { e.vocab(s.TgtVocab) }},
	}
	if s.FwdIndex != nil {
		steps = append(steps, step{SectionIVFFwd, func() { e.ivf(s.FwdIndex) }})
	}
	if s.RevIndex != nil {
		steps = append(steps, step{SectionIVFRev, func() { e.ivf(s.RevIndex) }})
	}
	if s.SrcQuant != nil {
		steps = append(steps,
			step{SectionSQ8Src, func() { e.sq8(s.SrcQuant) }},
			step{SectionSQ8Tgt, func() { e.sq8(s.TgtQuant) }})
	}
	// Header: magic, version, section count, reserved.
	e.write(headMagic[:])
	e.u32(Version)
	e.u32(uint32(len(steps)))
	e.u64(0)
	if e.err != nil {
		return e.off, e.err
	}
	for _, st := range steps {
		if e.section(st.kind, st.fn); e.err != nil {
			return e.off, e.err
		}
	}
	// Section index.
	e.pad8()
	idxOff := e.off
	idxBuf := make([]byte, 0, len(e.index)*indexEntryLen)
	var ent [indexEntryLen]byte
	for _, ie := range e.index {
		binary.LittleEndian.PutUint32(ent[0:], uint32(ie.kind))
		binary.LittleEndian.PutUint32(ent[4:], 0)
		binary.LittleEndian.PutUint64(ent[8:], uint64(ie.off))
		binary.LittleEndian.PutUint64(ent[16:], uint64(ie.len))
		binary.LittleEndian.PutUint32(ent[24:], ie.crc)
		binary.LittleEndian.PutUint32(ent[28:], 0)
		idxBuf = append(idxBuf, ent[:]...)
	}
	e.write(idxBuf)
	// Footer.
	var foot [footerLen]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(idxOff))
	binary.LittleEndian.PutUint64(foot[8:], uint64(len(idxBuf)))
	binary.LittleEndian.PutUint32(foot[16:], crc32.Checksum(idxBuf, castagnoli))
	binary.LittleEndian.PutUint32(foot[20:], Version)
	copy(foot[24:], tailMagic[:])
	e.write(foot[:])
	return e.off, e.err
}

// Write persists the snapshot at path atomically: the bytes go to a
// temporary file in the same directory, are flushed and fsynced, and only
// then renamed over path (followed by a directory sync). A crash at any
// point leaves either the old file or the new file — never a torn hybrid —
// and a failed write never leaves the temporary behind.
func (s *Snapshot) Write(path string) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// AtomicWriteFile writes a file via temp file → flush → fsync → rename, the
// crash-safe publication pattern shared by the snapshot writer and the
// benchmark JSON reports: readers of path never observe a partial write,
// and an interrupted writer cannot truncate previously committed contents.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("snapshot: fsync %s: %w", tmp, err)
	}
	// CreateTemp makes the file 0600; publish with the conventional mode
	// instead so the artifact is readable like any os.Create product.
	if err = f.Chmod(0o644); err != nil {
		return fmt.Errorf("snapshot: chmod %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", tmp, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	// Sync the directory so the rename itself is durable. Not all platforms
	// support fsync on directories; degrade silently where it fails.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
