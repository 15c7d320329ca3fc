package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// verifyChunk bounds the scratch buffer of the streaming CRC pass: opening a
// snapshot never allocates proportionally to the file (satellite of the
// out-of-core work — Load's whole-file read is the wrong shape for slabs
// bigger than RAM).
const verifyChunk = 1 << 20

// Reader is the out-of-core view of a snapshot file: it runs the exact
// validation walk Decode performs — header, footer, index CRC, per-section
// structural checks and payload CRC32Cs — but streams the checksums through a
// fixed-size buffer and decodes only the small sections (metadata,
// vocabularies) eagerly. The big numeric slabs (embedding tables, IVF
// indexes, SQ8 codes) stay on disk; callers access tables through
// chunked-ReadAt SlabTable views or platform mmap aliases, and materialize
// index/code sections on demand.
//
// A Reader is safe for concurrent use after Open. Close unmaps and closes
// the file: every SlabTable and mmapped Dense obtained from the Reader is
// invalid afterwards.
type Reader struct {
	f    *os.File
	path string
	size int64

	meta     Meta
	srcVocab []string
	tgtVocab []string

	extents map[SectionKind]extent
	tables  map[SectionKind]tableShape

	mu   sync.Mutex
	maps [][]byte // active mmap regions, unmapped on Close
}

// extent is one section's payload location.
type extent struct {
	off int64
	len int64
}

// tableShape is the validated geometry of an embedding-table section: the
// float64 slab starts at dataOff (16 bytes past the payload, after the
// rows/cols prefix) and holds rows×cols values.
type tableShape struct {
	rows    int
	cols    int
	dataOff int64
}

// OpenReader opens and fully verifies the snapshot at path under the
// DefaultMaxBytes limit, without materializing the numeric slabs.
func OpenReader(path string) (*Reader, error) {
	return OpenReaderLimit(path, DefaultMaxBytes)
}

// VerifyFile runs the complete streaming validation walk — every structural
// check and every CRC Load performs — in O(verifyChunk) memory and reports
// the typed error a Load of the same file would. It is the size-bounded
// integrity check for snapshots too large to (or never needed to) reside in
// RAM.
func VerifyFile(path string, maxBytes int64) error {
	r, err := OpenReaderLimit(path, maxBytes)
	if err != nil {
		return err
	}
	return r.Close()
}

// OpenReaderLimit is OpenReader with an explicit size limit. The limit is
// enforced against the stat size before anything is read, so an oversized
// file is rejected with ErrTooLarge without any allocation proportional to
// its size.
func OpenReaderLimit(path string, maxBytes int64) (*Reader, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxBytes {
		return nil, fmt.Errorf("%w: %s is %d bytes, limit %d", ErrTooLarge, path, fi.Size(), maxBytes)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		f:       f,
		path:    path,
		size:    fi.Size(),
		extents: make(map[SectionKind]extent),
		tables:  make(map[SectionKind]tableShape),
	}
	if err := r.verify(); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verify is Decode's validation walk restated over ReadAt: identical checks
// in identical order, with payload CRCs streamed instead of held.
func (r *Reader) verify() error {
	size := r.size
	if size < headerLen+footerLen {
		return fmt.Errorf("%w: %d bytes is smaller than the fixed structure", ErrTruncated, size)
	}
	var head [headerLen]byte
	if _, err := r.f.ReadAt(head[:], 0); err != nil {
		return fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if !bytes.Equal(head[:8], headMagic[:]) {
		return ErrNotSnapshot
	}
	version := binary.LittleEndian.Uint32(head[8:])
	if version != Version {
		return fmt.Errorf("%w: file is version %d, this build reads version %d", ErrVersion, version, Version)
	}
	nsec := int(binary.LittleEndian.Uint32(head[12:]))
	if binary.LittleEndian.Uint64(head[16:]) != 0 {
		return fmt.Errorf("%w: reserved header field is non-zero", ErrMalformed)
	}
	var foot [footerLen]byte
	if _, err := r.f.ReadAt(foot[:], size-footerLen); err != nil {
		return fmt.Errorf("%w: footer: %v", ErrTruncated, err)
	}
	if !bytes.Equal(foot[24:32], tailMagic[:]) {
		return fmt.Errorf("%w: footer magic missing (file ends mid-write?)", ErrTruncated)
	}
	if fv := binary.LittleEndian.Uint32(foot[20:]); fv != version {
		return fmt.Errorf("%w: header says version %d, footer says %d", ErrMalformed, version, fv)
	}
	idxOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	idxLen := int64(binary.LittleEndian.Uint64(foot[8:]))
	idxCRC := binary.LittleEndian.Uint32(foot[16:])
	if idxLen != int64(nsec)*indexEntryLen {
		return fmt.Errorf("%w: header declares %d sections, index holds %d bytes", ErrMalformed, nsec, idxLen)
	}
	if idxOff < headerLen || idxOff%8 != 0 || idxOff+idxLen != size-footerLen {
		return fmt.Errorf("%w: index extent [%d, %d) does not abut the footer at %d",
			ErrTruncated, idxOff, idxOff+idxLen, size-footerLen)
	}
	// The index is nsec×32 bytes — bounded by the already-enforced file size
	// limit — and is the one structure read whole.
	idx := make([]byte, idxLen)
	if _, err := r.f.ReadAt(idx, idxOff); err != nil {
		return fmt.Errorf("%w: section index: %v", ErrTruncated, err)
	}
	if got := crc32.Checksum(idx, castagnoli); got != idxCRC {
		return fmt.Errorf("%w: section index CRC %08x, want %08x", ErrChecksum, got, idxCRC)
	}
	buf := make([]byte, verifyChunk)
	prevEnd := int64(headerLen)
	for i := 0; i < nsec; i++ {
		ent := idx[i*indexEntryLen:]
		kind := SectionKind(binary.LittleEndian.Uint32(ent[0:]))
		off := int64(binary.LittleEndian.Uint64(ent[8:]))
		slen := int64(binary.LittleEndian.Uint64(ent[16:]))
		crc := binary.LittleEndian.Uint32(ent[24:])
		if off%8 != 0 || off < prevEnd || off-prevEnd > 7 || slen < 0 || off+slen > idxOff {
			return &SectionError{Kind: kind, Offset: off,
				Err: fmt.Errorf("%w: extent [%d, %d) outside payload area [%d, %d)", ErrMalformed, off, off+slen, prevEnd, idxOff)}
		}
		if err := r.checkZeroPad(prevEnd, off, buf); err != nil {
			return &SectionError{Kind: kind, Offset: off, Err: err}
		}
		prevEnd = off + slen
		if _, dup := r.extents[kind]; dup {
			return &SectionError{Kind: kind, Offset: off, Err: fmt.Errorf("%w: duplicate section", ErrMalformed)}
		}
		if err := r.checkCRC(off, slen, crc, buf); err != nil {
			return &SectionError{Kind: kind, Offset: off, Err: err}
		}
		r.extents[kind] = extent{off: off, len: slen}
		var err error
		switch kind {
		case SectionMeta:
			var payload []byte
			if payload, err = r.payload(kind); err == nil {
				if err = json.Unmarshal(payload, &r.meta); err != nil {
					err = fmt.Errorf("%w: metadata: %v", ErrMalformed, err)
				}
			}
		case SectionSrcTable, SectionTgtTable:
			err = r.verifyTable(kind, off, slen)
		case SectionSrcVocab:
			var payload []byte
			if payload, err = r.payload(kind); err == nil {
				r.srcVocab, err = decodeVocab(payload)
			}
		case SectionTgtVocab:
			var payload []byte
			if payload, err = r.payload(kind); err == nil {
				r.tgtVocab, err = decodeVocab(payload)
			}
		case SectionIVFFwd, SectionIVFRev:
			err = r.verifyIVFShape(kind, off, slen)
		case SectionSQ8Src, SectionSQ8Tgt:
			err = r.verifySQ8Shape(kind, off, slen)
		default:
			err = fmt.Errorf("%w: unknown section kind", ErrMalformed)
		}
		if err != nil {
			return &SectionError{Kind: kind, Offset: off, Err: err}
		}
	}
	if idxOff-prevEnd > 7 {
		return fmt.Errorf("%w: %d unaccounted bytes before the section index", ErrMalformed, idxOff-prevEnd)
	}
	if err := r.checkZeroPad(prevEnd, idxOff, buf); err != nil {
		return fmt.Errorf("%w before the section index", err)
	}
	for _, required := range []SectionKind{SectionMeta, SectionSrcTable, SectionTgtTable, SectionSrcVocab, SectionTgtVocab} {
		if _, ok := r.extents[required]; !ok {
			return fmt.Errorf("%w: missing required section %v", ErrMalformed, required)
		}
	}
	return r.crossCheck()
}

// checkZeroPad verifies the ≤7 alignment bytes in [from, to) are zero.
func (r *Reader) checkZeroPad(from, to int64, buf []byte) error {
	if to <= from {
		return nil
	}
	n := to - from
	if _, err := r.f.ReadAt(buf[:n], from); err != nil {
		return fmt.Errorf("%w: alignment padding: %v", ErrTruncated, err)
	}
	for _, b := range buf[:n] {
		if b != 0 {
			return fmt.Errorf("%w: non-zero alignment padding", ErrMalformed)
		}
	}
	return nil
}

// checkCRC streams the payload at [off, off+slen) through CRC32C in
// verifyChunk-sized reads and compares against want.
func (r *Reader) checkCRC(off, slen int64, want uint32, buf []byte) error {
	var got uint32
	for done := int64(0); done < slen; {
		n := int64(len(buf))
		if n > slen-done {
			n = slen - done
		}
		if _, err := r.f.ReadAt(buf[:n], off+done); err != nil {
			return fmt.Errorf("%w: payload read at %d: %v", ErrTruncated, off+done, err)
		}
		got = crc32.Update(got, castagnoli, buf[:n])
		done += n
	}
	if got != want {
		return fmt.Errorf("%w: payload CRC %08x, want %08x", ErrChecksum, got, want)
	}
	return nil
}

// payload materializes one section's full payload — used for the small
// sections (metadata, vocabularies) and the on-demand index/code decoders.
func (r *Reader) payload(kind SectionKind) ([]byte, error) {
	ext, ok := r.extents[kind]
	if !ok {
		return nil, fmt.Errorf("%w: section %v not present", ErrMalformed, kind)
	}
	b := make([]byte, ext.len)
	if _, err := r.f.ReadAt(b, ext.off); err != nil {
		return nil, fmt.Errorf("%w: section %v: %v", ErrTruncated, kind, err)
	}
	return b, nil
}

// verifyTable checks an embedding-table section's shape prefix against its
// payload length (the same checks decodeTable performs) and records the
// slab geometry for SlabTable/mmap access.
func (r *Reader) verifyTable(kind SectionKind, off, slen int64) error {
	var pre [16]byte
	if slen < 16 {
		return ErrTruncated
	}
	if _, err := r.f.ReadAt(pre[:], off); err != nil {
		return fmt.Errorf("%w: table prefix: %v", ErrTruncated, err)
	}
	rows, cols := binary.LittleEndian.Uint64(pre[0:]), binary.LittleEndian.Uint64(pre[8:])
	if rows > 1<<40 || cols > 1<<40 {
		return fmt.Errorf("%w: implausible dimension %d×%d", ErrMalformed, rows, cols)
	}
	if rows == 0 || cols == 0 {
		return fmt.Errorf("%w: empty table %d×%d", ErrMalformed, rows, cols)
	}
	if want := int64(rows)*int64(cols)*8 + 16; want != slen {
		return fmt.Errorf("%w: table claims %d×%d (%d bytes) but payload holds %d",
			ErrMalformed, rows, cols, want-16, slen-16)
	}
	r.tables[kind] = tableShape{rows: int(rows), cols: int(cols), dataOff: off + 16}
	return nil
}

// verifyIVFShape checks an IVF section's shape prefix against its payload
// length — the geometry checks of decodeIVF without materializing the slabs.
func (r *Reader) verifyIVFShape(kind SectionKind, off, slen int64) error {
	var pre [24]byte
	if slen < 24 {
		return ErrTruncated
	}
	if _, err := r.f.ReadAt(pre[:], off); err != nil {
		return fmt.Errorf("%w: index prefix: %v", ErrTruncated, err)
	}
	dim := binary.LittleEndian.Uint64(pre[0:])
	n := binary.LittleEndian.Uint64(pre[8:])
	k := binary.LittleEndian.Uint64(pre[16:])
	if dim > 1<<40 || n > 1<<40 || k > 1<<40 {
		return fmt.Errorf("%w: implausible dimension", ErrMalformed)
	}
	if dim == 0 || n == 0 || k == 0 {
		return fmt.Errorf("%w: index claims shape dim=%d n=%d k=%d", ErrMalformed, dim, n, k)
	}
	want := int64(k)*int64(dim)*8 + int64(k+1)*8 + int64(n)*4 + int64(n)*int64(dim)*8
	if n%2 != 0 {
		want += 4
	}
	if want+24 != slen {
		return fmt.Errorf("%w: index claims %d payload bytes, section holds %d", ErrMalformed, want, slen-24)
	}
	return nil
}

// verifySQ8Shape checks an SQ8 section's shape prefix against its payload
// length — the geometry checks of decodeSQ8 without materializing the codes.
func (r *Reader) verifySQ8Shape(kind SectionKind, off, slen int64) error {
	var pre [16]byte
	if slen < 16 {
		return ErrTruncated
	}
	if _, err := r.f.ReadAt(pre[:], off); err != nil {
		return fmt.Errorf("%w: SQ8 prefix: %v", ErrTruncated, err)
	}
	rows, dim := binary.LittleEndian.Uint64(pre[0:]), binary.LittleEndian.Uint64(pre[8:])
	if rows > 1<<40 || dim > 1<<40 {
		return fmt.Errorf("%w: implausible dimension", ErrMalformed)
	}
	if rows == 0 || dim == 0 {
		return fmt.Errorf("%w: SQ8 table claims shape %d×%d", ErrMalformed, rows, dim)
	}
	if want := int64(dim)*8 + int64(rows)*int64(dim) + 16; want != slen {
		return fmt.Errorf("%w: SQ8 table claims %d payload bytes, section holds %d", ErrMalformed, want-16, slen-16)
	}
	return nil
}

// crossCheck mirrors Snapshot.Validate's metadata-level consistency checks.
// The deep structural invariants of the index and code slabs (list pointers,
// ID permutations, scale positivity) are enforced by ann.FromData /
// quant.FromData when a caller materializes those sections.
func (r *Reader) crossCheck() error {
	src, okS := r.tables[SectionSrcTable]
	tgt, okT := r.tables[SectionTgtTable]
	if !okS || !okT {
		return fmt.Errorf("%w: missing embedding table", ErrMalformed)
	}
	if src.cols != tgt.cols {
		return fmt.Errorf("%w: table dims differ: %d vs %d", ErrMalformed, src.cols, tgt.cols)
	}
	if r.meta.SrcRows != src.rows || r.meta.TgtRows != tgt.rows || r.meta.Dim != src.cols {
		return fmt.Errorf("%w: metadata says %d/%d rows × %d dims, tables are %d/%d × %d", ErrMalformed,
			r.meta.SrcRows, r.meta.TgtRows, r.meta.Dim, src.rows, tgt.rows, src.cols)
	}
	if len(r.srcVocab) != src.rows {
		return fmt.Errorf("%w: %d source names for %d table rows", ErrMalformed, len(r.srcVocab), src.rows)
	}
	if len(r.tgtVocab) != tgt.rows {
		return fmt.Errorf("%w: %d target names for %d table rows", ErrMalformed, len(r.tgtVocab), tgt.rows)
	}
	_, fwd := r.extents[SectionIVFFwd]
	_, rev := r.extents[SectionIVFRev]
	if fwd != (r.meta.ANN != nil) {
		return fmt.Errorf("%w: index sections and ANN metadata disagree", ErrMalformed)
	}
	if rev && !fwd {
		return fmt.Errorf("%w: reverse index without a forward index", ErrMalformed)
	}
	_, qs := r.extents[SectionSQ8Src]
	_, qt := r.extents[SectionSQ8Tgt]
	if qs != qt {
		return fmt.Errorf("%w: SQ8 sections must cover both tables or neither", ErrMalformed)
	}
	if qs != (r.meta.Quant != nil) {
		return fmt.Errorf("%w: SQ8 sections and quant metadata disagree", ErrMalformed)
	}
	if qs && r.meta.Quant.RerankFactor < 0 {
		return fmt.Errorf("%w: negative rerank factor %d", ErrMalformed, r.meta.Quant.RerankFactor)
	}
	return nil
}

// Meta returns the decoded metadata section.
func (r *Reader) Meta() Meta { return r.meta }

// Vocabs returns the decoded entity-name lists (callers must not mutate).
func (r *Reader) Vocabs() (src, tgt []string) { return r.srcVocab, r.tgtVocab }

// Has reports whether the snapshot carries the section.
func (r *Reader) Has(kind SectionKind) bool {
	_, ok := r.extents[kind]
	return ok
}

// Size returns the snapshot file size in bytes.
func (r *Reader) Size() int64 { return r.size }

// Table returns a chunked-ReadAt view of an embedding-table section — the
// portable out-of-core access path. kind must be SectionSrcTable or
// SectionTgtTable.
func (r *Reader) Table(kind SectionKind) (*matrix.SlabTable, error) {
	ts, ok := r.tables[kind]
	if !ok {
		return nil, fmt.Errorf("%w: no table section %v", ErrMalformed, kind)
	}
	return matrix.NewSlabTable(r.f, ts.dataOff, ts.rows, ts.cols)
}

// IVF materializes an index section on demand (SectionIVFFwd/SectionIVFRev).
// The returned data passes decodeIVF's structural checks; callers running it
// through ann.FromData get the deep invariants too.
func (r *Reader) IVF(kind SectionKind) (*ann.IVFData, error) {
	payload, err := r.payload(kind)
	if err != nil {
		return nil, err
	}
	return decodeIVF(payload)
}

// SQ8 materializes a quantized-table section on demand (SectionSQ8Src/
// SectionSQ8Tgt). SQ8 codes are 8× smaller than the float slabs — this is
// the section an out-of-core quantized scan resides in RAM, instead of the
// embedding tables.
func (r *Reader) SQ8(kind SectionKind) (*quant.TableData, error) {
	payload, err := r.payload(kind)
	if err != nil {
		return nil, err
	}
	return decodeSQ8(payload)
}

// Mapped assembles the in-memory snapshot view over the verified file with
// the embedding tables mmapped (valid until Close) and the small sections
// loaded normally. The IVF sections (table-sized slabs) and the SQ8 sections
// (an eighth of that) are decoded only on request; a class left out is
// dropped from the view's metadata too, so the view validates as a snapshot
// saved without it. Fails with ErrMmapUnsupported where tables cannot be
// aliased — callers then fall back to Table's chunked-ReadAt views or to a
// full Load.
func (r *Reader) Mapped(index, codes bool) (*Snapshot, error) {
	src, err := r.MapTable(SectionSrcTable)
	if err != nil {
		return nil, err
	}
	tgt, err := r.MapTable(SectionTgtTable)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Meta: r.meta, SrcTable: src, TgtTable: tgt, SrcVocab: r.srcVocab, TgtVocab: r.tgtVocab}
	if index && r.Has(SectionIVFFwd) {
		if snap.FwdIndex, err = r.IVF(SectionIVFFwd); err != nil {
			return nil, err
		}
		if r.Has(SectionIVFRev) {
			if snap.RevIndex, err = r.IVF(SectionIVFRev); err != nil {
				return nil, err
			}
		}
	} else {
		snap.Meta.ANN = nil
	}
	if codes && r.Has(SectionSQ8Src) {
		if snap.SrcQuant, err = r.SQ8(SectionSQ8Src); err != nil {
			return nil, err
		}
		if snap.TgtQuant, err = r.SQ8(SectionSQ8Tgt); err != nil {
			return nil, err
		}
	} else {
		snap.Meta.Quant = nil
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// Close unmaps any mmapped table sections and closes the file. Every
// SlabTable and mmapped Dense served by this Reader is invalid afterwards.
func (r *Reader) Close() error {
	r.mu.Lock()
	maps := r.maps
	r.maps = nil
	r.mu.Unlock()
	var first error
	for _, m := range maps {
		if err := munmap(m); err != nil && first == nil {
			first = err
		}
	}
	if err := r.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
