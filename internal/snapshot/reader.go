package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// verifyChunk bounds the scratch buffer of the streaming CRC pass: opening a
// snapshot never allocates proportionally to the file.
const verifyChunk = 1 << 20

// tablePrefixLen is the rows/cols prefix ahead of a table section's slab.
const tablePrefixLen = 16

// Reader is the one parser of the snapshot format. Opening it runs the
// validation walk — header, footer, index CRC, section extents, zero padding,
// every payload CRC32C streamed through a fixed-size buffer, every numeric
// section's shape prefix, and the cross-section layout rules — and decodes
// only the small sections (metadata, vocabularies). Every load mode sits on
// top: Decode and Load materialize all sections from it, Mapped aliases the
// tables, Table serves them through chunked ReadAt.
//
// The open-time contract: everything checkable in O(verifyChunk) memory is
// checked at open. The deep slab invariants (ann.FromData's list pointers
// and ID permutation, quant.FromData's scales and code range) are checked
// when a section is materialized — by IVF/SQ8 callers, and by the Validate
// that ends Mapped and Materialize. Materializing re-reads the section and
// re-verifies its CRC, so bytes that changed after open are ErrChecksum, not
// wrong data; table rows served through Table or a mapping are not
// re-verified per read.
//
// A Reader is safe for concurrent use after open. Close unmaps and closes
// the file: every SlabTable and mmapped Dense obtained from the Reader is
// invalid afterwards.
type Reader struct {
	src   io.ReaderAt
	f     *os.File // src when file-backed: what MapTable maps and Close closes
	image []byte   // src's bytes when it is an in-memory image (Decode): payloads are used in place
	size  int64

	meta     Meta
	srcVocab []string
	tgtVocab []string
	sections map[SectionKind]*section

	mu   sync.Mutex
	maps [][]byte // active mmap regions, unmapped on Close
}

// section is one verified index entry; shape is set for numeric sections.
type section struct {
	off, len int64
	crc      uint32
	shape    shape
}

// OpenReader opens and verifies the snapshot at path under the
// DefaultMaxBytes limit, without materializing the numeric slabs.
func OpenReader(path string) (*Reader, error) {
	return OpenReaderLimit(path, DefaultMaxBytes)
}

// VerifyFile is the size-bounded integrity check for snapshots too large to
// (or never needed to) reside in RAM: it opens and closes a Reader, so it
// reports exactly what the open-time contract covers — every structural and
// layout check and every CRC a Load performs, in O(verifyChunk) memory, but
// not the deep slab invariants a Load additionally enforces.
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
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > maxBytes {
		err = fmt.Errorf("%w: %s is %d bytes, limit %d", ErrTooLarge, path, fi.Size(), maxBytes)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := newReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.f = f
	return r, nil
}

// newReader runs the validation walk over any random-access source — the
// seam the fault-injection tests interpose fault.ReaderAt on.
func newReader(src io.ReaderAt, size int64) (*Reader, error) {
	r := &Reader{src: src, size: size}
	if err := r.walk(); err != nil {
		return nil, err
	}
	return r, nil
}

// read fills p from offset off; any failure is a file shorter (or less
// readable) than its own structure claims.
func (r *Reader) read(p []byte, off int64, what string) error {
	if n, err := r.src.ReadAt(p, off); n < len(p) {
		return fmt.Errorf("%w: %s: %v", ErrTruncated, what, err)
	}
	return nil
}

// walk is the format's validation walk; see Reader for what it covers.
func (r *Reader) walk() error {
	size := r.size
	if size < headerLen+footerLen {
		return fmt.Errorf("%w: %d bytes is smaller than the fixed structure", ErrTruncated, size)
	}
	var head [headerLen]byte
	if err := r.read(head[:], 0, "header"); err != nil {
		return err
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
	// Footer: its tail magic sits at the very end of the file, so any
	// truncation or torn final write destroys it.
	var foot [footerLen]byte
	if err := r.read(foot[:], size-footerLen, "footer"); err != nil {
		return err
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
	if err := r.read(idx, idxOff, "section index"); err != nil {
		return err
	}
	if got := crc32.Checksum(idx, castagnoli); got != idxCRC {
		return fmt.Errorf("%w: section index CRC %08x, want %08x", ErrChecksum, got, idxCRC)
	}
	// Entries must be in file order, non-overlapping, aligned and within the
	// payload area; every byte between them is zero padding, so every byte of
	// the file is covered by some integrity check.
	buf := make([]byte, min(verifyChunk, size))
	r.sections = make(map[SectionKind]*section)
	prevEnd := int64(headerLen)
	for i := 0; i < nsec; i++ {
		ent := idx[i*indexEntryLen:]
		kind := SectionKind(binary.LittleEndian.Uint32(ent[0:]))
		sec := &section{
			off: int64(binary.LittleEndian.Uint64(ent[8:])),
			len: int64(binary.LittleEndian.Uint64(ent[16:])),
			crc: binary.LittleEndian.Uint32(ent[24:]),
		}
		if err := r.admit(kind, sec, prevEnd, idxOff, buf); err != nil {
			return &SectionError{Kind: kind, Offset: sec.off, Err: err}
		}
		prevEnd = sec.off + sec.len
	}
	if idxOff-prevEnd > 7 {
		return fmt.Errorf("%w: %d unaccounted bytes before the section index", ErrMalformed, idxOff-prevEnd)
	}
	if err := r.checkZeroPad(prevEnd, idxOff, buf); err != nil {
		return fmt.Errorf("%w before the section index", err)
	}
	for _, required := range []SectionKind{SectionMeta, SectionSrcTable, SectionTgtTable, SectionSrcVocab, SectionTgtVocab} {
		if !r.Has(required) {
			return fmt.Errorf("%w: missing required section %v", ErrMalformed, required)
		}
	}
	return layout{
		meta: &r.meta,
		src:  r.shapeOf(SectionSrcTable), tgt: r.shapeOf(SectionTgtTable),
		srcNames: len(r.srcVocab), tgtNames: len(r.tgtVocab),
		fwd: r.shapeOf(SectionIVFFwd), rev: r.shapeOf(SectionIVFRev),
		srcQ: r.shapeOf(SectionSQ8Src), tgtQ: r.shapeOf(SectionSQ8Tgt),
	}.check()
}

// admit verifies one index entry — extent, leading padding, uniqueness,
// payload CRC, then the kind's own content: the small sections are decoded,
// the numeric ones have their shape prefix checked — and records it.
func (r *Reader) admit(kind SectionKind, sec *section, prevEnd, idxOff int64, buf []byte) (err error) {
	if sec.off%8 != 0 || sec.off < prevEnd || sec.off-prevEnd > 7 || sec.len < 0 || sec.len > idxOff-sec.off {
		return fmt.Errorf("%w: extent [%d, %d+%d) outside payload area [%d, %d)", ErrMalformed, sec.off, sec.off, sec.len, prevEnd, idxOff)
	}
	if err := r.checkZeroPad(prevEnd, sec.off, buf); err != nil {
		return err
	}
	if r.Has(kind) {
		return fmt.Errorf("%w: duplicate section", ErrMalformed)
	}
	if err := r.checkCRC(sec, buf); err != nil {
		return err
	}
	r.sections[kind] = sec
	var payload []byte
	switch kind {
	case SectionMeta:
		if payload, err = r.payload(kind); err == nil {
			if err = json.Unmarshal(payload, &r.meta); err != nil {
				err = fmt.Errorf("%w: metadata: %v", ErrMalformed, err)
			}
		}
	case SectionSrcVocab:
		if payload, err = r.payload(kind); err == nil {
			r.srcVocab, err = decodeVocab(payload)
		}
	case SectionTgtVocab:
		if payload, err = r.payload(kind); err == nil {
			r.tgtVocab, err = decodeVocab(payload)
		}
	case SectionSrcTable, SectionTgtTable:
		sec.shape, err = r.prefix(sec, tableShape)
	case SectionIVFFwd, SectionIVFRev:
		sec.shape, err = r.prefix(sec, ivfShape)
	case SectionSQ8Src, SectionSQ8Tgt:
		sec.shape, err = r.prefix(sec, sq8Shape)
	default:
		err = fmt.Errorf("%w: unknown section kind", ErrMalformed)
	}
	return err
}

// checkZeroPad verifies the ≤7 alignment bytes in [from, to) are zero.
func (r *Reader) checkZeroPad(from, to int64, buf []byte) error {
	if to <= from {
		return nil
	}
	pad := buf[:to-from]
	if err := r.read(pad, from, "alignment padding"); err != nil {
		return err
	}
	for _, b := range pad {
		if b != 0 {
			return fmt.Errorf("%w: non-zero alignment padding", ErrMalformed)
		}
	}
	return nil
}

// checkCRC streams a section's payload through CRC32C in buf-sized reads
// (an in-memory image is checksummed where it lies).
func (r *Reader) checkCRC(sec *section, buf []byte) error {
	var got uint32
	if r.image != nil {
		got = crc32.Checksum(r.image[sec.off:sec.off+sec.len], castagnoli)
	} else {
		for done := int64(0); done < sec.len; {
			chunk := buf[:min(int64(len(buf)), sec.len-done)]
			if err := r.read(chunk, sec.off+done, "payload"); err != nil {
				return err
			}
			got = crc32.Update(got, castagnoli, chunk)
			done += int64(len(chunk))
		}
	}
	if got != sec.crc {
		return fmt.Errorf("%w: payload CRC %08x, want %08x", ErrChecksum, got, sec.crc)
	}
	return nil
}

// prefix applies a shape rule (decode.go) to the head of a numeric section.
func (r *Reader) prefix(sec *section, rule func(*cursor, int64) (shape, error)) (shape, error) {
	pre := make([]byte, min(24, sec.len))
	if err := r.read(pre, sec.off, "shape prefix"); err != nil {
		return shape{}, err
	}
	return rule(&cursor{b: pre}, sec.len)
}

// payload materializes one section's full payload. Bytes read back from the
// source are re-verified against the section CRC: they may have changed
// since the open-time pass.
func (r *Reader) payload(kind SectionKind) ([]byte, error) {
	sec, ok := r.sections[kind]
	if !ok {
		return nil, fmt.Errorf("%w: section %v not present", ErrMalformed, kind)
	}
	if r.image != nil {
		return r.image[sec.off : sec.off+sec.len], nil
	}
	b := make([]byte, sec.len)
	if err := r.read(b, sec.off, "section "+kind.String()); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(b, castagnoli); got != sec.crc {
		return nil, fmt.Errorf("%w: section %v changed since open: payload CRC %08x, want %08x", ErrChecksum, kind, got, sec.crc)
	}
	return b, nil
}

// shapeOf returns a numeric section's verified shape, nil when absent.
func (r *Reader) shapeOf(kind SectionKind) *shape {
	if sec, ok := r.sections[kind]; ok {
		return &sec.shape
	}
	return nil
}

// table returns an embedding-table section (SectionSrcTable/SectionTgtTable).
func (r *Reader) table(kind SectionKind) (*section, error) {
	sec, ok := r.sections[kind]
	if !ok || (kind != SectionSrcTable && kind != SectionTgtTable) {
		return nil, fmt.Errorf("%w: no table section %v", ErrMalformed, kind)
	}
	return sec, nil
}

// Meta returns the decoded metadata section.
func (r *Reader) Meta() Meta { return r.meta }

// Vocabs returns the decoded entity-name lists (callers must not mutate).
func (r *Reader) Vocabs() (src, tgt []string) { return r.srcVocab, r.tgtVocab }

// Has reports whether the snapshot carries the section.
func (r *Reader) Has(kind SectionKind) bool {
	_, ok := r.sections[kind]
	return ok
}

// Table returns a chunked-ReadAt view of an embedding-table section — the
// portable out-of-core access path. kind must be SectionSrcTable or
// SectionTgtTable.
func (r *Reader) Table(kind SectionKind) (*matrix.SlabTable, error) {
	sec, err := r.table(kind)
	if err != nil {
		return nil, err
	}
	return matrix.NewSlabTable(r.src, sec.off+tablePrefixLen, sec.shape.rows, sec.shape.dim)
}

// heapTable materializes an embedding-table section as a heap Dense.
func (r *Reader) heapTable(kind SectionKind) (*matrix.Dense, error) {
	payload, err := r.payload(kind)
	if err != nil {
		return nil, err
	}
	return decodeTable(payload)
}

// IVF materializes an index section on demand (SectionIVFFwd/SectionIVFRev).
// The returned data has the shape its prefix declares; callers running it
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
// aliased — callers then fall back to Table's chunked-ReadAt views or to
// Materialize.
func (r *Reader) Mapped(index, codes bool) (*Snapshot, error) {
	return r.view(r.MapTable, index, codes)
}

// Materialize decodes every section into heap copies and deep-validates the
// result — the full load, from the file this Reader already verified. The
// snapshot does not alias the Reader and stays valid after Close.
func (r *Reader) Materialize() (*Snapshot, error) {
	return r.view(r.heapTable, true, true)
}

// view is the one materialize step: tables through table, the sections
// decoded at open as they are, index and code sections on request, then the
// snapshot's own Validate — never a partially filled Snapshot.
func (r *Reader) view(table func(SectionKind) (*matrix.Dense, error), index, codes bool) (*Snapshot, error) {
	src, err := table(SectionSrcTable)
	if err != nil {
		return nil, err
	}
	tgt, err := table(SectionTgtTable)
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
	if r.f != nil {
		if err := r.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
