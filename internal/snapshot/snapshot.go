// Package snapshot persists prepared matching state — the unit-normalized
// embedding tables the similarity stream scores with, the entity name
// vocabularies, and optionally the IVF index slabs — in a versioned,
// integrity-checked binary format, so a long-lived server (cmd/entserver) or
// a repeated benchmark run loads in seconds what preparation recomputes in
// minutes.
//
// # Format
//
// A snapshot file is, in order:
//
//	header   (24 B)  magic "ENTSNAP\x01", format version, section count
//	payloads         one blob per section, each 8-byte aligned
//	index            32 B per section: kind, offset, length, CRC32C
//	footer   (32 B)  index offset/length, index CRC32C, version echo,
//	                 tail magic "PANSTNE\x01"
//
// Every payload carries its own CRC32C (Castagnoli) in the index, the index
// carries its own CRC in the footer, and the footer sits at the very end of
// the file — so a truncated or torn file fails the tail-magic/extent check,
// a bit flip anywhere fails a checksum, and a version skew fails the header
// check, each with a distinct typed error. Loading never trusts a length or
// offset it has not bounds-checked, and Write goes temp file → fsync →
// atomic rename, so a crash mid-write can never leave a half-written
// snapshot visible under the target path.
//
// The layout is mmap-friendly: numeric slabs are little-endian, 8-byte
// aligned, and contiguous per section. Reader is the one parser: every load
// mode — Decode and Load (heap copies), Reader.Mapped (tables aliased in
// place), Reader.Table (chunked ReadAt) — is its validation walk plus a
// view; see Reader for what is checked at open and what at materialization.
package snapshot

import (
	"errors"
	"fmt"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// Version is the current format version. A file with any other version is
// rejected with ErrVersion: format evolution is explicit, never guessed.
const Version = 1

// DefaultMaxBytes bounds how large a file Load will read — an integrity
// guard against serving a path that points at something absurd (or a
// corrupted length field upstream), not a statement about real corpus size;
// LoadLimit lifts it for genuinely bigger snapshots.
const DefaultMaxBytes = 8 << 30

var (
	headMagic = [8]byte{'E', 'N', 'T', 'S', 'N', 'A', 'P', 1}
	tailMagic = [8]byte{'P', 'A', 'N', 'S', 'T', 'N', 'E', 1}
)

// Typed load errors, for errors.Is dispatch. Every way a snapshot can be
// bad maps to exactly one of these; Load never returns partially decoded
// data alongside them.
var (
	// ErrNotSnapshot reports a file that does not begin with the snapshot
	// magic — not ours, or overwritten.
	ErrNotSnapshot = errors.New("snapshot: bad magic, not a snapshot file")
	// ErrVersion reports a format version this build does not speak.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated reports a file that ends before its own structure does —
	// a torn final write, a partial copy, or a crashed non-atomic writer.
	ErrTruncated = errors.New("snapshot: truncated or torn snapshot")
	// ErrChecksum reports a CRC32C mismatch: the bytes changed after they
	// were written.
	ErrChecksum = errors.New("snapshot: checksum mismatch, corrupt snapshot")
	// ErrMalformed reports structure that checksums correctly but violates
	// the format contract (overlapping sections, impossible dimensions,
	// duplicate or unknown section kinds, inconsistent metadata).
	ErrMalformed = errors.New("snapshot: malformed snapshot")
	// ErrTooLarge reports a file or section larger than the loader's limit.
	ErrTooLarge = errors.New("snapshot: exceeds size limit")
	// ErrMismatch reports a structurally valid snapshot that does not match
	// what the caller asked for — wrong dataset, wrong evaluation setting,
	// wrong metric, or an ANN cluster count that contradicts the requested
	// configuration. Callers reject instead of silently rebuilding.
	ErrMismatch = errors.New("snapshot: snapshot does not match the requested configuration")
	// ErrMmapUnsupported reports that this platform or build cannot alias
	// table sections in place (see Reader.MapTable); callers fall back to
	// the chunked-ReadAt slab view.
	ErrMmapUnsupported = errors.New("snapshot: mmap table aliasing unsupported on this platform/build")
)

// SectionKind identifies one section of the file.
type SectionKind uint32

// The section kinds of format version 1.
const (
	SectionMeta     SectionKind = 1 // JSON metadata
	SectionSrcTable SectionKind = 2 // prepared source embedding table
	SectionTgtTable SectionKind = 3 // prepared target embedding table
	SectionSrcVocab SectionKind = 4 // source entity names, one per table row
	SectionTgtVocab SectionKind = 5 // target entity names, one per table row
	SectionIVFFwd   SectionKind = 6 // forward IVF index (over the target table)
	SectionIVFRev   SectionKind = 7 // reverse IVF index (over the source table)
	SectionSQ8Src   SectionKind = 8 // SQ8 codes of the source table
	SectionSQ8Tgt   SectionKind = 9 // SQ8 codes of the target table

	// The SQ8 sections are OPTIONAL additions within format version 1: a
	// version-1 file without them decodes exactly as before, so snapshots
	// written by earlier builds keep loading. A file carrying them is only
	// readable by builds that know kinds 8/9 — older loaders reject the
	// unknown kind with ErrMalformed rather than silently dropping the
	// quantized tables.
)

var kindNames = [...]string{
	SectionMeta: "meta", SectionSrcTable: "src-table", SectionTgtTable: "tgt-table",
	SectionSrcVocab: "src-vocab", SectionTgtVocab: "tgt-vocab",
	SectionIVFFwd: "ivf-fwd", SectionIVFRev: "ivf-rev", SectionSQ8Src: "sq8-src", SectionSQ8Tgt: "sq8-tgt",
}

// String names the kind for error messages.
func (k SectionKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint32(k))
}

// SectionError locates a typed error in a specific section of the file.
type SectionError struct {
	Kind   SectionKind
	Offset int64
	Err    error
}

// Error formats the location and cause.
func (e *SectionError) Error() string {
	return fmt.Sprintf("snapshot: section %v at offset %d: %v", e.Kind, e.Offset, e.Err)
}

// Unwrap exposes the typed cause to errors.Is.
func (e *SectionError) Unwrap() error { return e.Err }

// ANNMeta records the configuration the persisted IVF indexes were built
// with, so a load can verify the caller's requested index parameters against
// what the slabs actually embody.
type ANNMeta struct {
	Clusters   int   `json:"clusters"`
	NProbe     int   `json:"nprobe"`
	SampleSize int   `json:"sample_size"`
	Iters      int   `json:"iters"`
	Seed       int64 `json:"seed"`
}

// QuantMeta records the quantized-scan configuration the persisted SQ8
// tables were written under, so a load can verify the caller's requested
// quantization against what the snapshot carries.
type QuantMeta struct {
	// RerankFactor is the pool over-fetch multiplier recorded at save time
	// (0 = the default); the server and a loading pipeline may override it
	// per query — it parameterizes the scan, not the codes.
	RerankFactor int `json:"rerank_factor"`
	// Rerank records whether the saving run used the exact float64 re-rank
	// (true) or the quantized-only escape hatch.
	Rerank bool `json:"rerank"`
}

// Meta is the snapshot's JSON metadata section: enough context to verify a
// snapshot against the run that wants to use it, without re-deriving
// anything from the payload sections.
type Meta struct {
	// Tool names the producer, e.g. "entmatcher".
	Tool string `json:"tool"`
	// Metric is the sim.Metric the tables are prepared for.
	Metric uint32 `json:"metric"`
	// Setting and Features echo the pipeline configuration whose task
	// selected the table rows; a load under a different configuration is a
	// mismatch, not a reinterpretation.
	Setting  uint32 `json:"setting"`
	Features uint32 `json:"features"`
	// SrcRows, TgtRows, Dim mirror the table shapes; the loader cross-checks
	// them against the decoded sections.
	SrcRows int `json:"src_rows"`
	TgtRows int `json:"tgt_rows"`
	Dim     int `json:"dim"`
	// ANN is non-nil exactly when IVF sections are present.
	ANN *ANNMeta `json:"ann,omitempty"`
	// Quant is non-nil exactly when SQ8 sections are present.
	Quant *QuantMeta `json:"quant,omitempty"`
	// CreatedUnix is the write time (seconds); informational only.
	CreatedUnix int64 `json:"created_unix"`
}

// Snapshot is the in-memory form of a snapshot file.
type Snapshot struct {
	Meta     Meta
	SrcTable *matrix.Dense // prepared rows (unit-normalized for cosine)
	TgtTable *matrix.Dense
	SrcVocab []string         // entity name per source table row
	TgtVocab []string         // entity name per target table row
	FwdIndex *ann.IVFData     // nil when no index was persisted
	RevIndex *ann.IVFData     // nil when only the forward index was persisted
	SrcQuant *quant.TableData // nil when no SQ8 tables were persisted
	TgtQuant *quant.TableData // always present together with SrcQuant
}

// shape is the geometry a numeric section declares in its prefix: the
// rows×dim slab it holds (embedding tables, SQ8 codes) or covers (an IVF
// index, whose cluster count is k).
type shape struct{ rows, dim, k int }

// layout is a snapshot reduced to what its metadata, vocabulary lengths and
// section shapes say (a nil shape is an absent section). The consistency
// rules between sections are stated on it once: Snapshot.Validate fills it
// from in-memory objects, the Reader from section prefixes at open time.
type layout struct {
	meta               *Meta
	src, tgt           *shape
	srcNames, tgtNames int
	fwd, rev           *shape
	srcQ, tgtQ         *shape
}

// check applies every metadata/shape consistency rule of the format.
func (l layout) check() error {
	src, tgt := l.src, l.tgt
	if src == nil || tgt == nil {
		return fmt.Errorf("%w: missing embedding table", ErrMalformed)
	}
	if src.dim != tgt.dim {
		return fmt.Errorf("%w: table dims differ: %d vs %d", ErrMalformed, src.dim, tgt.dim)
	}
	if src.rows == 0 || tgt.rows == 0 || src.dim == 0 {
		return fmt.Errorf("%w: empty embedding table (%d×%d source, %d×%d target)", ErrMalformed,
			src.rows, src.dim, tgt.rows, tgt.dim)
	}
	if l.meta.SrcRows != src.rows || l.meta.TgtRows != tgt.rows || l.meta.Dim != src.dim {
		return fmt.Errorf("%w: metadata says %d/%d rows × %d dims, tables are %d/%d × %d", ErrMalformed,
			l.meta.SrcRows, l.meta.TgtRows, l.meta.Dim, src.rows, tgt.rows, src.dim)
	}
	if l.srcNames != src.rows {
		return fmt.Errorf("%w: %d source names for %d table rows", ErrMalformed, l.srcNames, src.rows)
	}
	if l.tgtNames != tgt.rows {
		return fmt.Errorf("%w: %d target names for %d table rows", ErrMalformed, l.tgtNames, tgt.rows)
	}
	if (l.fwd != nil) != (l.meta.ANN != nil) {
		return fmt.Errorf("%w: index sections and ANN metadata disagree", ErrMalformed)
	}
	if l.rev != nil && l.fwd == nil {
		return fmt.Errorf("%w: reverse index without a forward index", ErrMalformed)
	}
	if (l.srcQ != nil) != (l.tgtQ != nil) {
		return fmt.Errorf("%w: SQ8 sections must cover both tables or neither", ErrMalformed)
	}
	if (l.srcQ != nil) != (l.meta.Quant != nil) {
		return fmt.Errorf("%w: SQ8 sections and quant metadata disagree", ErrMalformed)
	}
	for _, c := range []struct {
		what       string
		sec, table *shape
	}{
		{"forward index", l.fwd, tgt}, {"reverse index", l.rev, src},
		{"SQ8 source codes", l.srcQ, src}, {"SQ8 target codes", l.tgtQ, tgt},
	} {
		if c.sec != nil && (c.sec.rows != c.table.rows || c.sec.dim != c.table.dim) {
			return fmt.Errorf("%w: %s covers %d×%d but its table is %d×%d", ErrMalformed,
				c.what, c.sec.rows, c.sec.dim, c.table.rows, c.table.dim)
		}
	}
	if l.fwd != nil && l.meta.ANN.Clusters != l.fwd.k {
		return fmt.Errorf("%w: ANN metadata says %d clusters, forward index has %d", ErrMalformed,
			l.meta.ANN.Clusters, l.fwd.k)
	}
	if l.srcQ != nil && l.meta.Quant.RerankFactor < 0 {
		return fmt.Errorf("%w: negative rerank factor %d", ErrMalformed, l.meta.Quant.RerankFactor)
	}
	return nil
}

// Validate cross-checks the snapshot's internal consistency: the layout
// rules (table shapes against metadata, vocabulary lengths against table
// rows, index and code sections against the tables they claim to cover),
// then the deep slab invariants ann.FromData and quant.FromData enforce.
// Both the writer and every materializing load call it, so neither a bad
// producer nor a checksum-passing-but-inconsistent file gets through.
func (s *Snapshot) Validate() error {
	l := layout{meta: &s.Meta, srcNames: len(s.SrcVocab), tgtNames: len(s.TgtVocab)}
	if t := s.SrcTable; t != nil {
		l.src = &shape{rows: t.Rows(), dim: t.Cols()}
	}
	if t := s.TgtTable; t != nil {
		l.tgt = &shape{rows: t.Rows(), dim: t.Cols()}
	}
	if d := s.FwdIndex; d != nil {
		l.fwd = &shape{rows: d.N, dim: d.Dim, k: d.K}
	}
	if d := s.RevIndex; d != nil {
		l.rev = &shape{rows: d.N, dim: d.Dim, k: d.K}
	}
	if d := s.SrcQuant; d != nil {
		l.srcQ = &shape{rows: d.Rows, dim: d.Dim}
	}
	if d := s.TgtQuant; d != nil {
		l.tgtQ = &shape{rows: d.Rows, dim: d.Dim}
	}
	if err := l.check(); err != nil {
		return err
	}
	if s.FwdIndex != nil {
		if _, err := ann.FromData(s.FwdIndex); err != nil {
			return fmt.Errorf("%w: forward index: %v", ErrMalformed, err)
		}
	}
	if s.RevIndex != nil {
		if _, err := ann.FromData(s.RevIndex); err != nil {
			return fmt.Errorf("%w: reverse index: %v", ErrMalformed, err)
		}
	}
	if s.SrcQuant != nil {
		if _, err := quant.FromData(s.SrcQuant); err != nil {
			return fmt.Errorf("%w: SQ8 source codes: %v", ErrMalformed, err)
		}
		if _, err := quant.FromData(s.TgtQuant); err != nil {
			return fmt.Errorf("%w: SQ8 target codes: %v", ErrMalformed, err)
		}
	}
	return nil
}
