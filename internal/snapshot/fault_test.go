package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"entmatcher/internal/fault"
	"entmatcher/internal/matrix"
)

// faultImage is a snapshot with every optional section (both indexes, SQ8).
func faultImage(t *testing.T) []byte {
	t.Helper()
	snap := testSnapshot(t, 7, 6, 4, true)
	addQuant(t, snap)
	return encode(t, snap)
}

// injections are the three disk faults fault.ReaderAt models, each at off.
func injections(off int64) map[string]fault.IOInjection {
	eio, torn, flip := fault.NoInjection(), fault.NoInjection(), fault.NoInjection()
	eio.ErrAt, torn.TruncateAt, flip.FlipAt, flip.FlipMask = off, off, off, 0x10
	return map[string]fault.IOInjection{"EIO": eio, "truncate": torn, "flip": flip}
}

// isTyped reports whether err is one of the package's typed load errors.
func isTyped(err error) bool {
	for _, want := range []error{ErrNotSnapshot, ErrVersion, ErrTruncated, ErrChecksum, ErrMalformed} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestReaderFaultsAtOpen injects a read error, a truncation and a bit flip at
// the first and last byte of the header, the footer, the index and every
// section while the Reader opens. Decode, Load, OpenReader and VerifyFile all
// run this walk, so the table covers the heap, mmap and ReadAt loads at once:
// an unreadable byte is ErrTruncated, a flipped payload byte is ErrChecksum,
// and nothing opens.
func TestReaderFaultsAtOpen(t *testing.T) {
	img := faultImage(t)
	size := int64(len(img))
	clean, err := newReader(bytes.NewReader(img), size)
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	type span struct {
		name       string
		first, end int64
		payload    bool
	}
	idxOff := size - footerLen - int64(len(clean.sections))*indexEntryLen
	spans := []span{
		{"header", 0, headerLen, false},
		{"index", idxOff, size - footerLen, false},
		{"footer", size - footerLen, size, false},
	}
	for kind, sec := range clean.sections {
		spans = append(spans, span{kind.String(), sec.off, sec.off + sec.len, true})
	}
	for _, sp := range spans {
		for _, off := range []int64{sp.first, sp.end - 1} {
			for name, inj := range injections(off) {
				r, err := newReader(fault.NewReaderAt(bytes.NewReader(img), inj), size)
				what := fmt.Sprintf("%s byte %d, %s", sp.name, off, name)
				switch {
				case err == nil || r != nil:
					t.Errorf("%s: opened", what)
				case name != "flip" && !errors.Is(err, ErrTruncated):
					t.Errorf("%s: got %v, want ErrTruncated", what, err)
				case name == "flip" && sp.payload && !errors.Is(err, ErrChecksum):
					t.Errorf("%s: got %v, want ErrChecksum", what, err)
				case !isTyped(err):
					t.Errorf("%s: untyped error %v", what, err)
				}
			}
		}
	}
}

// TestReaderFaultsAfterOpen arms the same faults after a clean open — the
// disk going bad under a serving process. Slab row reads end in
// matrix.ErrSlab; materializing a section (IVF, SQ8, or everything) re-reads
// and re-checksums it, so the fault is ErrTruncated or ErrChecksum and never
// a partial Snapshot. A flipped byte under Table is the one undetectable
// case — rows carry no per-read checksum, as under mmap — and is not injected.
func TestReaderFaultsAfterOpen(t *testing.T) {
	img := faultImage(t)
	size := int64(len(img))
	clean, err := newReader(bytes.NewReader(img), size)
	if err != nil {
		t.Fatalf("clean open: %v", err)
	}
	for _, kind := range []SectionKind{SectionSrcTable, SectionTgtTable, SectionIVFFwd, SectionIVFRev, SectionSQ8Src, SectionSQ8Tgt} {
		sec := clean.sections[kind]
		first := sec.off
		if kind == SectionSrcTable || kind == SectionTgtTable {
			first += tablePrefixLen // the first byte row reads touch
		}
		for _, off := range []int64{first, sec.off + sec.len - 1} {
			for name, inj := range injections(off) {
				ra := fault.NewReaderAt(bytes.NewReader(img), fault.NoInjection())
				r, err := newReader(ra, size)
				if err != nil {
					t.Fatalf("clean open: %v", err)
				}
				ra.Inj = inj
				what := fmt.Sprintf("%v byte %d, %s", kind, off, name)
				want := ErrTruncated
				if name == "flip" {
					want = ErrChecksum
				}
				switch kind {
				case SectionSrcTable, SectionTgtTable:
					if name != "flip" {
						slab, err := r.Table(kind)
						if err != nil {
							t.Fatalf("%s: Table: %v", what, err)
						}
						rows, cols := slab.Dims()
						if err := slab.ReadRows(make([]float64, rows*cols), 0, rows); !errors.Is(err, matrix.ErrSlab) {
							t.Errorf("%s: ReadRows got %v, want matrix.ErrSlab", what, err)
						}
					}
				case SectionIVFFwd, SectionIVFRev:
					if d, err := r.IVF(kind); d != nil || !errors.Is(err, want) {
						t.Errorf("%s: IVF got %v, want %v", what, err, want)
					}
				case SectionSQ8Src, SectionSQ8Tgt:
					if d, err := r.SQ8(kind); d != nil || !errors.Is(err, want) {
						t.Errorf("%s: SQ8 got %v, want %v", what, err, want)
					}
				}
				if snap, err := r.Materialize(); snap != nil || !errors.Is(err, want) {
					t.Errorf("%s: Materialize got %v, want %v and no snapshot", what, err, want)
				}
			}
		}
	}
}

// countingReaderAt counts the bytes served.
type countingReaderAt struct {
	r io.ReaderAt
	n int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n += int64(n)
	return n, err
}

// TestMaterializeReadsEachSectionOnce pins what entserver's mmap-unavailable
// fallback and the pipeline's heap load now cost on top of the open: one read
// of every numeric section from the reader already open — not a second
// whole-file load.
func TestMaterializeReadsEachSectionOnce(t *testing.T) {
	img := faultImage(t)
	cr := &countingReaderAt{r: bytes.NewReader(img)}
	r, err := newReader(cr, int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if opened := cr.n; opened > 2*int64(len(img)) {
		t.Fatalf("open read %d bytes of a %d-byte file", opened, len(img))
	}
	var numeric int64
	for kind, sec := range r.sections {
		if kind != SectionMeta && kind != SectionSrcVocab && kind != SectionTgtVocab {
			numeric += sec.len
		}
	}
	before := cr.n
	if _, err := r.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := cr.n - before; got != numeric {
		t.Fatalf("Materialize read %d bytes, the numeric sections hold %d", got, numeric)
	}
}
