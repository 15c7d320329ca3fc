package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"entmatcher/internal/matrix"
)

// writeTemp writes a snapshot image to a fresh temp file and returns its path.
func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatalf("writing snapshot file: %v", err)
	}
	return path
}

// slabBits gathers every row of a slab-backed table for bit comparison.
func slabBits(t *testing.T, slab *matrix.SlabTable) *matrix.Dense {
	t.Helper()
	rows, _ := slab.Dims()
	ids := make([]int, rows)
	for i := range ids {
		ids[i] = i
	}
	d, err := matrix.GatherRows(slab, ids)
	if err != nil {
		t.Fatalf("gathering slab rows: %v", err)
	}
	return d
}

// TestOpenReaderParityWithDecode pins the streaming verifier to the strict
// in-memory loader: on valid files both accept and agree on every section;
// on corrupted files both reject. The reader must never be the laxer path.
func TestOpenReaderParityWithDecode(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		withIndex, withQuant bool
	}{
		{"plain", false, false},
		{"index", true, false},
		{"quant", false, true},
		{"index+quant", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := fuzzSeed(6, 5, 3, tc.withIndex, tc.withQuant, 21)
			if err != nil {
				t.Fatalf("building snapshot: %v", err)
			}
			snap, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode rejected a valid snapshot: %v", err)
			}
			path := writeTemp(t, data)
			r, err := OpenReader(path)
			if err != nil {
				t.Fatalf("OpenReader rejected what Decode accepts: %v", err)
			}
			defer r.Close()
			if r.Meta().SrcRows != snap.Meta.SrcRows || r.Meta().TgtRows != snap.Meta.TgtRows || r.Meta().Dim != snap.Meta.Dim {
				t.Fatalf("reader meta %+v differs from decoded %+v", r.Meta(), snap.Meta)
			}
			srcV, tgtV := r.Vocabs()
			if len(srcV) != len(snap.SrcVocab) || len(tgtV) != len(snap.TgtVocab) {
				t.Fatal("reader vocabularies differ from decoded")
			}
			for i := range srcV {
				if srcV[i] != snap.SrcVocab[i] {
					t.Fatalf("source name %d: reader %q, decoded %q", i, srcV[i], snap.SrcVocab[i])
				}
			}
			for _, sec := range []struct {
				kind SectionKind
				want *matrix.Dense
			}{{SectionSrcTable, snap.SrcTable}, {SectionTgtTable, snap.TgtTable}} {
				slab, err := r.Table(sec.kind)
				if err != nil {
					t.Fatalf("reader table %v: %v", sec.kind, err)
				}
				if got := slabBits(t, slab); !got.EqualBits(sec.want) {
					t.Fatalf("slab %v bits differ from decoded table", sec.kind)
				}
			}
			if tc.withIndex != r.Has(SectionIVFFwd) {
				t.Fatalf("Has(IVFFwd) = %v, want %v", r.Has(SectionIVFFwd), tc.withIndex)
			}
			if tc.withQuant != r.Has(SectionSQ8Src) {
				t.Fatalf("Has(SQ8Src) = %v, want %v", r.Has(SectionSQ8Src), tc.withQuant)
			}
			if err := VerifyFile(path, DefaultMaxBytes); err != nil {
				t.Fatalf("VerifyFile rejected a valid file: %v", err)
			}

			// Corruption parity: flipping any byte must make both loaders
			// agree on rejection (or, for bytes outside every checksummed
			// region, agree on acceptance).
			step := len(data)/64 + 1
			for off := 0; off < len(data); off += step {
				mut := append([]byte(nil), data...)
				mut[off] ^= 0xff
				_, derr := Decode(mut)
				rr, rerr := OpenReaderLimit(writeTemp(t, mut), DefaultMaxBytes)
				if rerr == nil {
					rr.Close()
				}
				if (derr == nil) != (rerr == nil) {
					t.Fatalf("offset %d: Decode err=%v, OpenReader err=%v — loaders disagree", off, derr, rerr)
				}
			}
		})
	}
	// Every load mode runs the one walk, so all of them reject what only
	// the shape and layout rules can catch.
	for _, d := range driftImages(t) {
		t.Run("drift/"+d.name, func(t *testing.T) {
			path := writeTemp(t, d.img)
			_, derr := Decode(d.img)
			r, rerr := OpenReader(path)
			if rerr == nil {
				r.Close()
			}
			for mode, err := range map[string]error{"Decode": derr, "OpenReader": rerr, "VerifyFile": VerifyFile(path, DefaultMaxBytes)} {
				if !errors.Is(err, ErrMalformed) {
					t.Errorf("%s: got %v, want ErrMalformed", mode, err)
				}
			}
		})
	}
	// The other side of the open-time contract: a deep slab invariant (a
	// regressing list pointer) is not an open-time check, so OpenReader and
	// VerifyFile accept — and every way of materializing the index rejects.
	t.Run("deep-invariant-at-materialize", func(t *testing.T) {
		base, err := fuzzSeed(6, 5, 3, true, true, 21)
		if err != nil {
			t.Fatal(err)
		}
		secs := unseal(t, base)
		for _, sec := range secs {
			if sec.kind == SectionIVFFwd { // dim=3, k=2: listPtr[1] follows 24 prefix + 48 centroid + 8 bytes
				binary.LittleEndian.PutUint64(sec.payload[80:], math.MaxUint64)
			}
		}
		img := seal(secs, nil)
		path := writeTemp(t, img)
		if err := VerifyFile(path, DefaultMaxBytes); err != nil {
			t.Fatalf("VerifyFile: %v", err)
		}
		r, err := OpenReader(path)
		if err != nil {
			t.Fatalf("OpenReader: %v", err)
		}
		defer r.Close()
		_, derr := Decode(img)
		_, merr := r.Materialize()
		errs := map[string]error{"Decode": derr, "Materialize": merr}
		if MmapSupported {
			_, errs["Mapped"] = r.Mapped(true, true)
		}
		for mode, err := range errs {
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: got %v, want ErrMalformed", mode, err)
			}
		}
		if snap, err := r.Mapped(false, true); MmapSupported && (err != nil || snap.FwdIndex != nil) {
			t.Errorf("a view without the index must not be held up by it: %v", err)
		}
	})
}

// rawSection is one section of an image, lifted out so a test can swap or
// rewrite payloads and seal the result into a CRC-valid image again — the
// corruptions no checksum catches, only the shape and layout rules do.
type rawSection struct {
	kind    SectionKind
	payload []byte
}

// unseal splits a valid image into its sections (in file order).
func unseal(t testing.TB, img []byte) []rawSection {
	t.Helper()
	foot := img[len(img)-footerLen:]
	idxOff, idxLen := binary.LittleEndian.Uint64(foot[0:]), binary.LittleEndian.Uint64(foot[8:])
	var out []rawSection
	for ent := img[idxOff : idxOff+idxLen]; len(ent) > 0; ent = ent[indexEntryLen:] {
		off, n := binary.LittleEndian.Uint64(ent[8:]), binary.LittleEndian.Uint64(ent[16:])
		out = append(out, rawSection{SectionKind(binary.LittleEndian.Uint32(ent[0:])), append([]byte(nil), img[off:off+n]...)})
	}
	return out
}

// seal lays sections out as a snapshot image with every CRC recomputed;
// tweak, when non-nil, edits the index before it is checksummed.
func seal(secs []rawSection, tweak func(idx []byte)) []byte {
	img := append([]byte(nil), headMagic[:]...)
	img = binary.LittleEndian.AppendUint32(img, Version)
	img = binary.LittleEndian.AppendUint32(img, uint32(len(secs)))
	img = binary.LittleEndian.AppendUint64(img, 0)
	var idx []byte
	for _, sec := range secs {
		img = append(img, zeroPad[:(8-len(img)%8)%8]...)
		idx = binary.LittleEndian.AppendUint64(idx, uint64(sec.kind))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(len(img)))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(len(sec.payload)))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(crc32.Checksum(sec.payload, castagnoli)))
		img = append(img, sec.payload...)
	}
	img = append(img, zeroPad[:(8-len(img)%8)%8]...)
	if tweak != nil {
		tweak(idx)
	}
	foot := binary.LittleEndian.AppendUint64(nil, uint64(len(img)))
	foot = binary.LittleEndian.AppendUint64(foot, uint64(len(idx)))
	foot = binary.LittleEndian.AppendUint32(foot, crc32.Checksum(idx, castagnoli))
	foot = binary.LittleEndian.AppendUint32(foot, Version)
	return append(append(append(img, idx...), foot...), tailMagic[:]...)
}

type driftImage struct {
	name string
	img  []byte
}

// driftImages are CRC-valid images only the shape and layout rules reject:
// each is the index+quant seed with one section rewritten or swapped for the
// same section of a snapshot over differently shaped tables. The first three
// are the drift the second parser had accumulated (Decode rejected them,
// OpenReader and VerifyFile accepted); the last two made Decode itself panic.
func driftImages(t testing.TB) []driftImage {
	t.Helper()
	mk := func(srcRows, tgtRows int) []byte {
		b, err := fuzzSeed(srcRows, tgtRows, 3, true, true, 21)
		if err != nil {
			t.Fatalf("building snapshot: %v", err)
		}
		return b
	}
	base, other := mk(6, 5), mk(4, 7)
	if _, err := Decode(base); err != nil {
		t.Fatalf("base image: %v", err)
	}
	swap := func(kind SectionKind, rewrite func([]byte) []byte) []rawSection {
		secs := unseal(t, base)
		for i := range secs {
			if secs[i].kind == kind {
				secs[i].payload = rewrite(secs[i].payload)
			}
		}
		return secs
	}
	from := func(kind SectionKind) func([]byte) []byte {
		return func([]byte) []byte {
			for _, sec := range unseal(t, other) {
				if sec.kind == kind {
					return sec.payload
				}
			}
			t.Fatalf("no section %v", kind)
			return nil
		}
	}
	return []driftImage{
		{"ann-clusters-vs-index-k", seal(swap(SectionMeta, func(p []byte) []byte {
			var m Meta
			if err := json.Unmarshal(p, &m); err != nil {
				t.Fatal(err)
			}
			m.ANN.Clusters++
			out, _ := json.Marshal(m)
			return out
		}), nil)},
		{"ivf-covers-another-table", seal(swap(SectionIVFFwd, from(SectionIVFFwd)), nil)},
		{"sq8-covers-another-table", seal(swap(SectionSQ8Src, from(SectionSQ8Src)), nil)},
		// rows×cols×8 wraps to 0 in int64: a 16-byte section claiming 2^61 values.
		{"table-shape-overflows", seal(swap(SectionSrcTable, func([]byte) []byte {
			return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<40), 1<<21)
		}), nil)},
		// off+len wraps negative and slips under the payload-area bound.
		{"extent-overflows", seal(unseal(t, base), func(idx []byte) {
			last := idx[len(idx)-indexEntryLen:]
			binary.LittleEndian.PutUint64(last[16:], math.MaxInt64-8)
		})},
	}
}

// TestOpenReaderLimitRejectsHugeWithoutAllocation is the size-bounded
// validation regression test: a multi-GiB file must be rejected with
// ErrTooLarge from its Stat alone — before any read — so the refusal costs
// no allocation proportional to the claimed size.
func TestOpenReaderLimitRejectsHugeWithoutAllocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// A sparse 3 GiB file: no data blocks are written, so creating it is
	// cheap — but its Stat size is what a hostile or runaway producer would
	// present.
	const huge = 3 << 30
	if err := f.Truncate(huge); err != nil {
		f.Close()
		t.Skipf("filesystem does not support sparse truncate: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, rerr := OpenReaderLimit(path, 64<<20)
	verr := VerifyFile(path, 64<<20)
	runtime.ReadMemStats(&after)

	if !errors.Is(rerr, ErrTooLarge) {
		t.Fatalf("OpenReaderLimit: got %v, want ErrTooLarge", rerr)
	}
	if !errors.Is(verr, ErrTooLarge) {
		t.Fatalf("VerifyFile: got %v, want ErrTooLarge", verr)
	}
	// The rejection must not have read or buffered the claimed bytes; allow
	// generous slack for runtime noise, but nothing near the file size.
	if grew := int64(after.TotalAlloc - before.TotalAlloc); grew > 16<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes — validation is not size-bounded", int64(huge), grew)
	}
}

// FuzzSlabLoad is FuzzSnapshotLoad's twin for the streaming reader behind
// the out-of-core slab loader: arbitrary bytes written to a file must never
// panic OpenReader, acceptance must agree with the strict in-memory Decode up
// to the open-time contract (what OpenReader alone accepts, Materialize must
// reject), and on acceptance the slab-served table rows must be bit-identical
// to the decoded tables.
func FuzzSlabLoad(f *testing.F) {
	for _, seed := range []struct {
		srcRows, tgtRows, dim int
		withIndex, withQuant  bool
		seed                  int64
	}{
		{3, 2, 2, false, false, 1},
		{5, 4, 3, true, false, 2},
		{4, 3, 2, false, true, 4},
		{5, 4, 3, true, true, 5},
	} {
		b, err := fuzzSeed(seed.srcRows, seed.tgtRows, seed.dim, seed.withIndex, seed.withQuant, seed.seed)
		if err != nil {
			f.Fatalf("building seed: %v", err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(append([]byte(nil), headMagic[:]...))
	for _, d := range driftImages(f) {
		f.Add(d.img)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.snap")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		snap, derr := Decode(data)
		r, rerr := OpenReader(path)
		if rerr != nil {
			if derr == nil {
				t.Fatalf("Decode accepts what OpenReader rejects: %v", rerr)
			}
			return // both rejected: the only acceptable outcome for bad bytes
		}
		defer func() {
			if cerr := r.Close(); cerr != nil {
				t.Fatalf("closing an accepted reader: %v", cerr)
			}
		}()
		if derr != nil {
			// The open-time contract: only a deep slab invariant may separate
			// the two, and materializing from the reader must find it.
			if _, merr := r.Materialize(); !errors.Is(merr, ErrMalformed) {
				t.Fatalf("Decode rejects (%v) what OpenReader accepts and materializes (%v)", derr, merr)
			}
			return
		}
		for _, sec := range []struct {
			kind SectionKind
			want *matrix.Dense
		}{{SectionSrcTable, snap.SrcTable}, {SectionTgtTable, snap.TgtTable}} {
			slab, err := r.Table(sec.kind)
			if err != nil {
				t.Fatalf("accepted reader cannot serve table %v: %v", sec.kind, err)
			}
			rows, cols := slab.Dims()
			if rows != sec.want.Rows() || cols != sec.want.Cols() {
				t.Fatalf("slab %v shape %dx%d, decoded %dx%d", sec.kind, rows, cols, sec.want.Rows(), sec.want.Cols())
			}
			ids := make([]int, rows)
			for i := range ids {
				ids[i] = i
			}
			got, err := matrix.GatherRows(slab, ids)
			if err != nil {
				t.Fatalf("gathering slab %v: %v", sec.kind, err)
			}
			if !got.EqualBits(sec.want) {
				t.Fatalf("slab %v rows differ in bits from the decoded table", sec.kind)
			}
		}
		if (snap.FwdIndex != nil) != r.Has(SectionIVFFwd) || (snap.SrcQuant != nil) != r.Has(SectionSQ8Src) {
			t.Fatal("section presence disagrees between reader and decoder")
		}
	})
}
