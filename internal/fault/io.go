package fault

import (
	"fmt"
	"io"
)

// IOInjection describes one byte-stream fault. The zero value injects
// nothing. Offsets are absolute byte positions in the stream (for Reader and
// Writer: bytes transferred so far; for ReaderAt: the read offset). When
// several fields are set they apply in order: FlipAt (corrupt, keep going),
// then TruncateAt (stop early), then ErrAt (fail hard).
type IOInjection struct {
	// FlipAt, when >= 0, XORs FlipMask into the byte at that offset as it
	// passes through — a deterministic single-bit (or multi-bit) flip that
	// models silent media corruption. FlipMask zero means 0x01.
	FlipAt   int64
	FlipMask byte
	// TruncateAt, when >= 0, ends the stream at that offset: a Reader
	// returns io.EOF as if the file ended there (a torn final write); a
	// Writer silently drops everything past it and reports a short write.
	TruncateAt int64
	// ErrAt, when >= 0, fails the call that reaches that offset with Err —
	// a disk error at byte N. Err nil means a generic injected error.
	ErrAt int64
	Err   error
}

// NoInjection returns an IOInjection with every trigger disabled; callers
// set just the fields they want. The IOInjection zero value triggers
// everything at offset 0, so constructing via NoInjection is the way to
// express "flip one byte, nothing else".
func NoInjection() IOInjection {
	return IOInjection{FlipAt: -1, TruncateAt: -1, ErrAt: -1}
}

// err resolves the configured error.
func (inj IOInjection) err() error {
	if inj.Err != nil {
		return inj.Err
	}
	return fmt.Errorf("fault: injected I/O error")
}

// mask resolves the configured flip mask.
func (inj IOInjection) mask() byte {
	if inj.FlipMask != 0 {
		return inj.FlipMask
	}
	return 0x01
}

// apply transforms one span [off, off+len(p)) of the stream in place:
// flipping a byte, truncating the span, or failing the call. It returns the
// usable prefix length, whether the stream ends there, and the error to
// report.
func (inj IOInjection) apply(p []byte, off int64) (n int, eof bool, err error) {
	n = len(p)
	if inj.FlipAt >= off && inj.FlipAt < off+int64(n) {
		p[inj.FlipAt-off] ^= inj.mask()
	}
	if inj.TruncateAt >= off && inj.TruncateAt <= off+int64(n) {
		n = int(inj.TruncateAt - off)
		eof = true
	}
	if inj.ErrAt >= off && inj.ErrAt <= off+int64(n) {
		n = int(inj.ErrAt - off)
		return n, false, inj.err()
	}
	return n, eof, nil
}

// Reader wraps an io.Reader with deterministic byte-level faults: a flipped
// byte at offset N, a truncated stream at offset N (torn write observed at
// read time), or an injected error at offset N. It is the read-side
// counterpart of Writer, used to prove the snapshot loader rejects
// every corruption a disk can serve.
type Reader struct {
	R   io.Reader
	Inj IOInjection
	off int64
	eof bool
}

// NewReader returns r with the injection applied to the byte stream.
func NewReader(r io.Reader, inj IOInjection) *Reader {
	return &Reader{R: r, Inj: inj}
}

// Read reads from the wrapped reader and applies the injection to the bytes
// that pass through.
func (r *Reader) Read(p []byte) (int, error) {
	if r.eof {
		return 0, io.EOF
	}
	n, err := r.R.Read(p)
	if n > 0 {
		in, eof, ierr := r.Inj.apply(p[:n], r.off)
		r.off += int64(in)
		if ierr != nil {
			return in, ierr
		}
		if eof {
			r.eof = true
			if in == 0 {
				return 0, io.EOF
			}
			return in, nil
		}
		n = in
	}
	return n, err
}

// Writer wraps an io.Writer with deterministic faults on the outgoing byte
// stream: short (truncated) writes, flipped bytes, or a hard error at byte
// N — the crash/corruption model for sequential snapshot encoding.
type Writer struct {
	W   io.Writer
	Inj IOInjection
	off int64
}

// NewWriter returns w with the injection applied to the byte stream.
func NewWriter(w io.Writer, inj IOInjection) *Writer {
	return &Writer{W: w, Inj: inj}
}

// Write applies the injection to p's span of the stream, forwards the
// surviving prefix, and reports injected failures as write errors. A
// truncation reports io.ErrShortWrite after forwarding the prefix — exactly
// what a torn write looks like to the producer.
func (w *Writer) Write(p []byte) (int, error) {
	q := append([]byte(nil), p...) // never mutate the caller's buffer
	n, eof, ierr := w.Inj.apply(q, w.off)
	wn, werr := w.W.Write(q[:n])
	w.off += int64(wn)
	if werr != nil {
		return wn, werr
	}
	if ierr != nil {
		return wn, ierr
	}
	if eof {
		return wn, io.ErrShortWrite
	}
	return wn, nil
}

// ReaderAt wraps an io.ReaderAt with the same deterministic fault model,
// keyed by the read offset — the random-access read side, used to prove
// that a disk-backed table (matrix.SlabTable) failing under a running pass
// surfaces as a typed error instead of wrong scores. A truncation ends the
// file at TruncateAt for every read; a flip or an error hits exactly the
// reads whose span covers its offset, like a bad sector.
type ReaderAt struct {
	R   io.ReaderAt
	Inj IOInjection
}

// NewReaderAt returns r with the injection applied per read offset.
func NewReaderAt(r io.ReaderAt, inj IOInjection) *ReaderAt {
	return &ReaderAt{R: r, Inj: inj}
}

// ReadAt reads from the wrapped reader and applies the injection to the
// span [off, off+n) that came back. A span cut short by the truncation
// reports io.EOF, as the io.ReaderAt contract requires of a short read.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if r.Inj.TruncateAt >= 0 && off > r.Inj.TruncateAt {
		return 0, io.EOF
	}
	n, err := r.R.ReadAt(p, off)
	in, _, ierr := r.Inj.apply(p[:n], off)
	if ierr != nil {
		return in, ierr
	}
	if in < n {
		return in, io.EOF
	}
	return n, err
}
