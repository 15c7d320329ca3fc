package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"entmatcher/internal/ann"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
)

// Load reads and strictly verifies the snapshot at path, with the
// DefaultMaxBytes size limit. Every structural claim the file makes is
// bounds-checked before it is believed, and every payload byte is covered by
// a verified CRC32C, so a truncated, torn, bit-flipped, version-skewed or
// oversized file comes back as a typed error — never as silently wrong data.
func Load(path string) (*Snapshot, error) {
	return LoadLimit(path, DefaultMaxBytes)
}

// LoadLimit is Load with an explicit size limit.
func LoadLimit(path string, maxBytes int64) (*Snapshot, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxBytes {
		return nil, fmt.Errorf("%w: %s is %d bytes, limit %d", ErrTooLarge, path, fi.Size(), maxBytes)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// DecodeReader decodes a snapshot from a byte stream, reading at most
// maxBytes. It is the seam the fault-injection suite drives: a
// fault.Reader interposed here models every disk-side corruption.
func DecodeReader(r io.Reader, maxBytes int64) (*Snapshot, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > maxBytes {
		return nil, fmt.Errorf("%w: stream exceeds %d bytes", ErrTooLarge, maxBytes)
	}
	return Decode(data)
}

// cursor is a bounds-checked reader over one section payload.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) u32() (uint32, error) {
	if c.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

// dim reads a u64 that must fit comfortably in an int (shape field).
func (c *cursor) dim() (int, error) {
	v, err := c.u64()
	if err != nil {
		return 0, err
	}
	if v > 1<<40 {
		return 0, fmt.Errorf("%w: implausible dimension %d", ErrMalformed, v)
	}
	return int(v), nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, ErrTruncated
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) f64s(n int) ([]float64, error) {
	b, err := c.bytes(n * 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func (c *cursor) i64s(n int) ([]int64, error) {
	b, err := c.bytes(n * 8)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func (c *cursor) i32s(n int) ([]int32, error) {
	b, err := c.bytes(n * 4)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func (c *cursor) i8s(n int) ([]int8, error) {
	b, err := c.bytes(n)
	if err != nil {
		return nil, err
	}
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(b[i])
	}
	return out, nil
}

// done reports ErrMalformed when payload bytes remain unconsumed — a
// section must account for every byte its checksum covers.
func (c *cursor) done() error {
	if c.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes in section payload", ErrMalformed, c.remaining())
	}
	return nil
}

// The shape rules. Each reads one numeric section's prefix off c and checks
// it against the payload length slen: every dimension capped (cursor.dim),
// none empty, and the payload exactly as long as the shape implies. They are
// the only statement of those rules — the open-time walk applies them to the
// prefix alone (Reader.prefix), the decoders below to the whole payload.

// cells returns a×b for two dim-capped counts, rejecting slabs no file could
// hold so that no payload length below can overflow int64.
func cells(a, b int) (int64, error) {
	if a > 0 && int64(b) > (1<<56)/int64(a) {
		return 0, fmt.Errorf("%w: implausible slab of %d×%d values", ErrMalformed, a, b)
	}
	return int64(a) * int64(b), nil
}

// dims reads n shape fields.
func (c *cursor) dims(fields ...*int) (err error) {
	for _, f := range fields {
		if *f, err = c.dim(); err != nil {
			return err
		}
	}
	return nil
}

// slabShape: rows, dim, then perDim header bytes per dimension and rows×dim
// values of width bytes each.
func slabShape(c *cursor, slen int64, what string, perDim, width int64) (sh shape, err error) {
	if err = c.dims(&sh.rows, &sh.dim); err != nil {
		return sh, err
	}
	if sh.rows <= 0 || sh.dim <= 0 {
		return sh, fmt.Errorf("%w: empty %s %d×%d", ErrMalformed, what, sh.rows, sh.dim)
	}
	n, err := cells(sh.rows, sh.dim)
	if err != nil {
		return sh, err
	}
	if want, body := int64(sh.dim)*perDim+n*width, slen-int64(c.off); want != body {
		return sh, fmt.Errorf("%w: %s claims %d×%d (%d bytes) but payload holds %d",
			ErrMalformed, what, sh.rows, sh.dim, want, body)
	}
	return sh, nil
}

// tableShape: rows, cols, then rows×cols float64s.
func tableShape(c *cursor, slen int64) (shape, error) { return slabShape(c, slen, "table", 0, 8) }

// sq8Shape: rows, dim, then per-dimension scales (dim f64) and rows×dim int8
// codes.
func sq8Shape(c *cursor, slen int64) (shape, error) { return slabShape(c, slen, "SQ8 table", 8, 1) }

// ivfShape: dim, n, k, then centroids (k×dim f64), list pointers (k+1 i64),
// ids (n i32, padded to 8), vectors (n×dim f64).
func ivfShape(c *cursor, slen int64) (sh shape, err error) {
	if err = c.dims(&sh.dim, &sh.rows, &sh.k); err != nil {
		return sh, err
	}
	if sh.dim <= 0 || sh.rows <= 0 || sh.k <= 0 {
		return sh, fmt.Errorf("%w: index claims shape dim=%d n=%d k=%d", ErrMalformed, sh.dim, sh.rows, sh.k)
	}
	cents, err := cells(sh.k, sh.dim)
	if err != nil {
		return sh, err
	}
	vecs, err := cells(sh.rows, sh.dim)
	if err != nil {
		return sh, err
	}
	want := cents*8 + int64(sh.k+1)*8 + int64(sh.rows)*4 + int64(sh.rows%2)*4 + vecs*8
	if body := slen - int64(c.off); want != body {
		return sh, fmt.Errorf("%w: index claims %d payload bytes, section holds %d", ErrMalformed, want, body)
	}
	return sh, nil
}

// decodeTable decodes a rows/cols-prefixed dense table.
func decodeTable(payload []byte) (*matrix.Dense, error) {
	c := &cursor{b: payload}
	sh, err := tableShape(c, int64(len(payload)))
	if err != nil {
		return nil, err
	}
	data, err := c.f64s(sh.rows * sh.dim)
	if err != nil {
		return nil, err
	}
	m, err := matrix.NewFromData(sh.rows, sh.dim, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return m, c.done()
}

// decodeVocab decodes a count-prefixed string list.
func decodeVocab(payload []byte) ([]string, error) {
	c := &cursor{b: payload}
	count, err := c.dim()
	if err != nil {
		return nil, err
	}
	if count*4 > c.remaining() {
		return nil, fmt.Errorf("%w: vocabulary claims %d entries in %d payload bytes", ErrMalformed, count, c.remaining())
	}
	out := make([]string, count)
	for i := range out {
		n, err := c.u32()
		if err != nil {
			return nil, err
		}
		b, err := c.bytes(int(n))
		if err != nil {
			return nil, fmt.Errorf("%w: vocabulary entry %d overruns its section", ErrMalformed, i)
		}
		out[i] = string(b)
	}
	return out, c.done()
}

// decodeIVF decodes an index's flat slabs.
func decodeIVF(payload []byte) (*ann.IVFData, error) {
	c := &cursor{b: payload}
	sh, err := ivfShape(c, int64(len(payload)))
	if err != nil {
		return nil, err
	}
	d := &ann.IVFData{Dim: sh.dim, N: sh.rows, K: sh.k}
	if d.Centroids, err = c.f64s(d.K * d.Dim); err != nil {
		return nil, err
	}
	if d.ListPtr, err = c.i64s(d.K + 1); err != nil {
		return nil, err
	}
	if d.IDs, err = c.i32s(d.N); err != nil {
		return nil, err
	}
	if d.N%2 != 0 { // alignment pad between ids and vecs
		if _, err = c.bytes(4); err != nil {
			return nil, err
		}
	}
	if d.Vecs, err = c.f64s(d.N * d.Dim); err != nil {
		return nil, err
	}
	return d, c.done()
}

// decodeSQ8 decodes a quantized table's flat slabs.
func decodeSQ8(payload []byte) (*quant.TableData, error) {
	c := &cursor{b: payload}
	sh, err := sq8Shape(c, int64(len(payload)))
	if err != nil {
		return nil, err
	}
	d := &quant.TableData{Rows: sh.rows, Dim: sh.dim}
	if d.Scales, err = c.f64s(d.Dim); err != nil {
		return nil, err
	}
	if d.Codes, err = c.i8s(d.Rows * d.Dim); err != nil {
		return nil, err
	}
	return d, c.done()
}

// Decode strictly decodes a snapshot from its complete byte image: the
// Reader's validation walk over the image, then every section materialized
// and deep-validated.
func Decode(data []byte) (*Snapshot, error) {
	r := &Reader{src: bytes.NewReader(data), size: int64(len(data)), image: data}
	if err := r.walk(); err != nil {
		return nil, err
	}
	return r.Materialize()
}
