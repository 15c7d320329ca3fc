package fault

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestReaderAtInjection pins the random-access fault model: each trigger
// hits exactly the reads whose span covers its offset, whatever order the
// reads come in, and everything else passes through untouched.
func TestReaderAtInjection(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	read := func(inj IOInjection, off int64, n int) ([]byte, error) {
		p := make([]byte, n)
		got, err := NewReaderAt(bytes.NewReader(data), inj).ReadAt(p, off)
		return p[:got], err
	}

	if got, err := read(NoInjection(), 8, 16); err != nil || !bytes.Equal(got, data[8:24]) {
		t.Fatalf("clean read: %v, %v", got, err)
	}

	flip := NoInjection()
	flip.FlipAt, flip.FlipMask = 20, 0x80
	if got, err := read(flip, 16, 8); err != nil || got[4] != data[20]^0x80 {
		t.Fatalf("flip inside the span: %v, %v", got, err)
	}
	if got, err := read(flip, 24, 8); err != nil || !bytes.Equal(got, data[24:32]) {
		t.Fatalf("flip outside the span: %v, %v", got, err)
	}

	boom := errors.New("bad sector")
	bad := NoInjection()
	bad.ErrAt, bad.Err = 40, boom
	if got, err := read(bad, 32, 16); !errors.Is(err, boom) || len(got) != 8 {
		t.Fatalf("error inside the span: %d bytes, %v", len(got), err)
	}
	if _, err := read(bad, 0, 32); err != nil {
		t.Fatalf("error outside the span: %v", err)
	}

	torn := NoInjection()
	torn.TruncateAt = 30
	if got, err := read(torn, 24, 16); err != io.EOF || !bytes.Equal(got, data[24:30]) {
		t.Fatalf("read across the truncation: %v, %v", got, err)
	}
	if got, err := read(torn, 48, 8); err != io.EOF || len(got) != 0 {
		t.Fatalf("read past the truncation: %v, %v", got, err)
	}
	if got, err := read(torn, 8, 16); err != nil || !bytes.Equal(got, data[8:24]) {
		t.Fatalf("read before the truncation: %v, %v", got, err)
	}
}
