package embed

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entmatcher/internal/matrix"
)

func TestEmbeddingTableRoundTrip(t *testing.T) {
	pair := testPair(t)
	emb, err := Encode(pair, DefaultConfig(ModelGCN))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, pair.Source, emb.Source); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(&buf, pair.Source)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(back, emb.Source, 1e-12) {
		t.Fatal("round trip changed embeddings")
	}
}

func TestWriteTableRowMismatch(t *testing.T) {
	pair := testPair(t)
	var buf bytes.Buffer
	if err := WriteTable(&buf, pair.Source, matrix.New(3, 4)); err == nil {
		t.Fatal("row mismatch accepted")
	}
}

// TestReadTableBitExact: WriteTable then ReadTable returns every component
// bit for bit — signed zero, denormals, values next to the format's limits —
// through CRLF line ends, blank lines, tabs and repeated separators.
func TestReadTableBitExact(t *testing.T) {
	pair := testPair(t)
	g := pair.Source
	special := []float64{math.Copysign(0, -1), 0, 5e-324, -2.2250738585072009e-308, 1e-300, -1e-300,
		math.MaxFloat64, 1.0000000000000002, -0.1, 1e21, 123456789.12345678}
	table := matrix.New(g.NumEntities(), len(special))
	for i := 0; i < table.Rows(); i++ {
		for j := range special {
			table.Row(i)[j] = special[(i+j)%len(special)]
		}
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, g, table); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	if !back.EqualBits(table) {
		t.Fatal("round trip changed component bits")
	}
	// The same file as a Windows tool or a hand edit would leave it.
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	var messy strings.Builder
	messy.WriteString("\r\n\n")
	for i, l := range lines {
		switch i % 3 {
		case 0:
			l = strings.ReplaceAll(l, " ", "\t")
		case 1:
			l = "  " + strings.ReplaceAll(l, " ", "   ") + " "
		}
		messy.WriteString(l + "\r\n")
		if i%5 == 0 {
			messy.WriteString("\r\n")
		}
	}
	back, err = ReadTable(strings.NewReader(messy.String()), g)
	if err != nil {
		t.Fatal(err)
	}
	if !back.EqualBits(table) {
		t.Fatal("CRLF, blank lines and repeated separators changed component bits")
	}
}

// TestReadTableErrors pins every rejection with its message and line number.
func TestReadTableErrors(t *testing.T) {
	pair := testPair(t)
	g := pair.Source
	e0 := g.EntityName(0)
	e1 := g.EntityName(1)
	cases := map[string]struct{ input, want string }{
		"unknown entity":   {"nope 1 2\n", `embed: line 1: unknown entity "nope"`},
		"no components":    {"\n" + e0 + "\n", "embed: line 2: no vector components"},
		"whitespace line":  {e0 + " 1 2\n \t \r\n", "embed: line 2: no vector components"},
		"dim mismatch":     {e0 + " 1 2\n\r\n" + e1 + " 1 2 3\n", "embed: line 3: dimension 3, want 2"},
		"dim before float": {e0 + " 1 2\n" + e1 + " x 2 3\n", "embed: line 2: dimension 3, want 2"},
		"duplicate":        {e0 + " 1 2\n" + e0 + " 3 4\n", fmt.Sprintf("embed: line 2: duplicate entity %q", e0)},
		"bad float":        {e0 + " 1 abc\n", `embed: line 1: bad component "abc": strconv.ParseFloat: parsing "abc": invalid syntax`},
		"empty file":       {"", "embed: empty embedding file"},
		"blank file":       {"\r\n\n", "embed: empty embedding file"},
		"missing entries":  {e0 + " 1 2\n", fmt.Sprintf("embed: 1 of %d entities embedded", g.NumEntities())},
		"line too long":    {e0 + " " + strings.Repeat("1", 1<<22) + "\n", "bufio.Scanner: token too long"},
	}
	for name, tc := range cases {
		_, err := ReadTable(strings.NewReader(tc.input), g)
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if err.Error() != tc.want {
			t.Fatalf("%s: error %q, want %q", name, err, tc.want)
		}
	}
}

func TestSaveLoadFiles(t *testing.T) {
	pair := testPair(t)
	emb, err := Encode(pair, DefaultConfig(ModelRREA))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "src.emb")
	tgtPath := filepath.Join(dir, "tgt.emb")
	if err := Save(srcPath, tgtPath, pair, emb); err != nil {
		t.Fatal(err)
	}
	back, err := Load(srcPath, tgtPath, pair)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(back.Source, emb.Source, 1e-12) ||
		!matrix.EqualApprox(back.Target, emb.Target, 1e-12) {
		t.Fatal("file round trip changed embeddings")
	}
	if _, err := Load(filepath.Join(dir, "missing"), tgtPath, pair); err == nil {
		t.Fatal("missing source file accepted")
	}
	if _, err := Load(srcPath, filepath.Join(dir, "missing"), pair); err == nil {
		t.Fatal("missing target file accepted")
	}
	// Both files bad: the source file's error is the one reported.
	if err := os.WriteFile(tgtPath, []byte("nope 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(filepath.Join(dir, "missing"), tgtPath, pair)
	if err == nil || !os.IsNotExist(err) {
		t.Fatalf("both files bad: got %v, want the source file's not-exist error", err)
	}
	if _, err := Load(srcPath, tgtPath, pair); err == nil || !strings.Contains(err.Error(), `unknown entity "nope"`) {
		t.Fatalf("bad target file: got %v", err)
	}
}
