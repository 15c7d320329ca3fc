package embed

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"

	"entmatcher/internal/kg"
	"entmatcher/internal/matrix"
)

// Embedding files use the word2vec-style text format most EA toolchains
// emit: one line per entity, the entity URI followed by the vector
// components, space-separated. This is the interchange point with external
// representation-learning systems (OpenEA, EAkit, or the paper's own
// pipelines): train anywhere, match here.

// WriteTable serializes an embedding table: row i is written with the URI
// of entity i in g.
func WriteTable(w io.Writer, g *kg.Graph, table *matrix.Dense) error {
	if table.Rows() != g.NumEntities() {
		return fmt.Errorf("embed: %d rows for %d entities", table.Rows(), g.NumEntities())
	}
	bw := bufio.NewWriter(w)
	for i := 0; i < table.Rows(); i++ {
		if _, err := bw.WriteString(g.EntityName(i)); err != nil {
			return err
		}
		for _, v := range table.Row(i) {
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTable parses an embedding table, resolving URIs against g. Every
// entity of g must appear exactly once and all vectors must share one
// dimension. Fields are split in place from the scanner's buffer, so a line
// costs no string and no field slice of its own.
func ReadTable(r io.Reader, g *kg.Graph) (*matrix.Dense, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var table *matrix.Dense
	var fields [][]byte
	seen := make([]bool, g.NumEntities())
	filled := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimRight(sc.Bytes(), "\r\n")
		if len(line) == 0 {
			continue
		}
		fields = appendFields(fields[:0], line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("embed: line %d: no vector components", lineNo)
		}
		id, ok := g.EntityID(string(fields[0]))
		if !ok {
			return nil, fmt.Errorf("embed: line %d: unknown entity %q", lineNo, fields[0])
		}
		dim := len(fields) - 1
		if table == nil {
			table = matrix.New(g.NumEntities(), dim)
		} else if dim != table.Cols() {
			return nil, fmt.Errorf("embed: line %d: dimension %d, want %d", lineNo, dim, table.Cols())
		}
		if seen[id] {
			return nil, fmt.Errorf("embed: line %d: duplicate entity %q", lineNo, fields[0])
		}
		seen[id] = true
		filled++
		row := table.Row(id)
		for j, f := range fields[1:] {
			v, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				return nil, fmt.Errorf("embed: line %d: bad component %q: %v", lineNo, f, err)
			}
			row[j] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if table == nil {
		return nil, fmt.Errorf("embed: empty embedding file")
	}
	if filled != g.NumEntities() {
		return nil, fmt.Errorf("embed: %d of %d entities embedded", filled, g.NumEntities())
	}
	return table, nil
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends line's whitespace-separated fields to dst as
// sub-slices of line: strings.Fields, same notion of whitespace, without the
// strings.
func appendFields(dst [][]byte, line []byte) [][]byte {
	start := -1 // of the field being read; -1 between fields
	for i := 0; i < len(line); {
		space, n := false, 1
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, n = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		if !space && start < 0 {
			start = i
		} else if space && start >= 0 {
			dst = append(dst, line[start:i])
			start = -1
		}
		i += n
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// Save writes the pair's embedding tables to srcPath and tgtPath.
func Save(srcPath, tgtPath string, pair *kg.Pair, e *Embeddings) error {
	write := func(path string, g *kg.Graph, table *matrix.Dense) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := WriteTable(f, g, table); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(srcPath, pair.Source, e.Source); err != nil {
		return err
	}
	return write(tgtPath, pair.Target, e.Target)
}

// Load reads embedding tables for the pair from srcPath and tgtPath, the two
// files concurrently. When both fail, the source file's error is returned.
func Load(srcPath, tgtPath string, pair *kg.Pair) (*Embeddings, error) {
	read := func(path string, g *kg.Graph) (*matrix.Dense, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadTable(f, g)
	}
	var tgt *matrix.Dense
	var tgtErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		tgt, tgtErr = read(tgtPath, pair.Target)
	}()
	src, err := read(srcPath, pair.Source)
	<-done
	if err != nil {
		return nil, err
	}
	if tgtErr != nil {
		return nil, tgtErr
	}
	if src.Cols() != tgt.Cols() {
		return nil, fmt.Errorf("embed: source dim %d != target dim %d", src.Cols(), tgt.Cols())
	}
	return &Embeddings{Source: src, Target: tgt}, nil
}
