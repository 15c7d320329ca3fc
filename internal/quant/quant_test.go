package quant

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"entmatcher/internal/matrix"
)

func mustEncode(t *testing.T, m *matrix.Dense) *Table {
	t.Helper()
	q, err := Encode(context.Background(), m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return q
}

func randTable(rng *rand.Rand, n, d int) *matrix.Dense {
	m := matrix.New(n, d)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return m
}

// TestEncodeRoundTripBound pins the quantizer's reconstruction guarantee on
// random tables: |code·scale − x| ≤ scale/2 per dimension (up to a few ulps
// of the division), and codes stay in [-127, 127].
func TestEncodeRoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randTable(rng, 60, 48)
	q := mustEncode(t, m)
	for i := 0; i < m.Rows(); i++ {
		row := m.Row(i)
		codes := q.Row(i)
		for j, v := range row {
			c := codes[j]
			if c == -128 {
				t.Fatalf("row %d dim %d: code -128", i, j)
			}
			s := q.Scales()[j]
			err := math.Abs(float64(c)*s - v)
			bound := s/2 + 1e-12*math.Abs(v)
			if err > bound {
				t.Fatalf("row %d dim %d: |decode-x| = %g > scale/2 = %g", i, j, err, s/2)
			}
		}
	}
}

// TestEncodeConstantDimension: a dimension that is identical across rows
// still reconstructs to within scale/2, and a dimension that is zero
// everywhere gets scale 0 with all-zero codes (the zero-scale edge case).
func TestEncodeConstantDimension(t *testing.T) {
	m := matrix.New(5, 3)
	for i := 0; i < 5; i++ {
		m.Row(i)[0] = 0.75 // constant nonzero
		m.Row(i)[1] = 0    // constant zero
		m.Row(i)[2] = float64(i)
	}
	q := mustEncode(t, m)
	if q.Scales()[1] != 0 {
		t.Fatalf("zero dimension got scale %v", q.Scales()[1])
	}
	for i := 0; i < 5; i++ {
		if q.Row(i)[1] != 0 {
			t.Fatalf("zero dimension row %d has code %d", i, q.Row(i)[1])
		}
		// Constant nonzero dim: maxAbs = 0.75 → code must be exactly ±127.
		if q.Row(i)[0] != 127 {
			t.Fatalf("constant dimension row %d has code %d, want 127", i, q.Row(i)[0])
		}
	}
}

// TestEncodeRejectsNonFinite: the encoder re-checks the finiteness the
// similarity gates establish upstream.
func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := matrix.New(3, 4)
		m.Row(1)[2] = bad
		if _, err := Encode(context.Background(), m); err == nil {
			t.Fatalf("Encode accepted %v", bad)
		}
	}
	if _, err := Encode(context.Background(), nil); err == nil {
		t.Fatal("Encode accepted nil table")
	}
	if _, err := Encode(context.Background(), matrix.New(0, 4)); err == nil {
		t.Fatal("Encode accepted empty table")
	}
}

// TestQuantizeQueryApproximation: the per-query scalar times the int8 dot
// must approximate the scale-folded inner product, and a zero query must
// yield sq = 0 with all-zero codes.
func TestQuantizeQueryApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randTable(rng, 40, 32)
	q := mustEncode(t, m)
	codeQ := make([]int8, 32)
	for trial := 0; trial < 10; trial++ {
		qf := make([]float64, 32)
		for j := range qf {
			qf[j] = rng.NormFloat64()
		}
		sq, err := q.QuantizeQuery(qf, codeQ)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.Rows(); i++ {
			approx := sq * float64(DotI8(codeQ, q.Row(i)))
			exact := matrix.Dot4(qf, m.Row(i))
			// Error budget: per-dim table error ≤ scale/2 against |q'| ≤
			// 127·sq codes, plus query rounding ≤ sq/2 per dim against
			// |code| ≤ 127. Generous absolute bound for d=32 gaussians.
			if math.Abs(approx-exact) > 0.8 {
				t.Fatalf("trial %d row %d: approx %v vs exact %v", trial, i, approx, exact)
			}
		}
	}
	zero := make([]float64, 32)
	sq, err := q.QuantizeQuery(zero, codeQ)
	if err != nil {
		t.Fatal(err)
	}
	if sq != 0 {
		t.Fatalf("zero query sq = %v", sq)
	}
	for _, c := range codeQ {
		if c != 0 {
			t.Fatal("zero query produced nonzero code")
		}
	}
	if _, err := q.QuantizeQuery(zero[:4], codeQ); err == nil {
		t.Fatal("QuantizeQuery accepted short query")
	}
}

// TestExportFromDataRoundTrip: Export→FromData must preserve every scan
// result, and FromData must reject each structural corruption class.
func TestExportFromDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randTable(rng, 20, 16)
	q := mustEncode(t, m)
	back, err := FromData(q.Export())
	if err != nil {
		t.Fatalf("FromData: %v", err)
	}
	if back.Rows() != q.Rows() || back.Dim() != q.Dim() {
		t.Fatal("shape changed across round trip")
	}
	for i := 0; i < q.Rows(); i++ {
		a, b := q.Row(i), back.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("code changed at %d,%d", i, j)
			}
		}
	}

	corrupt := func(name string, mut func(d *TableData)) {
		d := q.Export()
		// Deep copy so mutations don't alias the live table.
		cp := &TableData{Rows: d.Rows, Dim: d.Dim,
			Scales: append([]float64(nil), d.Scales...),
			Codes:  append([]int8(nil), d.Codes...)}
		mut(cp)
		if _, err := FromData(cp); err == nil {
			t.Fatalf("FromData accepted corruption %q", name)
		}
	}
	corrupt("nil", func(d *TableData) { *d = TableData{} })
	corrupt("short-codes", func(d *TableData) { d.Codes = d.Codes[:len(d.Codes)-1] })
	corrupt("short-scales", func(d *TableData) { d.Scales = d.Scales[:len(d.Scales)-1] })
	corrupt("nan-scale", func(d *TableData) { d.Scales[0] = math.NaN() })
	corrupt("negative-scale", func(d *TableData) { d.Scales[0] = -1 })
	corrupt("code-min", func(d *TableData) { d.Codes[3] = -128 })
	corrupt("zero-scale-nonzero-code", func(d *TableData) {
		d.Scales[2] = 0
		d.Codes[2] = 5
	})
	if _, err := FromData(nil); err == nil {
		t.Fatal("FromData accepted nil")
	}
}

// FuzzQuantRoundTrip pins the encoder's reconstruction bound on arbitrary
// finite inputs: |decode(encode(x)) − x| ≤ scale/2 per dimension (with an
// ulp allowance for the two divisions involved).
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 48))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 8 {
			t.Skip()
		}
		vals := make([]float64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			var u uint64
			for k := 0; k < 8; k++ {
				u = u<<8 | uint64(raw[i+k])
			}
			v := math.Float64frombits(u)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
			vals = append(vals, v)
		}
		// Shape the values into a 2-column table so per-dimension scales
		// see multiple rows.
		d := 2
		n := len(vals) / d
		if n == 0 {
			t.Skip()
		}
		m := matrix.New(n, d)
		for i := 0; i < n; i++ {
			copy(m.Row(i), vals[i*d:(i+1)*d])
		}
		q, err := Encode(context.Background(), m)
		if err != nil {
			t.Fatalf("Encode rejected finite input: %v", err)
		}
		for i := 0; i < n; i++ {
			row := m.Row(i)
			codes := q.Row(i)
			for j, v := range row {
				s := q.Scales()[j]
				err := math.Abs(float64(codes[j])*s - v)
				bound := s/2 + 1e-9*math.Abs(v) + 1e-300
				if err > bound {
					t.Fatalf("row %d dim %d: |decode-x| = %g exceeds scale/2 = %g (x=%g code=%d)",
						i, j, err, s/2, v, codes[j])
				}
			}
		}
	})
}
