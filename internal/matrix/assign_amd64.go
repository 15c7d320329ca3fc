//go:build amd64 && !purego

package matrix

// sweepRows8AVX2 is normalizeRows over eight rows of len(scale) each
// (len(rows) = 8·len(scale)): every element is multiplied by its column's
// scale and stored, each row's products are summed in ascending column order
// — two 4×4 register transposes turn four rows × four columns into four
// column vectors whose lanes are rows, added one column at a time into one
// 4-lane accumulator per four rows — and every row is then multiplied by
// 1/sum, or by 1 (x·1 is x) where |sum| < eps. No FMA: each product is rounded
// before it is added. Ragged columns go through masked loads and stores.
// Implemented in assign_amd64.s.
//
//go:noescape
func sweepRows8AVX2(rows, scale []float64, eps float64)

// addRows4AVX2 adds four rows of len(acc) each (len(rows) = 4·len(acc)) into
// acc, one 4-column block at a time: acc + r0 + r1 + r2 + r3, left to right.
// Implemented in assign_amd64.s.
//
//go:noescape
func addRows4AVX2(acc, rows []float64)
