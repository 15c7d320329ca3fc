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

// lapScanAVX2 is LAPScan.scan over the first len(dist)&^3 columns, leaving
// each lane's smallest unscanned label and its first column in out for the
// caller to reduce and continue over the ragged tail. The reduced cost is
// ((−row[c]) − u) − v[c] with the negation a sign flip (−0 stays distinct
// from 0 − x), relaxed as d + cost; labels and predecessors are replaced only
// where the new label is strictly smaller and the column is unscanned, and a
// lane takes a new minimum only on a strict <. With init, every label is
// written and every predecessor set to pred. Implemented in assign_amd64.s.
//
//go:noescape
func lapScanAVX2(row, v, dist []float64, pred []int, scanned []bool, u, d float64, predVal int, init bool, out *lapLanes)
