package matrix

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// CSR is a compressed sparse row matrix, the format the FPGA-augmented
// conjugate-gradient work [9] streams through the accelerator.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Dims returns the dimensions.
func (s *CSR) Dims() (r, c int) { return s.rows, s.cols }

// NNZ returns the stored non-zero count.
func (s *CSR) NNZ() int { return len(s.vals) }

// FromDense compresses a dense matrix, dropping exact zeros.
func FromDense(a *Dense) *CSR {
	m, n := a.Dims()
	s := &CSR{rows: m, cols: n, rowPtr: make([]int, m+1)}
	for i := 0; i < m; i++ {
		for j, v := range a.Row(i) {
			if v != 0 {
				s.colIdx = append(s.colIdx, j)
				s.vals = append(s.vals, v)
			}
		}
		s.rowPtr[i+1] = len(s.vals)
	}
	return s
}

// ToDense expands the matrix.
func (s *CSR) ToDense() *Dense {
	d := New(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		for idx := s.rowPtr[i]; idx < s.rowPtr[i+1]; idx++ {
			d.Set(i, s.colIdx[idx], s.vals[idx])
		}
	}
	return d
}

// Apply computes y = S·x (implements MulVec for square matrices).
func (s *CSR) Apply(x, y []float64) {
	if len(x) != s.cols || len(y) != s.rows {
		panic(fmt.Sprintf("matrix: spmv %dx%d with |x|=%d |y|=%d", s.rows, s.cols, len(x), len(y)))
	}
	for i := 0; i < s.rows; i++ {
		var acc float64
		for idx := s.rowPtr[i]; idx < s.rowPtr[i+1]; idx++ {
			acc += s.vals[idx] * x[s.colIdx[idx]]
		}
		y[i] = acc
	}
}

// Dim implements MulVec for square matrices.
func (s *CSR) Dim() int {
	if s.rows != s.cols {
		panic(fmt.Sprintf("matrix: Dim of non-square CSR %dx%d", s.rows, s.cols))
	}
	return s.rows
}

// ApplyRange computes y[lo:hi] = (S·x)[lo:hi].
func (s *CSR) ApplyRange(x, y []float64, lo, hi int) {
	if lo < 0 || hi > s.rows || lo > hi {
		panic(fmt.Sprintf("matrix: spmv range [%d,%d) of %d rows", lo, hi, s.rows))
	}
	for i := lo; i < hi; i++ {
		var acc float64
		for idx := s.rowPtr[i]; idx < s.rowPtr[i+1]; idx++ {
			acc += s.vals[idx] * x[s.colIdx[idx]]
		}
		y[i] = acc
	}
}

// RowNNZ returns the non-zero count of row i.
func (s *CSR) RowNNZ(i int) int {
	if i < 0 || i >= s.rows {
		panic(fmt.Sprintf("matrix: nnz of row %d of %d rows", i, s.rows))
	}
	return s.rowPtr[i+1] - s.rowPtr[i]
}

// RangeNNZ returns the non-zeros stored in rows [lo, hi).
func (s *CSR) RangeNNZ(lo, hi int) int {
	if lo < 0 || hi > s.rows || lo > hi {
		panic(fmt.Sprintf("matrix: nnz range [%d,%d) of %d rows", lo, hi, s.rows))
	}
	return s.rowPtr[hi] - s.rowPtr[lo]
}

// NewCSR builds a CSR matrix from raw arrays, validating the structure
// so downstream kernels can index without further checks: rowPtr must
// have rows+1 entries starting at 0, be non-decreasing, and end at the
// common length of colIdx and vals; every column index must lie in
// [0, cols), strictly increasing within each row (a repeated column
// would make Apply and ToDense disagree). The slices are adopted, not
// copied.
func NewCSR(rows, cols int, rowPtr, colIdx []int, vals []float64) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: negative CSR dims %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("matrix: CSR rowPtr has %d entries, want %d", len(rowPtr), rows+1)
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("matrix: CSR rowPtr must start at 0, got %d", rowPtr[0])
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i+1] < rowPtr[i] {
			return nil, fmt.Errorf("matrix: CSR rowPtr decreases at row %d: %d -> %d", i, rowPtr[i], rowPtr[i+1])
		}
	}
	if len(colIdx) != len(vals) {
		return nil, fmt.Errorf("matrix: CSR has %d column indices but %d values", len(colIdx), len(vals))
	}
	if rowPtr[rows] != len(vals) {
		return nil, fmt.Errorf("matrix: CSR rowPtr ends at %d but %d values stored", rowPtr[rows], len(vals))
	}
	for i := 0; i < rows; i++ {
		prev := -1
		for k, j := range colIdx[rowPtr[i]:rowPtr[i+1]] {
			if j < 0 || j >= cols {
				return nil, fmt.Errorf("matrix: CSR column index %d out of [0,%d) at entry %d", j, cols, rowPtr[i]+k)
			}
			if j <= prev {
				return nil, fmt.Errorf("matrix: CSR row %d columns not increasing: %d then %d", i, prev, j)
			}
			prev = j
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}, nil
}

// SparseRowNNZ returns the off-diagonal entry count of each row of
// RandomSparse(n, density, ·): round(density·(n-1)). Callers that size
// or price that operator without building it use it, so the operator
// holds exactly n·(SparseRowNNZ(n, density)+1) stored entries.
func SparseRowNNZ(n int, density float64) int {
	return int(density*float64(n-1) + 0.5)
}

// RandomSparse returns an n×n CSR matrix with approximately the given
// off-diagonal density and a dominance-boosted diagonal, built row by
// row in O(nnz) memory — unlike RandomSparseSPD it also draws only
// O(nnz) random numbers, so it scales to the operator sizes the sweep
// and hybridsim use. Each row holds the diagonal plus SparseRowNNZ(n, density)
// distinct off-diagonal entries at rng-chosen columns; the result is
// deterministic for a given seed.
//
// Each row's columns are drawn by rejection into a bitset and emitted
// in ascending order by walking the set bits of the words the row
// touched, so no per-row sort runs and the rng stream is the same as a
// sort-based build's. The walk costs O(n/64) per row at worst, which
// dominates only for huge, very sparse operators.
func RandomSparse(n int, density float64, rng *rand.Rand) *CSR {
	if n < 1 {
		panic(fmt.Sprintf("matrix: sparse operator needs n >= 1, got %d", n))
	}
	if !(density >= 0 && density <= 1) { // NaN fails both comparisons
		panic(fmt.Sprintf("matrix: density %g out of [0,1]", density))
	}
	perRow := SparseRowNNZ(n, density)
	rowPtr := make([]int, n+1)
	colIdx := make([]int, 0, n*(perRow+1))
	vals := make([]float64, 0, n*(perRow+1))
	cols := make([]int, 0, perRow)
	taken := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		cols = cols[:0]
		dw, dbit := i>>6, uint64(1)<<(i&63)
		lo, hi := dw, dw
		taken[dw] |= dbit // reserve the diagonal
		for len(cols) < perRow {
			j := rng.Intn(n)
			w, bit := j>>6, uint64(1)<<(j&63)
			if taken[w]&bit == 0 {
				taken[w] |= bit
				cols = append(cols, j)
				lo, hi = min(lo, w), max(hi, w)
			}
		}
		// Collect the row's off-diagonal columns in order, clearing the
		// bitset behind them for the next row.
		taken[dw] &^= dbit
		cols = cols[:0]
		for w := lo; w <= hi; w++ {
			for word := taken[w]; word != 0; word &= word - 1 {
				cols = append(cols, w<<6|bits.TrailingZeros64(word))
			}
			taken[w] = 0
		}
		// Emit them with the diagonal placeholder in its slot.
		var dom float64
		diagAt := -1
		for _, j := range cols {
			if diagAt < 0 && j > i {
				diagAt = len(vals)
				colIdx = append(colIdx, i)
				vals = append(vals, 0)
			}
			v := 2*rng.Float64() - 1
			dom += math.Abs(v)
			colIdx = append(colIdx, j)
			vals = append(vals, v)
		}
		if diagAt < 0 {
			diagAt = len(vals)
			colIdx = append(colIdx, i)
			vals = append(vals, 0)
		}
		vals[diagAt] = dom + 1
		rowPtr[i+1] = len(vals)
	}
	s, err := NewCSR(n, n, rowPtr, colIdx, vals)
	if err != nil {
		panic("matrix: internal RandomSparse construction: " + err.Error())
	}
	return s
}

// RandomSparseSPD returns a sparse symmetric positive-definite matrix:
// a symmetric pattern of the given off-diagonal density with a
// dominance-boosted diagonal (each diagonal entry is its row's absolute
// off-diagonal sum plus one). The strict lower triangle is drawn row by
// row, one rng draw per (i, j < i) deciding the entry and one more
// giving its value, so generation costs O(n²) draws; the CSR is then
// assembled in O(nnz) memory, the upper triangle as the lower one's
// transpose.
func RandomSparseSPD(n int, density float64, rng *rand.Rand) *CSR {
	// The strict lower triangle in CSR order.
	lowPtr := make([]int, n+1)
	var lowCol []int
	var lowVal []float64
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rng.Float64() < density {
				// A zero value stores nothing, as in a dense pattern.
				if v := 2*rng.Float64() - 1; v != 0 {
					lowCol = append(lowCol, j)
					lowVal = append(lowVal, v)
				}
			}
		}
		lowPtr[i+1] = len(lowVal)
	}
	// Row i holds its lower entries, the diagonal, then column i of the
	// lower triangle, which rows below it fill in ascending order;
	// next[i] is where row i's next upper entry goes.
	rowPtr := make([]int, n+1)
	for _, j := range lowCol {
		rowPtr[j+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i] + lowPtr[i+1] - lowPtr[i] + 1
	}
	colIdx := make([]int, rowPtr[n])
	vals := make([]float64, rowPtr[n])
	next := make([]int, n)
	for i := 0; i < n; i++ {
		at := rowPtr[i]
		for k := lowPtr[i]; k < lowPtr[i+1]; k++ {
			j := lowCol[k]
			colIdx[at], vals[at] = j, lowVal[k]
			at++
			colIdx[next[j]], vals[next[j]] = i, lowVal[k]
			next[j]++
		}
		colIdx[at] = i
		next[i] = at + 1
	}
	// The diagonal sums its row in column order, its own slot still
	// zero.
	for i := 0; i < n; i++ {
		var s float64
		for _, v := range vals[rowPtr[i]:rowPtr[i+1]] {
			if v < 0 {
				s -= v
			} else {
				s += v
			}
		}
		vals[rowPtr[i]+lowPtr[i+1]-lowPtr[i]] = s + 1
	}
	sp, err := NewCSR(n, n, rowPtr, colIdx, vals)
	if err != nil {
		panic("matrix: internal RandomSparseSPD construction: " + err.Error())
	}
	return sp
}
