package matrix

import (
	"fmt"
	"math"
	"math/bits"
)

// Vector kernels used by the iterative solvers (the conjugate-gradient
// extension, after Morris et al. [9]).

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: dot of lengths %d and %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// Axpy computes y += a·x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: axpy of lengths %d and %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += a * x[i]
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// MatVec computes y = A·x for dense A (m×n), x of length n, y of
// length m.
func MatVec(a *Dense, x, y []float64) {
	m, n := a.Dims()
	if len(x) != n || len(y) != m {
		panic(fmt.Sprintf("matrix: matvec %dx%d with |x|=%d |y|=%d", m, n, len(x), len(y)))
	}
	for i := 0; i < m; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// MatVecRange computes y[lo:hi] = (A·x)[lo:hi] — the row-partitioned
// form the hybrid CG design uses to split the multiply between
// processor and FPGA.
func MatVecRange(a *Dense, x, y []float64, lo, hi int) {
	m, n := a.Dims()
	if len(x) != n || len(y) != m || lo < 0 || hi > m || lo > hi {
		panic(fmt.Sprintf("matrix: matvec range [%d,%d) of %dx%d", lo, hi, m, n))
	}
	for i := lo; i < hi; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	// X is the solution estimate.
	X []float64
	// Iterations actually performed.
	Iterations int
	// Residual is ||b - A·x|| at exit.
	Residual float64
	// Converged reports whether the tolerance was met.
	Converged bool
}

// MulVec abstracts the operator for CG and the hybrid MV designs
// (dense or sparse).
type MulVec interface {
	// Apply computes y = A·x.
	Apply(x, y []float64)
	// ApplyRange computes y[lo:hi] = (A·x)[lo:hi] with the same row
	// loop as Apply, so a row-split apply reproduces Apply bit for bit.
	ApplyRange(x, y []float64, lo, hi int)
	// Dim returns the operator's (square) dimension.
	Dim() int
}

// DenseOp adapts a Dense matrix to MulVec.
type DenseOp struct {
	// A is the wrapped dense matrix.
	A *Dense
}

// Apply implements MulVec.
func (d DenseOp) Apply(x, y []float64) { MatVec(d.A, x, y) }

// ApplyRange implements MulVec.
func (d DenseOp) ApplyRange(x, y []float64, lo, hi int) { MatVecRange(d.A, x, y, lo, hi) }

// Dim implements MulVec.
func (d DenseOp) Dim() int { return d.A.Rows() }

// RandomDenseOp is an implicit random n×n dense operator. Entry (i, j)
// is a counter-based function of (Seed, i, j), uniform in [-1, 1):
// wyrand's output for counter i·N+j+1 of the stream seeded with Seed.
// It stores nothing of size n², and any row range is regenerated in
// O(n) per row, which suits a large operator applied once or twice.
type RandomDenseOp struct {
	// N is the operator's dimension.
	N int
	// Seed keys the entries.
	Seed int64
}

// wyrand's state increment and output mixing constant.
const (
	wyIncrement = 0xa0761d6478bd642f
	wyMix       = 0xe7037ed1a0b428db
)

// rowState returns the stream state just before row i's first entry;
// entry (i, j) is unitEntry(rowState(i) + (j+1)·wyIncrement).
func (o RandomDenseOp) rowState(i int) uint64 {
	return uint64(o.Seed) + uint64(i)*uint64(o.N)*wyIncrement
}

// unitEntry maps a stream state to its entry in [-1, 1): the top 54
// bits of wyrand's output (the state times the state xor wyMix, the
// 128-bit product's halves folded by xor) as a signed multiple of
// 2^-53.
func unitEntry(z uint64) float64 {
	hi, lo := bits.Mul64(z, z^wyMix)
	return float64(int64(hi^lo)>>10) * 0x1p-53
}

// Apply implements MulVec.
func (o RandomDenseOp) Apply(x, y []float64) { o.ApplyRange(x, y, 0, o.N) }

// ApplyRange implements MulVec, generating each row's entries as it
// walks the row.
func (o RandomDenseOp) ApplyRange(x, y []float64, lo, hi int) {
	n := o.N
	if len(x) != n || len(y) != n || lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("matrix: implicit matvec range [%d,%d) of %dx%d with |x|=%d |y|=%d",
			lo, hi, n, n, len(x), len(y)))
	}
	for i := lo; i < hi; i++ {
		z := o.rowState(i)
		var s float64
		for _, xj := range x {
			z += wyIncrement
			s += unitEntry(z) * xj
		}
		y[i] = s
	}
}

// Dim implements MulVec.
func (o RandomDenseOp) Dim() int { return o.N }

// Dense returns the operator stored as a Dense matrix, for callers
// that apply it often enough that regenerating its entries costs more
// than storing them. DenseOp{A: o.Dense()} applies bit for bit like o.
func (o RandomDenseOp) Dense() *Dense {
	d := New(o.N, o.N)
	for i := 0; i < o.N; i++ {
		z := o.rowState(i)
		row := d.Row(i)
		for j := range row {
			z += wyIncrement
			row[j] = unitEntry(z)
		}
	}
	return d
}

// CG solves A·x = b for symmetric positive-definite A with the
// conjugate-gradient method, starting from x = 0, stopping when
// ||r|| <= tol·||b|| or after maxIter iterations. This is the
// sequential reference for the hybrid design.
func CG(op MulVec, b []float64, tol float64, maxIter int) CGResult {
	n := op.Dim()
	if len(b) != n {
		panic(fmt.Sprintf("matrix: CG rhs length %d for operator of %d", len(b), n))
	}
	x := make([]float64, n)
	r := make([]float64, n)
	copy(r, b) // r = b - A·0
	p := make([]float64, n)
	copy(p, r)
	q := make([]float64, n)
	bnorm := Norm2(b)
	if bnorm == 0 {
		return CGResult{X: x, Converged: true}
	}
	rr := Dot(r, r)
	res := CGResult{X: x}
	for it := 0; it < maxIter; it++ {
		op.Apply(p, q)
		pq := Dot(p, q)
		if pq <= 0 {
			// Breakdown: the operator is not positive-definite along p
			// (or p has collapsed). Continuing divides by a non-positive
			// curvature and floods X and Residual with NaN/Inf; stop
			// with the last finite iterate instead, unconverged.
			break
		}
		alpha := rr / pq
		Axpy(alpha, p, x)
		Axpy(-alpha, q, r)
		rrNew := Dot(r, r)
		res.Iterations = it + 1
		if math.Sqrt(rrNew) <= tol*bnorm {
			res.Converged = true
			rr = rrNew
			break
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	res.Residual = math.Sqrt(rr)
	return res
}
