package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestDotAxpyNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[1] != 9 || y[2] != 12 {
		t.Fatalf("Axpy = %v", y)
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Fatal("Norm2")
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestMatVecAgainstGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	a := Random(7, 5, rng)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := make([]float64, 7)
	MatVec(a, x, y)
	xm := NewFromSlice(5, 1, append([]float64(nil), x...))
	want := Mul(a, xm)
	for i := range y {
		if math.Abs(y[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MatVec[%d] = %v want %v", i, y[i], want.At(i, 0))
		}
	}
}

func TestMatVecRangeCoversMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	a := Random(9, 9, rng)
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.Float64()
	}
	full := make([]float64, 9)
	MatVec(a, x, full)
	split := make([]float64, 9)
	MatVecRange(a, x, split, 0, 4)
	MatVecRange(a, x, split, 4, 9)
	for i := range full {
		if full[i] != split[i] {
			t.Fatalf("row-split MatVec differs at %d", i)
		}
	}
}

// TestRandomDenseOpApplies checks the implicit operator against its
// stored form: a row-split apply and the stored matrix's MatVec both
// reproduce Apply bit for bit, every entry lies in [-1, 1), and the
// seed, not the row or column alone, keys the entries.
func TestRandomDenseOpApplies(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for _, n := range []int{1, 2, 7, 64, 129} {
		op := RandomDenseOp{N: n, Seed: 5}
		x := make([]float64, n)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		full := make([]float64, n)
		op.Apply(x, full)
		split, stored := make([]float64, n), make([]float64, n)
		op.ApplyRange(x, split, 0, n/3)
		op.ApplyRange(x, split, n/3, n)
		d := op.Dense()
		MatVec(d, x, stored)
		for i := range full {
			if math.Float64bits(split[i]) != math.Float64bits(full[i]) ||
				math.Float64bits(stored[i]) != math.Float64bits(full[i]) {
				t.Fatalf("n=%d row %d: Apply %v, split %v, stored %v", n, i, full[i], split[i], stored[i])
			}
		}
		other := RandomDenseOp{N: n, Seed: 6}.Dense()
		same := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := d.At(i, j); !(v >= -1 && v < 1) {
					t.Fatalf("n=%d entry (%d,%d) = %v, outside [-1, 1)", n, i, j, v)
				}
				if d.At(i, j) == other.At(i, j) {
					same++
				}
			}
		}
		if same > 0 {
			t.Fatalf("n=%d: seeds 5 and 6 share %d entries", n, same)
		}
	}
	// Entry (i, j) depends on j within a row and on i within a column.
	d := RandomDenseOp{N: 3, Seed: 1}.Dense()
	if d.At(0, 0) == d.At(0, 1) || d.At(0, 0) == d.At(1, 0) {
		t.Fatalf("entries repeat along a row or column: %v", d)
	}
}

func TestCGSolvesDenseSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	a := RandomSPD(40, rng)
	xTrue := make([]float64, 40)
	for i := range xTrue {
		xTrue[i] = rng.Float64()
	}
	b := make([]float64, 40)
	MatVec(a, xTrue, b)
	res := CG(DenseOp{A: a}, b, 1e-12, 400)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v want %v", i, res.X[i], xTrue[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	a := RandomSPD(5, rng)
	res := CG(DenseOp{A: a}, make([]float64, 5), 1e-10, 10)
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", res)
	}
}

func TestCGMaxIterStops(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	a := RandomSPD(30, rng)
	b := make([]float64, 30)
	for i := range b {
		b[i] = 1
	}
	res := CG(DenseOp{A: a}, b, 1e-300, 3) // unreachable tolerance
	if res.Converged || res.Iterations != 3 {
		t.Fatalf("maxIter: %+v", res)
	}
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	d := New(6, 8)
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			if rng.Float64() < 0.3 {
				d.Set(i, j, rng.Float64())
			}
		}
	}
	s := FromDense(d)
	if !s.ToDense().Equal(d) {
		t.Fatal("CSR round trip")
	}
	r, c := s.Dims()
	if r != 6 || c != 8 {
		t.Fatal("CSR dims")
	}
}

func TestCSRApplyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	s := RandomSparseSPD(20, 0.2, rng)
	d := s.ToDense()
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.Float64()
	}
	ys := make([]float64, 20)
	yd := make([]float64, 20)
	s.Apply(x, ys)
	MatVec(d, x, yd)
	for i := range ys {
		if math.Abs(ys[i]-yd[i]) > 1e-12 {
			t.Fatalf("SpMV differs at %d", i)
		}
	}
}

func TestCSRApplyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(507))
	s := RandomSparseSPD(15, 0.3, rng)
	x := make([]float64, 15)
	for i := range x {
		x[i] = rng.Float64()
	}
	full := make([]float64, 15)
	s.Apply(x, full)
	split := make([]float64, 15)
	s.ApplyRange(x, split, 0, 7)
	s.ApplyRange(x, split, 7, 15)
	for i := range full {
		if full[i] != split[i] {
			t.Fatalf("row-split SpMV differs at %d", i)
		}
	}
}

func TestCSRCounts(t *testing.T) {
	d := New(3, 3)
	d.Set(0, 1, 5)
	d.Set(2, 0, 1)
	d.Set(2, 2, 2)
	s := FromDense(d)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	if s.RowNNZ(0) != 1 || s.RowNNZ(1) != 0 || s.RowNNZ(2) != 2 {
		t.Fatal("RowNNZ")
	}
	if s.RangeNNZ(0, 2) != 1 || s.RangeNNZ(0, 3) != 3 {
		t.Fatal("RangeNNZ")
	}
}

func TestSparseCGConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(508))
	s := RandomSparseSPD(60, 0.05, rng)
	b := make([]float64, 60)
	for i := range b {
		b[i] = rng.Float64()
	}
	res := CG(s, b, 1e-10, 600)
	if !res.Converged {
		t.Fatalf("sparse CG did not converge: %+v", res)
	}
	// Check the residual directly.
	ax := make([]float64, 60)
	s.Apply(res.X, ax)
	Axpy(-1, b, ax)
	if Norm2(ax) > 1e-8*Norm2(b)+1e-12 {
		t.Fatalf("residual %g", Norm2(ax))
	}
}

func TestRandomSparseSPDSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(509))
	s := RandomSparseSPD(25, 0.2, rng)
	d := s.ToDense()
	if !d.Equal(d.Transpose()) {
		t.Fatal("not symmetric")
	}
	if err := Cholesky(d.Clone()); err != nil {
		t.Fatalf("not positive definite: %v", err)
	}
}
