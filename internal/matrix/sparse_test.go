package matrix

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestNewCSRValidates(t *testing.T) {
	cases := []struct {
		name   string
		rows   int
		cols   int
		rowPtr []int
		colIdx []int
		vals   []float64
	}{
		{"negative dims", -1, 3, []int{0}, nil, nil},
		{"short rowPtr", 2, 2, []int{0, 1}, []int{0}, []float64{1}},
		{"rowPtr not starting at 0", 1, 2, []int{1, 1}, nil, nil},
		{"decreasing rowPtr", 2, 2, []int{0, 2, 1}, []int{0, 1}, []float64{1, 2}},
		{"colIdx/vals mismatch", 1, 2, []int{0, 1}, []int{0, 1}, []float64{1}},
		{"rowPtr end mismatch", 1, 2, []int{0, 2}, []int{0}, []float64{1}},
		{"column out of range", 1, 2, []int{0, 1}, []int{2}, []float64{1}},
		{"negative column", 1, 2, []int{0, 1}, []int{-1}, []float64{1}},
		{"repeated column", 1, 3, []int{0, 2}, []int{2, 2}, []float64{1, 1}},
		{"unsorted columns", 2, 3, []int{0, 1, 3}, []int{0, 2, 1}, []float64{1, 2, 3}},
	}
	for _, c := range cases {
		if _, err := NewCSR(c.rows, c.cols, c.rowPtr, c.colIdx, c.vals); err == nil {
			t.Errorf("%s: NewCSR accepted invalid input", c.name)
		}
	}
	s, err := NewCSR(2, 3, []int{0, 1, 3}, []int{2, 0, 1}, []float64{5, 1, 2})
	if err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	if s.NNZ() != 3 || s.RowNNZ(0) != 1 || s.RowNNZ(1) != 2 {
		t.Fatalf("valid CSR miscounts: nnz=%d", s.NNZ())
	}
}

func TestRowNNZBoundsPanics(t *testing.T) {
	s := RandomSparse(4, 0.5, rand.New(rand.NewSource(1)))
	for _, bad := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RowNNZ(%d) did not panic", bad)
				}
			}()
			s.RowNNZ(bad)
		}()
	}
}

func TestRangeNNZBoundsPanics(t *testing.T) {
	s := RandomSparse(4, 0.5, rand.New(rand.NewSource(1)))
	for _, bad := range [][2]int{{-1, 2}, {0, 5}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RangeNNZ(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			s.RangeNNZ(bad[0], bad[1])
		}()
	}
}

// TestRandomSparseApplyRangeProperty checks, across the density range
// including the empty and dense extremes, that RandomSparse builds the
// structure the cost model assumes (exactly round(density·(n-1))
// off-diagonals plus a dominant diagonal per row) and that a row-split
// apply reproduces the full apply bit for bit — the invariant RunSpMV's
// functional check rests on.
func TestRandomSparseApplyRangeProperty(t *testing.T) {
	const n = 37
	for _, density := range []float64{0, 0.05, 0.3, 1} {
		rng := rand.New(rand.NewSource(600))
		s := RandomSparse(n, density, rng)
		perRow := int(density*float64(n-1) + 0.5)
		if s.NNZ() != n*(perRow+1) {
			t.Fatalf("density %g: nnz = %d, want %d", density, s.NNZ(), n*(perRow+1))
		}
		d := s.ToDense()
		for i := 0; i < n; i++ {
			var off float64
			for j, v := range d.Row(i) {
				if j != i {
					off += math.Abs(v)
				}
			}
			if d.At(i, i) <= off {
				t.Fatalf("density %g: row %d not diagonally dominant", density, i)
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		full := make([]float64, n)
		s.Apply(x, full)
		for _, split := range []int{0, 1, n / 2, n - 1, n} {
			got := make([]float64, n)
			s.ApplyRange(x, got, 0, split)
			s.ApplyRange(x, got, split, n)
			for i := range full {
				if got[i] != full[i] {
					t.Fatalf("density %g split %d: row %d differs", density, split, i)
				}
			}
		}
	}
}

// TestSparseRowNNZSizesRandomSparse pins the one row-count formula the
// sweep's model pricing and the SpMV input memo's byte sizing share:
// RandomSparse stores exactly n·(SparseRowNNZ(n, d)+1) entries, from
// the 1×1 operator to a fully dense off-diagonal.
func TestSparseRowNNZSizesRandomSparse(t *testing.T) {
	cases := []struct {
		n       int
		density float64
		perRow  int
	}{
		{1, 0, 0},
		{1, 0.5, 0},
		{1, 1, 0},
		{2, 1, 1},
		{2, 0.4, 0},
		{2, 0.5, 1}, // round half up
		{37, 0.05, 2},
		{101, 0.01, 1},
		{512, 0.1, 51},
		{64, 1, 63},
	}
	for _, c := range cases {
		if got := SparseRowNNZ(c.n, c.density); got != c.perRow {
			t.Errorf("SparseRowNNZ(%d, %g) = %d, want %d", c.n, c.density, got, c.perRow)
		}
		s := RandomSparse(c.n, c.density, rand.New(rand.NewSource(7)))
		if want := c.n * (SparseRowNNZ(c.n, c.density) + 1); s.NNZ() != want {
			t.Errorf("RandomSparse(%d, %g).NNZ() = %d, want %d", c.n, c.density, s.NNZ(), want)
		}
	}
}

// TestRandomSparseRejectsBadDensity pins the density guard, NaN
// included: NaN fails every comparison, so a `< 0 || > 1` check would
// let it through to a nonsensical row count.
func TestRandomSparseRejectsBadDensity(t *testing.T) {
	for _, d := range []float64{-0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "density") || !strings.Contains(msg, "out of [0,1]") {
					t.Errorf("density %g: panic %q, want the density range message", d, msg)
				}
			}()
			RandomSparse(8, d, rand.New(rand.NewSource(1)))
		}()
	}
}

// FuzzNewCSR decodes dimensions and the three CSR arrays from the fuzz
// input (one signed byte per entry) and requires NewCSR either to
// reject them or to return a matrix whose every accessor agrees with
// its dense expansion. Values decode to odd integers: never zero, so
// each stored entry shows in ToDense, and every sum is exact whatever
// the summation order.
func FuzzNewCSR(f *testing.F) {
	f.Add(int8(2), int8(3), []byte{0, 1, 3}, []byte{2, 0, 1}, []byte{5, 1, 2})
	f.Add(int8(0), int8(0), []byte{0}, []byte{}, []byte{})
	f.Add(int8(3), int8(1), []byte{0, 0, 1, 1}, []byte{0}, []byte{0xff})
	f.Add(int8(-1), int8(2), []byte{0}, []byte{}, []byte{})
	f.Add(int8(1), int8(2), []byte{0, 2}, []byte{1, 0}, []byte{3, 7})
	f.Fuzz(func(t *testing.T, rows, cols int8, ptr, idx, val []byte) {
		rowPtr := make([]int, len(ptr))
		for i, b := range ptr {
			rowPtr[i] = int(int8(b))
		}
		colIdx := make([]int, len(idx))
		for i, b := range idx {
			colIdx[i] = int(int8(b))
		}
		vals := make([]float64, len(val))
		for i, b := range val {
			vals[i] = float64(int8(b) | 1)
		}
		s, err := NewCSR(int(rows), int(cols), rowPtr, colIdx, vals)
		if err != nil {
			return
		}
		m, n := s.Dims()
		d := s.ToDense()
		x := make([]float64, n)
		for j := range x {
			x[j] = float64(j + 1)
		}
		want := make([]float64, m)
		MatVec(d, x, want)
		got := make([]float64, m)
		s.Apply(x, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Apply = %v, dense MatVec = %v", got, want)
		}
		for split := 0; split <= m; split++ {
			part := make([]float64, m)
			s.ApplyRange(x, part, 0, split)
			s.ApplyRange(x, part, split, m)
			if !reflect.DeepEqual(part, want) {
				t.Fatalf("ApplyRange split at %d = %v, want %v", split, part, want)
			}
		}
		total := 0
		for i := 0; i < m; i++ {
			nz := 0
			for _, v := range d.Row(i) {
				if v != 0 {
					nz++
				}
			}
			if s.RowNNZ(i) != nz {
				t.Fatalf("RowNNZ(%d) = %d, dense row holds %d non-zeros", i, s.RowNNZ(i), nz)
			}
			total += nz
			if s.RangeNNZ(0, i+1) != total {
				t.Fatalf("RangeNNZ(0,%d) = %d, want %d", i+1, s.RangeNNZ(0, i+1), total)
			}
		}
		if s.NNZ() != total {
			t.Fatalf("NNZ = %d, dense expansion holds %d", s.NNZ(), total)
		}
	})
}

func TestRandomSparseDeterministic(t *testing.T) {
	a := RandomSparse(50, 0.1, rand.New(rand.NewSource(7)))
	b := RandomSparse(50, 0.1, rand.New(rand.NewSource(7)))
	if !a.ToDense().Equal(b.ToDense()) {
		t.Fatal("RandomSparse differs across identical seeds")
	}
	c := RandomSparse(50, 0.1, rand.New(rand.NewSource(8)))
	if a.ToDense().Equal(c.ToDense()) {
		t.Fatal("RandomSparse identical across different seeds")
	}
}

func TestRandomSparseSPDDeterministic(t *testing.T) {
	a := RandomSparseSPD(40, 0.15, rand.New(rand.NewSource(9)))
	b := RandomSparseSPD(40, 0.15, rand.New(rand.NewSource(9)))
	if !a.ToDense().Equal(b.ToDense()) {
		t.Fatal("RandomSparseSPD differs across identical seeds")
	}
}

// TestCGBreakdownStops pins the division-by-zero guard: on an
// indefinite operator the curvature p·Ap hits zero and CG must stop
// unconverged with finite iterates instead of polluting x with NaNs.
func TestCGBreakdownStops(t *testing.T) {
	d := New(2, 2)
	d.Set(0, 0, 1)
	d.Set(1, 1, -1)
	res := CG(DenseOp{A: d}, []float64{1, 1}, 1e-12, 10)
	if res.Converged {
		t.Fatalf("CG claimed convergence on an indefinite system: %+v", res)
	}
	if res.Iterations != 0 {
		t.Fatalf("breakdown at the first step should leave 0 iterations, got %d", res.Iterations)
	}
	for i, v := range res.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x[%d] = %v not finite", i, v)
		}
	}
}
