package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genMatrix draws a small matrix with entries in [-1,1).
func genMatrix(r, c int, rng *rand.Rand) *Dense { return Random(r, c, rng) }

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(seed)),
	}
}

func TestPropGemmDistributesOverAdd(t *testing.T) {
	// A*(B+C) == A*B + A*C (within tolerance).
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := genMatrix(m, k, rng)
		b := genMatrix(k, n, rng)
		c := genMatrix(k, n, rng)
		sum := b.Clone()
		sum.Add(c)
		lhs := Mul(a, sum)
		rhs := Mul(a, b)
		rhs.Add(Mul(a, c))
		return lhs.EqualApprox(rhs, 1e-10)
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Fatal(err)
	}
}

func TestPropGemmAssociative(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		m, k, l, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := genMatrix(m, k, rng)
		b := genMatrix(k, l, rng)
		c := genMatrix(l, n, rng)
		lhs := Mul(Mul(a, b), c)
		rhs := Mul(a, Mul(b, c))
		return lhs.EqualApprox(rhs, 1e-9)
	}
	if err := quick.Check(f, quickCfg(101)); err != nil {
		t.Fatal(err)
	}
}

func TestPropLURoundTrip(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 1 + rng.Intn(20)
		a := RandomDiagDominant(n, rng)
		orig := a.Clone()
		if err := LU(a); err != nil {
			return false
		}
		l, u := ExtractLU(a)
		return Mul(l, u).EqualApprox(orig, 1e-8)
	}
	if err := quick.Check(f, quickCfg(102)); err != nil {
		t.Fatal(err)
	}
}

func TestPropBlockLUAgreesWithLU(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 2 + rng.Intn(24)
		b := 1 + rng.Intn(n)
		a := RandomDiagDominant(n, rng)
		u1 := a.Clone()
		u2 := a.Clone()
		if err := LU(u1); err != nil {
			return false
		}
		if err := BlockLU(u2, b); err != nil {
			return false
		}
		return u1.EqualApprox(u2, 1e-8)
	}
	if err := quick.Check(f, quickCfg(103)); err != nil {
		t.Fatal(err)
	}
}

func TestPropTrsmInvertsMul(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 1 + rng.Intn(15)
		m := 1 + rng.Intn(10)
		a := RandomDiagDominant(n, rng)
		if err := LU(a); err != nil {
			return false
		}
		l, u := ExtractLU(a)
		x := genMatrix(n, m, rng)
		// B = L*X, then solve must recover X.
		bm := Mul(l, x)
		TrsmLowerUnitLeft(l, bm)
		if !bm.EqualApprox(x, 1e-8) {
			return false
		}
		// B = U*X, then solve must recover X.
		bm = Mul(u, x)
		TrsmUpperLeft(u, bm)
		return bm.EqualApprox(x, 1e-7)
	}
	if err := quick.Check(f, quickCfg(104)); err != nil {
		t.Fatal(err)
	}
}

func TestPropBlockedFWEqualsUnblocked(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		// pick nb blocks of size b
		b := 1 + rng.Intn(6)
		nb := 1 + rng.Intn(5)
		n := b * nb
		d := RandomGraph(n, 0.1+0.8*rng.Float64(), rng)
		want := d.Clone()
		FloydWarshall(want)
		got := d.Clone()
		BlockedFloydWarshall(got, b)
		return got.EqualApprox(want, 1e-10)
	}
	if err := quick.Check(f, quickCfg(105)); err != nil {
		t.Fatal(err)
	}
}

func TestPropMinPlusMonotone(t *testing.T) {
	// MinPlusGemm never increases any entry of C.
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 1 + rng.Intn(12)
		a := RandomGraph(n, 0.5, rng)
		b := RandomGraph(n, 0.5, rng)
		c := RandomGraph(n, 0.5, rng)
		before := c.Clone()
		MinPlusGemm(a, b, c)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if c.At(i, j) > before.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(106)); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeGemm(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := genMatrix(m, k, rng)
		b := genMatrix(k, n, rng)
		return Mul(a, b).Transpose().EqualApprox(Mul(b.Transpose(), a.Transpose()), 1e-10)
	}
	if err := quick.Check(f, quickCfg(107)); err != nil {
		t.Fatal(err)
	}
}

// TestPropEmptyCSRAppliesZero: a CSR with no nonzeros maps every x to
// the zero vector, whole and by row range, overwriting what y held.
func TestPropEmptyCSRAppliesZero(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		m, n := 1+rng.Intn(20), 1+rng.Intn(20)
		s, err := NewCSR(m, n, make([]int, m+1), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		x := genMatrix(1, n, rng).Row(0)
		y := genMatrix(1, m, rng).Row(0)
		s.Apply(x, y)
		for _, v := range y {
			if v != 0 {
				return false
			}
		}
		y = genMatrix(1, m, rng).Row(0)
		lo := rng.Intn(m + 1)
		s.ApplyRange(x, y, lo, m)
		for _, v := range y[lo:] {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(900)); err != nil {
		t.Fatal(err)
	}
}

// TestPropDenseCSRAgreesWithMatVec: a CSR holding every entry of a
// random dense A sums each row in column order as MatVec does, so the
// two agree exactly, whole and split at a random row; so does FromDense
// of A with some entries zeroed, since a skipped zero product adds
// nothing. Gemm, which may sum in another order, agrees within 1e-12
// of each row's absolute sum.
func TestPropDenseCSRAgreesWithMatVec(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		m, n := 1+rng.Intn(24), 1+rng.Intn(24)
		a := genMatrix(m, n, rng)
		rowPtr := make([]int, m+1)
		var colIdx []int
		var vals []float64
		for i := 0; i < m; i++ {
			for j, v := range a.Row(i) {
				colIdx = append(colIdx, j)
				vals = append(vals, v)
			}
			rowPtr[i+1] = len(vals)
		}
		full, err := NewCSR(m, n, rowPtr, colIdx, vals)
		if err != nil {
			t.Fatal(err)
		}
		x := genMatrix(1, n, rng).Row(0)
		xm := New(n, 1)
		for j, v := range x {
			xm.Set(j, 0, v)
		}
		want := make([]float64, m)
		MatVec(a, x, want)
		got := make([]float64, m)
		full.Apply(x, got)
		split := make([]float64, m)
		mid := rng.Intn(m + 1)
		full.ApplyRange(x, split, 0, mid)
		full.ApplyRange(x, split, mid, m)
		gemm := Mul(a, xm)
		for i := range want {
			if got[i] != want[i] || split[i] != want[i] {
				return false
			}
			var abs float64
			for j, v := range a.Row(i) {
				abs += math.Abs(v * x[j])
			}
			if math.Abs(gemm.At(i, 0)-want[i]) > 1e-12*abs {
				return false
			}
		}

		thin := a.Clone()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					thin.Set(i, j, 0)
				}
			}
		}
		MatVec(thin, x, want)
		FromDense(thin).Apply(x, got)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(901)); err != nil {
		t.Fatal(err)
	}
}
