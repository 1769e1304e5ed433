package matrix

import (
	"math/rand"
	"testing"
)

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {17, 9, 23}, {64, 64, 64}, {65, 63, 67}, {128, 32, 96}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		c0 := Random(m, n, rng)
		want := c0.Clone()
		GemmNaive(1.5, a, b, -0.5, want)
		got := c0.Clone()
		Gemm(1.5, a, b, -0.5, got)
		if !got.EqualApprox(want, 1e-12) {
			t.Fatalf("Gemm %dx%dx%d mismatch, maxdiff %g", m, k, n, got.MaxDiff(want))
		}
	}
}

func TestGemmBetaZeroIgnoresGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := Random(4, 4, rng)
	b := Random(4, 4, rng)
	c := New(4, 4)
	c.Fill(1e300) // garbage that beta=0 must wipe, not scale
	Gemm(1, a, b, 0, c)
	want := New(4, 4)
	GemmNaive(1, a, b, 0, want)
	if !c.EqualApprox(want, 1e-12) {
		t.Fatal("beta=0 must overwrite C")
	}
}

func TestGemmAlphaZeroOnlyScales(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := Random(3, 3, rng)
	b := Random(3, 3, rng)
	c := Random(3, 3, rng)
	want := c.Clone()
	want.Scale(2)
	Gemm(0, a, b, 2, c)
	if !c.EqualApprox(want, 1e-14) {
		t.Fatal("alpha=0 must reduce to C *= beta")
	}
}

func TestGemmIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := Random(9, 9, rng)
	got := Mul(Identity(9), a)
	if !got.EqualApprox(a, 1e-14) {
		t.Fatal("I*A != A")
	}
	got = Mul(a, Identity(9))
	if !got.EqualApprox(a, 1e-14) {
		t.Fatal("A*I != A")
	}
}

func TestGemmOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	big := Random(20, 20, rng)
	a := big.View(2, 3, 6, 5)
	b := big.View(9, 1, 5, 7)
	c := New(6, 7)
	Gemm(1, a, b, 0, c)
	want := New(6, 7)
	GemmNaive(1, a.Clone(), b.Clone(), 0, want)
	if !c.EqualApprox(want, 1e-12) {
		t.Fatal("Gemm on views mismatch")
	}
}

func TestGemmDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dimension mismatch")
		}
	}()
	Gemm(1, New(2, 3), New(2, 3), 0, New(2, 3))
}

func TestGemmTransposeRelation(t *testing.T) {
	// (A*B)^T == B^T * A^T
	rng := rand.New(rand.NewSource(16))
	a := Random(7, 5, rng)
	b := Random(5, 9, rng)
	lhs := Mul(a, b).Transpose()
	rhs := Mul(b.Transpose(), a.Transpose())
	if !lhs.EqualApprox(rhs, 1e-12) {
		t.Fatal("(AB)^T != B^T A^T")
	}
}

func TestGemmEmpty(t *testing.T) {
	// Zero-sized operands must be handled without panics.
	Gemm(1, New(0, 4), New(4, 3), 0, New(0, 3))
	Gemm(1, New(3, 0), New(0, 2), 0, New(3, 2))
}
