package matrix

import (
	"math/rand"
	"testing"
)

// lowerUnit / upper extract well-conditioned triangular factors from a
// diagonally dominant random matrix.
func testFactors(n int, seed int64) (l, u *Dense) {
	rng := rand.New(rand.NewSource(seed))
	a := RandomDiagDominant(n, rng)
	if err := LU(a); err != nil {
		panic(err)
	}
	return ExtractLU(a)
}

func TestTrsmLowerUnitLeft(t *testing.T) {
	l, _ := testFactors(12, 20)
	rng := rand.New(rand.NewSource(21))
	b := Random(12, 7, rng)
	x := b.Clone()
	TrsmLowerUnitLeft(l, x)
	if got := Mul(l, x); !got.EqualApprox(b, 1e-10) {
		t.Fatalf("L*X != B, maxdiff %g", got.MaxDiff(b))
	}
}

func TestTrsmUpperLeft(t *testing.T) {
	_, u := testFactors(12, 22)
	rng := rand.New(rand.NewSource(23))
	b := Random(12, 5, rng)
	x := b.Clone()
	TrsmUpperLeft(u, x)
	if got := Mul(u, x); !got.EqualApprox(b, 1e-9) {
		t.Fatalf("U*X != B, maxdiff %g", got.MaxDiff(b))
	}
}

func TestTrsmUpperRight(t *testing.T) {
	_, u := testFactors(10, 24)
	rng := rand.New(rand.NewSource(25))
	b := Random(6, 10, rng)
	x := b.Clone()
	TrsmUpperRight(u, x)
	if got := Mul(x, u); !got.EqualApprox(b, 1e-9) {
		t.Fatalf("X*U != B, maxdiff %g", got.MaxDiff(b))
	}
}

func TestTrsmIgnoresUnitDiagonalStorage(t *testing.T) {
	// TrsmLowerUnitLeft must not reference the diagonal or upper part.
	l, _ := testFactors(8, 28)
	poisoned := l.Clone()
	for i := 0; i < 8; i++ {
		for j := i; j < 8; j++ {
			poisoned.Set(i, j, 1e300)
		}
	}
	rng := rand.New(rand.NewSource(29))
	b := Random(8, 3, rng)
	x1, x2 := b.Clone(), b.Clone()
	TrsmLowerUnitLeft(l, x1)
	TrsmLowerUnitLeft(poisoned, x2)
	if !x1.Equal(x2) {
		t.Fatal("TrsmLowerUnitLeft referenced diagonal/upper storage")
	}
}

func TestTrsmNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-square factor")
		}
	}()
	TrsmUpperLeft(New(3, 4), New(3, 2))
}

func TestTrsmDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for RHS mismatch")
		}
	}()
	TrsmLowerUnitLeft(New(4, 4), New(3, 2))
}

func TestOpLOpURelation(t *testing.T) {
	// The paper's opL is L10 = A10 * inv(U00) and opU is
	// U01 = inv(L00) * A01. Verify both reconstruct their inputs.
	l00, u00 := testFactors(9, 30)
	rng := rand.New(rand.NewSource(31))
	a10 := Random(5, 9, rng)
	a01 := Random(9, 5, rng)

	l10 := a10.Clone()
	TrsmUpperRight(u00, l10) // opL
	if got := Mul(l10, u00); !got.EqualApprox(a10, 1e-9) {
		t.Fatal("opL: L10*U00 != A10")
	}

	u01 := a01.Clone()
	TrsmLowerUnitLeft(l00, u01) // opU
	if got := Mul(l00, u01); !got.EqualApprox(a01, 1e-10) {
		t.Fatal("opU: L00*U01 != A01")
	}
}
