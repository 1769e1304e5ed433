package matrix

import (
	"errors"
	"math/rand"
	"testing"
)

func TestLUReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17, 50} {
		rng := rand.New(rand.NewSource(int64(40 + n)))
		a := RandomDiagDominant(n, rng)
		orig := a.Clone()
		if err := LU(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l, u := ExtractLU(a)
		if got := Mul(l, u); !got.EqualApprox(orig, 1e-9) {
			t.Fatalf("n=%d: L*U != A, maxdiff %g", n, got.MaxDiff(orig))
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := New(3, 3) // all zeros: immediately singular
	if err := LU(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("LU(zero) err = %v, want ErrSingular", err)
	}
}

func TestLUPanelMatchesLU(t *testing.T) {
	// A square panel factorization must coincide with plain LU.
	rng := rand.New(rand.NewSource(41))
	a := RandomDiagDominant(12, rng)
	b := a.Clone()
	if err := LU(a); err != nil {
		t.Fatal(err)
	}
	if err := LUPanel(b); err != nil {
		t.Fatal(err)
	}
	if !a.EqualApprox(b, 1e-14) {
		t.Fatal("LUPanel on square input differs from LU")
	}
}

func TestLUPanelTall(t *testing.T) {
	// Factor a tall panel and check A = L*U where L is r×c unit lower
	// trapezoidal and U is c×c upper triangular.
	rng := rand.New(rand.NewSource(42))
	r, c := 14, 6
	a := Random(r, c, rng)
	// Make leading square block dominant to avoid tiny pivots.
	for i := 0; i < c; i++ {
		a.Set(i, i, 20+a.At(i, i))
	}
	orig := a.Clone()
	if err := LUPanel(a); err != nil {
		t.Fatal(err)
	}
	l := New(r, c)
	u := New(c, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			switch {
			case i == j:
				l.Set(i, j, 1)
				u.Set(i, j, a.At(i, j))
			case i > j:
				l.Set(i, j, a.At(i, j))
			default:
				if i < c {
					u.Set(i, j, a.At(i, j))
				}
			}
		}
	}
	if got := Mul(l, u); !got.EqualApprox(orig, 1e-10) {
		t.Fatalf("panel L*U != A, maxdiff %g", got.MaxDiff(orig))
	}
}

func TestLUPanelWideInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide panel")
		}
	}()
	LUPanel(New(3, 5))
}

func TestBlockLUMatchesUnblocked(t *testing.T) {
	for _, tc := range []struct{ n, b int }{{8, 2}, {12, 3}, {16, 4}, {20, 5}, {24, 24}, {10, 4}} {
		rng := rand.New(rand.NewSource(int64(43 + tc.n)))
		a := RandomDiagDominant(tc.n, rng)
		want := a.Clone()
		if err := LU(want); err != nil {
			t.Fatal(err)
		}
		got := a.Clone()
		if err := BlockLU(got, tc.b); err != nil {
			t.Fatalf("n=%d b=%d: %v", tc.n, tc.b, err)
		}
		if !got.EqualApprox(want, 1e-9) {
			t.Fatalf("n=%d b=%d: blocked != unblocked, maxdiff %g", tc.n, tc.b, got.MaxDiff(want))
		}
	}
}

func TestBlockLUReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := RandomDiagDominant(32, rng)
	orig := a.Clone()
	if err := BlockLU(a, 8); err != nil {
		t.Fatal(err)
	}
	l, u := ExtractLU(a)
	if got := Mul(l, u); !got.EqualApprox(orig, 1e-9) {
		t.Fatalf("BlockLU L*U != A, maxdiff %g", got.MaxDiff(orig))
	}
}

func TestExtractLUShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := RandomDiagDominant(6, rng)
	if err := LU(a); err != nil {
		t.Fatal(err)
	}
	l, u := ExtractLU(a)
	for i := 0; i < 6; i++ {
		if l.At(i, i) != 1 {
			t.Fatal("L diagonal must be unit")
		}
		for j := i + 1; j < 6; j++ {
			if l.At(i, j) != 0 {
				t.Fatal("L must be lower triangular")
			}
		}
		for j := 0; j < i; j++ {
			if u.At(i, j) != 0 {
				t.Fatal("U must be upper triangular")
			}
		}
	}
}
