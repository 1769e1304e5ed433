package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRReconstructs(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {4, 4}, {8, 5}, {20, 20}, {30, 12}} {
		m, n := dims[0], dims[1]
		rng := rand.New(rand.NewSource(int64(400 + m + n)))
		a := Random(m, n, rng)
		orig := a.Clone()
		tau := QR(a)
		q, r := QRExplicit(a, tau)
		if got := Mul(q, r); !got.EqualApprox(orig, 1e-9) {
			t.Fatalf("%dx%d: QR != A, maxdiff %g", m, n, got.MaxDiff(orig))
		}
	}
}

func TestQROrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	a := Random(15, 9, rng)
	tau := QR(a)
	q, _ := QRExplicit(a, tau)
	qtq := Mul(q.Transpose(), q)
	if !qtq.EqualApprox(Identity(9), 1e-10) {
		t.Fatalf("Q^T Q != I, maxdiff %g", qtq.MaxDiff(Identity(9)))
	}
}

func TestQRUpperTriangularR(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	a := Random(10, 10, rng)
	tau := QR(a)
	_, r := QRExplicit(a, tau)
	for i := 0; i < 10; i++ {
		for j := 0; j < i; j++ {
			if r.At(i, j) != 0 {
				t.Fatalf("R(%d,%d) = %v below diagonal", i, j, r.At(i, j))
			}
		}
	}
}

func TestBlockQRMatchesUnblocked(t *testing.T) {
	for _, tc := range []struct{ m, n, bs int }{{12, 12, 3}, {16, 8, 4}, {20, 20, 20}, {18, 15, 4}} {
		rng := rand.New(rand.NewSource(int64(410 + tc.m)))
		a := Random(tc.m, tc.n, rng)
		u := a.Clone()
		tauU := QR(u)
		bl := a.Clone()
		tauB := BlockQR(bl, tc.bs)
		// The blocked algorithm computes the same reflectors in the
		// same order, so the factored forms agree bit for bit.
		if !u.Equal(bl) {
			t.Fatalf("%+v: blocked factored form differs, maxdiff %g", tc, u.MaxDiff(bl))
		}
		for k := range tauU {
			if tauU[k] != tauB[k] {
				t.Fatalf("%+v: tau[%d] differs", tc, k)
			}
		}
	}
}

func TestApplyQTInvertsApplyQ(t *testing.T) {
	rng := rand.New(rand.NewSource(420))
	a := Random(12, 7, rng)
	tau := QR(a)
	c := Random(12, 4, rng)
	orig := c.Clone()
	ApplyQ(a, tau, c)
	ApplyQT(a, tau, c)
	if !c.EqualApprox(orig, 1e-10) {
		t.Fatalf("Q^T Q C != C, maxdiff %g", c.MaxDiff(orig))
	}
}

func TestQRSolvesLeastSquares(t *testing.T) {
	// Solve an overdetermined consistent system: A x = b with known x.
	rng := rand.New(rand.NewSource(421))
	a := Random(15, 6, rng)
	x := Random(6, 1, rng)
	b := Mul(a, x)
	qr := a.Clone()
	tau := QR(qr)
	// x = R^{-1} (Q^T b)[:n]
	ApplyQT(qr, tau, b)
	top := b.View(0, 0, 6, 1).Clone()
	rMat := New(6, 6)
	for i := 0; i < 6; i++ {
		for j := i; j < 6; j++ {
			rMat.Set(i, j, qr.At(i, j))
		}
	}
	TrsmUpperLeft(rMat, top)
	if !top.EqualApprox(x, 1e-8) {
		t.Fatalf("least-squares solve off by %g", top.MaxDiff(x))
	}
}

func TestQRZeroColumnTau(t *testing.T) {
	// A column that is already zero below the diagonal gives tau = 0.
	a := Identity(4)
	tau := QR(a)
	for k, tv := range tau {
		if tv != 0 {
			t.Fatalf("tau[%d] = %v for identity input", k, tv)
		}
	}
}

func TestQRWideInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	QR(New(3, 5))
}

func TestPropQRRoundTrip(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 1 + rng.Intn(10)
		m := n + rng.Intn(10)
		a := Random(m, n, rng)
		orig := a.Clone()
		tau := QR(a)
		q, r := QRExplicit(a, tau)
		return Mul(q, r).EqualApprox(orig, 1e-8)
	}
	if err := quick.Check(f, quickCfg(430)); err != nil {
		t.Fatal(err)
	}
}

func TestPropBlockQRAgrees(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		n := 2 + rng.Intn(14)
		m := n + rng.Intn(8)
		bs := 1 + rng.Intn(n)
		a := Random(m, n, rng)
		u := a.Clone()
		QR(u)
		bl := a.Clone()
		BlockQR(bl, bs)
		return u.Equal(bl)
	}
	if err := quick.Check(f, quickCfg(431)); err != nil {
		t.Fatal(err)
	}
}

func TestQRFlopFormulas(t *testing.T) {
	if QRFlopsPanel(10, 2) != 80 {
		t.Fatalf("panel flops = %v", QRFlopsPanel(10, 2))
	}
}
