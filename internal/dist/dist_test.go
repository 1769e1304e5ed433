package dist

import (
	"testing"
	"testing/quick"
)

func cyclic(t *testing.T, nb, p int) Cyclic {
	t.Helper()
	c, err := CheckedCyclic(nb, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func columnBlocks(t *testing.T, nb, p int) ColumnBlocks {
	t.Helper()
	d, err := CheckedColumnBlocks(nb, p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCyclicOwnerSymmetric(t *testing.T) {
	c := cyclic(t, 10, 6)
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			if c.Owner(u, v) != c.Owner(v, u) {
				t.Fatalf("owner not symmetric at (%d,%d)", u, v)
			}
		}
	}
}

func TestCyclicOwnerIsMinModP(t *testing.T) {
	c := cyclic(t, 10, 6)
	if c.Owner(3, 7) != 3 || c.Owner(7, 3) != 3 {
		t.Fatal("owner of (3,7) should be 3")
	}
	if c.Owner(8, 9) != 8%6 {
		t.Fatal("owner of (8,9) should be 2")
	}
}

func TestCyclicPanelOwner(t *testing.T) {
	// Iteration t's panel runs on node t mod p, which must store the
	// diagonal block.
	c := cyclic(t, 10, 6)
	for tt := 0; tt < 10; tt++ {
		if c.Owner(tt, tt) != tt%6 {
			t.Fatalf("diagonal block %d not on the panel node", tt)
		}
	}
}

func TestQuickCyclicOwnerInRange(t *testing.T) {
	f := func(raw uint32) bool {
		nb := int(raw%20) + 1
		p := int(raw/20%6) + 1
		c, err := CheckedCyclic(nb, p)
		if err != nil {
			return false
		}
		for u := 0; u < nb; u++ {
			for v := 0; v < nb; v++ {
				o := c.Owner(u, v)
				if o < 0 || o >= p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCyclicOutOfRangePanics(t *testing.T) {
	c := cyclic(t, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Owner(4, 0)
}

func TestColumnBlocks(t *testing.T) {
	d := columnBlocks(t, 12, 6)
	if d.PerNode() != 2 {
		t.Fatalf("per node = %d", d.PerNode())
	}
	for v := 0; v < 12; v++ {
		want := v / 2
		if d.Owner(v) != want {
			t.Fatalf("owner(%d) = %d, want %d", v, d.Owner(v), want)
		}
	}
}

func TestColumnBlocksPaperExample(t *testing.T) {
	// Figure 4's setting: nb=8, p=4 → 2 columns per node; iteration
	// t=2's pivot column is owned by node 1.
	d := columnBlocks(t, 8, 4)
	if d.Owner(2) != 1 {
		t.Fatalf("paper example: pivot owner = %d, want 1", d.Owner(2))
	}
}

func TestColumnBlocksOutOfRange(t *testing.T) {
	d := columnBlocks(t, 8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Owner(8)
}

func TestCheckedConstructors(t *testing.T) {
	if _, err := CheckedCyclic(0, 4); err == nil {
		t.Error("CheckedCyclic accepted nb=0")
	}
	if _, err := CheckedCyclic(4, 0); err == nil {
		t.Error("CheckedCyclic accepted p=0")
	}
	if _, err := CheckedColumnBlocks(10, 4); err == nil {
		t.Error("CheckedColumnBlocks accepted indivisible geometry")
	}
	if _, err := CheckedColumnBlocks(0, 4); err == nil {
		t.Error("CheckedColumnBlocks accepted nb=0")
	}
	c, err := CheckedCyclic(10, 4)
	if err != nil || c != (Cyclic{NB: 10, P: 4}) {
		t.Errorf("CheckedCyclic(10,4) = %+v, %v", c, err)
	}
	d, err := CheckedColumnBlocks(8, 4)
	if err != nil || d != (ColumnBlocks{NB: 8, P: 4}) {
		t.Errorf("CheckedColumnBlocks(8,4) = %+v, %v", d, err)
	}
}
