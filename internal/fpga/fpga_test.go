package fpga

import (
	"math"
	"math/rand"
	"testing"

	"codesign/internal/matrix"
)

func TestMatMulMaxPEsOnXC2VP50(t *testing.T) {
	// Section 6.1: "at most 8 PEs can be configured" on the XD1 FPGA.
	got := MaxPEs(func(k int) Design { return NewMatMul(k) }, XC2VP50())
	if got != 8 {
		t.Fatalf("matmul MaxPEs(XC2VP50) = %d, want 8", got)
	}
}

func TestFWMaxPEsOnXC2VP50(t *testing.T) {
	// Section 6.1: "at most k = 8 PEs can be configured" for the FW design.
	got := MaxPEs(func(k int) Design { return NewFW(k) }, XC2VP50())
	if got != 8 {
		t.Fatalf("fw MaxPEs(XC2VP50) = %d, want 8", got)
	}
}

func TestMatMulTimingClosure(t *testing.T) {
	// Paper: the 8-PE matrix multiplier runs at 130 MHz on XD1.
	p, err := Place(NewMatMul(8), XC2VP50())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.FreqHz-130e6)/130e6 > 0.01 {
		t.Fatalf("matmul placed at %.2f MHz, want ~130", p.FreqHz/1e6)
	}
}

func TestFWTimingClosure(t *testing.T) {
	// Paper: the 8-PE FW array achieves 120 MHz on XD1.
	p, err := Place(NewFW(8), XC2VP50())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.FreqHz-120e6)/120e6 > 0.01 {
		t.Fatalf("fw placed at %.2f MHz, want ~120", p.FreqHz/1e6)
	}
}

func TestPlaceRejectsOversizedDesign(t *testing.T) {
	if _, err := Place(NewMatMul(9), XC2VP50()); err == nil {
		t.Fatal("9-PE matmul must not fit the XC2VP50")
	}
	if _, err := Place(NewFW(9), XC2VP50()); err == nil {
		t.Fatal("9-PE fw must not fit the XC2VP50")
	}
}

func TestLargerDeviceFitsMorePEs(t *testing.T) {
	lx := MaxPEs(func(k int) Design { return NewMatMul(k) }, XC4VLX200())
	vp := MaxPEs(func(k int) Design { return NewMatMul(k) }, XC2VP50())
	if lx <= vp {
		t.Fatalf("LX200 max PEs %d not larger than VP50's %d", lx, vp)
	}
	// On the LX200 the multiplier blocks, not slices, are the binding
	// constraint (96 DSP / 9 per core = 10 PEs).
	if lx != 10 {
		t.Fatalf("matmul MaxPEs(XC4VLX200) = %d, want 10 (DSP bound)", lx)
	}
}

func TestOpsPerCycle(t *testing.T) {
	// Of = 16 for both designs at k = 8 (Section 6.1).
	if got := NewMatMul(8).OpsPerCycle(); got != 16 {
		t.Fatalf("matmul Of = %d", got)
	}
	if got := NewFW(8).OpsPerCycle(); got != 16 {
		t.Fatalf("fw Of = %d", got)
	}
}

func TestMatMulCycleModel(t *testing.T) {
	d := NewMatMul(8)
	// One k×k submatrix multiply: k² cycles + pipeline fill.
	fill := d.Cycles(8, 8, 8) - 64
	if fill <= 0 || fill > 40 {
		t.Fatalf("pipeline fill = %v cycles", fill)
	}
	// A b×k by k×w multiply tiles into (b/k)(w/k) submatrix products.
	got := d.Cycles(64, 8, 32) - fill
	want := float64(8 * 4 * 64)
	if got != want {
		t.Fatalf("Cycles(64,8,32) = %v + fill, want %v", got, want)
	}
	if d.Cycles(0, 8, 8) != 0 {
		t.Fatal("zero-size multiply must cost nothing")
	}
}

func TestMatMulCyclesMatchThroughput(t *testing.T) {
	// For large operands the cycle model must approach
	// flops / OpsPerCycle (the Of·Ff computing-power model).
	d := NewMatMul(8)
	m, kk, n := 512, 512, 512
	flops := 2 * float64(m) * float64(kk) * float64(n)
	cycles := d.Cycles(m, kk, n)
	ideal := flops / float64(d.OpsPerCycle())
	if math.Abs(cycles-ideal)/ideal > 0.01 {
		t.Fatalf("cycles %v vs ideal %v", cycles, ideal)
	}
}

func TestFWCycleModel(t *testing.T) {
	d := NewFW(8)
	b := 256
	want := 2 * math.Pow(float64(b), 3) / 8
	got := d.Cycles(b)
	if math.Abs(got-want) > 100 { // pipeline fill only
		t.Fatalf("Cycles(%d) = %v, want ~%v", b, got, want)
	}
	if d.Cycles(0) != 0 {
		t.Fatal("zero-size block must cost nothing")
	}
}

func TestFWMemoryFootprints(t *testing.T) {
	d := NewFW(8)
	if d.SRAMWords(256) != 2*256*256 {
		t.Fatalf("SRAMWords = %d", d.SRAMWords(256))
	}
}

func TestMatMulSRAMWords(t *testing.T) {
	d := NewMatMul(8)
	if d.SRAMWords(1280, 600) != 1280*600 {
		t.Fatalf("SRAMWords = %d", d.SRAMWords(1280, 600))
	}
}

func TestFWBitExactOpsMatchSoftware(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	d := NewFW(4)
	b := 8

	diagSW := matrix.RandomGraph(b, 0.5, rng)
	diagHW := diagSW.Clone()
	matrix.FWKernel(diagSW)
	d.Op1BitExact(diagHW)
	if !diagSW.Equal(diagHW) {
		t.Fatal("op1 bit-exact mismatch")
	}

	rowSW := matrix.RandomGraph(b, 0.5, rng)
	rowHW := rowSW.Clone()
	matrix.FWRowUpdate(rowSW, diagSW)
	d.Op21BitExact(rowHW, diagSW)
	if !rowSW.Equal(rowHW) {
		t.Fatal("op21 bit-exact mismatch")
	}

	colSW := matrix.RandomGraph(b, 0.5, rng)
	colHW := colSW.Clone()
	matrix.FWColUpdate(colSW, diagSW)
	d.Op22BitExact(colHW, diagSW)
	if !colSW.Equal(colHW) {
		t.Fatal("op22 bit-exact mismatch")
	}

	aB := matrix.RandomGraph(b, 0.5, rng)
	bB := matrix.RandomGraph(b, 0.5, rng)
	cSW := matrix.RandomGraph(b, 0.5, rng)
	cHW := cSW.Clone()
	matrix.MinPlusGemm(aB, bB, cSW)
	d.Op3BitExact(aB, bB, cHW)
	if !cSW.Equal(cHW) {
		t.Fatal("op3 bit-exact mismatch")
	}
}

func TestPlacedCyclesToSeconds(t *testing.T) {
	p, err := Place(NewMatMul(8), XC2VP50())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CyclesToSeconds(p.FreqHz); math.Abs(got-1) > 1e-12 {
		t.Fatalf("CyclesToSeconds = %v", got)
	}
}

func TestDevicePresets(t *testing.T) {
	for _, d := range []Device{XC2VP50(), XC4VLX160(), XC4VLX200()} {
		if d.Slices <= 0 || d.BlockRAMs <= 0 || d.ConfigSeconds <= 0 {
			t.Fatalf("preset %s incomplete: %+v", d.Name, d)
		}
	}
}

func TestUsageArithmetic(t *testing.T) {
	u := Usage{Slices: 1, BlockRAMs: 2, Multipliers: 3}.Add(Usage{Slices: 10, BlockRAMs: 20, Multipliers: 30})
	if u != (Usage{Slices: 11, BlockRAMs: 22, Multipliers: 33}) {
		t.Fatalf("Add = %+v", u)
	}
	if !u.FitsIn(Device{Slices: 11, BlockRAMs: 22, Multipliers: 33}) {
		t.Fatal("exact fit rejected")
	}
	if u.FitsIn(Device{Slices: 10, BlockRAMs: 22, Multipliers: 33}) {
		t.Fatal("overflow accepted")
	}
}

func TestBadPEsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatMul(0)
}

func TestMVDesign(t *testing.T) {
	d := NewMV(7)
	if d.Name() == "" || d.PEs() != 7 {
		t.Fatal("metadata")
	}
	if d.OpsPerCycle() != 14 {
		t.Fatalf("Of = %d", d.OpsPerCycle())
	}
	// Resource model: fits the XC2VP50 at some k >= 4.
	kmax := MaxPEs(func(k int) Design { return NewMV(k) }, XC2VP50())
	if kmax < 4 || kmax > 12 {
		t.Fatalf("MV MaxPEs = %d, implausible", kmax)
	}
	if _, err := Place(NewMV(kmax), XC2VP50()); err != nil {
		t.Fatal(err)
	}
	if _, err := Place(NewMV(kmax+1), XC2VP50()); err == nil {
		t.Fatal("oversize MV design accepted")
	}
}

func TestMVCycles(t *testing.T) {
	d := NewMV(8)
	// 8000 words through 8 MACs: 1000 cycles + fill.
	got := d.Cycles(8000)
	if got < 1000 || got > 1100 {
		t.Fatalf("Cycles(8000) = %v", got)
	}
	if d.Cycles(0) != 0 {
		t.Fatal("zero words must cost nothing")
	}
}

func TestMVBadPEsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMV(0)
}
