package fpga

import (
	"math"
	"testing"
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
	// Section 6.1: b=3000 over p-1=5 compute nodes at bf=1280 — bf·w
	// cycles and bf·k + k·w words per stripe, w = b/(p-1) = 600.
	if got := d.StripeCycles(1, 1280, 3000, 5); got != 1280*600 {
		t.Fatalf("StripeCycles = %v, want %v", got, 1280*600)
	}
	if got := d.StripeWords(1, 1280, 3000, 5); got != 1280*8+8*600 {
		t.Fatalf("StripeWords = %v, want %v", got, 1280*8+8*600)
	}
	// n stripes cost n times one.
	if got, one := d.StripeCycles(375, 1280, 3000, 5), d.StripeCycles(1, 1280, 3000, 5); got != 375*one {
		t.Fatalf("375 stripes = %v cycles, want %v", got, 375*one)
	}
	if got, one := d.StripeWords(375, 1280, 3000, 5), d.StripeWords(1, 1280, 3000, 5); got != 375*one {
		t.Fatalf("375 stripes = %v words, want %v", got, 375*one)
	}
	// A width that does not divide is rounded once, not truncated.
	if got := d.StripeCycles(1, 20, 20, 3); got != 400.0/3 {
		t.Fatalf("StripeCycles(1,20,20,3) = %v, want %v", got, 400.0/3)
	}
}

func TestMatMulCyclesMatchThroughput(t *testing.T) {
	// A whole b×b block's b/k stripes at bf = b run at the array's full
	// Of: 2·b·b·w flops in b³/(k(p-1)) cycles.
	d := NewMatMul(8)
	cycles := d.StripeCycles(375, 3000, 3000, 5)
	if flops := 2.0 * 3000 * 3000 * 600; cycles*float64(d.OpsPerCycle()) != flops {
		t.Fatalf("full share: %v cycles × Of %d != %v flops", cycles, d.OpsPerCycle(), flops)
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
	// 8000 words through 8 MACs: one word per MAC per cycle.
	if got := NewMV(8).ChunkCycles(8000); got != 1000 {
		t.Fatalf("ChunkCycles(8000) = %v, want 1000", got)
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

func TestCoreMetadata(t *testing.T) {
	for _, c := range []Core{Adder64, Multiplier64, Comparator64} {
		if c.PipelineStages <= 0 || c.MaxFreqHz <= 0 || c.Slices <= 0 {
			t.Fatalf("core %s has non-positive metadata: %+v", c.Name, c)
		}
	}
	if Multiplier64.Embedded18x18 == 0 {
		t.Fatal("multiplier must consume embedded multipliers")
	}
}
