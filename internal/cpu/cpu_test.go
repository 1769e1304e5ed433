package cpu

import (
	"math"
	"testing"
)

func TestOpteronRates(t *testing.T) {
	p := Opteron22()
	if p.Rate(DGEMM) != 3.9e9 {
		t.Fatalf("dgemm rate = %g", p.Rate(DGEMM))
	}
	if p.Rate(FWKernel) != 190e6 {
		t.Fatalf("fw rate = %g", p.Rate(FWKernel))
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	// Paper Table 1 at b = 3000: dgetrf 4.9 s, dtrsm 7.1 s, dtrsm 7.1 s.
	rows := Table1(Opteron22(), 3000)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	wants := []struct {
		op, routine string
		lat         float64
	}{{"opLU", "dgetrf", 4.9}, {"opL", "dtrsm", 7.1}, {"opU", "dtrsm", 7.1}}
	for i, w := range wants {
		r := rows[i]
		if r.Operation != w.op || r.Routine != w.routine {
			t.Fatalf("row %d = %+v", i, r)
		}
		if math.Abs(r.LatencyS-w.lat)/w.lat > 1e-9 {
			t.Fatalf("row %d latency = %v, want %v", i, r.LatencyS, w.lat)
		}
	}
}

func TestTable1ScalesCubically(t *testing.T) {
	p := Opteron22()
	r1 := Table1(p, 1000)
	r2 := Table1(p, 2000)
	for i := range r1 {
		ratio := r2[i].LatencyS / r1[i].LatencyS
		if math.Abs(ratio-8) > 1e-9 {
			t.Fatalf("row %d latency ratio = %v, want 8", i, ratio)
		}
	}
}

func TestTimeLinearInFlops(t *testing.T) {
	p := Opteron22()
	if got := p.Time(DGEMM, 3.9e9); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Time = %v, want 1", got)
	}
	if got := p.Time(DGEMM, 7.8e9); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Time = %v, want 2", got)
	}
}

func TestUnknownRoutinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Opteron22().Rate(Routine("fft"))
}

func TestNegativeFlopsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Opteron22().Time(DGEMM, -1)
}

func TestFlopFormulas(t *testing.T) {
	if DgetrfFlops(3) != 18 {
		t.Fatalf("DgetrfFlops(3) = %v", DgetrfFlops(3))
	}
	if DtrsmFlops(3) != 27 {
		t.Fatalf("DtrsmFlops(3) = %v", DtrsmFlops(3))
	}
	if FWBlockFlops(3) != 54 {
		t.Fatalf("FWBlockFlops = %v", FWBlockFlops(3))
	}
	if SubtractFlops(3) != 9 {
		t.Fatalf("SubtractFlops = %v", SubtractFlops(3))
	}
}

func TestPaperPartitionRatioFW(t *testing.T) {
	// Sanity check of Section 6.1: FPGA at k=8, 120 MHz does a block op
	// in 2b^3/(k*Ff); the CPU in 2b^3/190e6. Ratio ~ 5.05, the paper's
	// l1:l2 = 1:5.
	p := Opteron22()
	b := 256.0
	tf := 2 * b * b * b / (8 * 120e6)
	tp := p.Time(FWKernel, FWBlockFlops(256))
	ratio := tp / tf
	if ratio < 4.5 || ratio > 5.6 {
		t.Fatalf("Tp/Tf = %v, want ~5", ratio)
	}
}
