package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// smallLU is a hybrid LU configuration small enough for tests but large
// enough to exercise panels, broadcasts, opMM jobs and scatter.
func smallLU() LUConfig {
	return LUConfig{N: 240, B: 40, PEs: 4, BF: -1, L: -1, Mode: Hybrid}
}

func TestLUTelemetryOverlapSums(t *testing.T) {
	cfg := smallLU()
	cfg.Telemetry = true
	r, err := RunLU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Telemetry
	if s == nil {
		t.Fatal("Telemetry=true produced no summary")
	}
	if s.Makespan != r.Seconds {
		t.Fatalf("makespan %v != run seconds %v", s.Makespan, r.Seconds)
	}
	if s.Spans == 0 || s.Events == 0 {
		t.Fatalf("empty telemetry: %d spans, %d events", s.Spans, s.Events)
	}
	// The exposed components partition the makespan exactly.
	if got := s.Overlap.Sum(); math.Abs(got-s.Makespan) > 1e-6*s.Makespan {
		t.Fatalf("overlap sum %v != makespan %v", got, s.Makespan)
	}
	// In this design every instant of the run is attributable to one of
	// the four model terms: the acceptance criterion of the telemetry
	// layer. Sync waits overlap busy spans on other processes and idle
	// only appears when no process does anything at all.
	four := s.Overlap.Tf + s.Overlap.Tp + s.Overlap.Tmem + s.Overlap.Tcomm
	if math.Abs(four-s.Makespan) > 1e-6*s.Makespan {
		t.Fatalf("Tf+Tp+Tmem+Tcomm = %v, want makespan %v (sync %v, idle %v)",
			four, s.Makespan, s.Overlap.Sync, s.Overlap.Idle)
	}
	if s.Overlap.Tf <= 0 || s.Overlap.Tp <= 0 {
		t.Fatalf("hybrid run should expose both compute terms: Tf=%v Tp=%v",
			s.Overlap.Tf, s.Overlap.Tp)
	}
	eff := s.Overlap.Efficiency()
	if eff < 0 || eff > 1 {
		t.Fatalf("overlap efficiency %v out of [0,1]", eff)
	}
}

func TestTelemetryBytesMatchIndependentCounters(t *testing.T) {
	cfg := smallLU()
	cfg.Telemetry = true
	r, err := RunLU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Network payload is attached only to fabric wire spans, so the
	// span-derived total must equal the fabric's own byte counter.
	if r.Telemetry.NetworkBytes != r.NetworkBytes {
		t.Fatalf("span network bytes %d != fabric bytes %d",
			r.Telemetry.NetworkBytes, r.NetworkBytes)
	}
	if r.Telemetry.DRAMBytes <= 0 {
		t.Fatalf("hybrid run streamed no DRAM bytes")
	}
}

// TestDRAMBytesMatchStripeWords checks that the bytes on the
// simulator's DMA spans are exactly the matmul array's stripe words,
// summed over every stripe the run streams: b/k stripes per opMM job
// on each of lu's and chol's p-1 compute nodes (an opSYRK job streams
// half of one), and n/k stripes on each of mm's p nodes.
func TestDRAMBytesMatchStripeWords(t *testing.T) {
	const n, b = 120, 20
	p := machine.XD1().Nodes
	var jobs, full, syrk int // lu's opMM jobs; chol's opMM and opSYRK jobs
	for rem := 1; rem < n/b; rem++ {
		jobs += rem * rem
		full += rem * (rem - 1) / 2
		syrk += rem
	}
	jobBytes := func(bf, k int) float64 {
		return fpga.MatMulDesign{K: k}.StripeWords(b/k, bf, b, p-1) * machine.WordBytes
	}
	lu, err := RunLU(LUConfig{N: n, B: b, PEs: 4, BF: -1, L: -1, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	chol, err := RunCholesky(CholConfig{N: n, B: b, PEs: 4, BF: -1, L: -1, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := RunMM(MMConfig{N: 2400, BF: -1, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	mmStripe := fpga.MatMulDesign{K: mm.K}.StripeWords(1, mm.BF, 2400/p, 1) * machine.WordBytes
	for _, c := range []struct {
		app       string
		got       int64
		want, pin float64
	}{
		{"lu", lu.Telemetry.DRAMBytes, float64(jobs*(p-1)) * jobBytes(lu.BF, lu.K), 1056000},
		{"chol", chol.Telemetry.DRAMBytes, (float64(full) + 0.5*float64(syrk)) * float64(p-1) * jobBytes(chol.BF, chol.K), 528000},
		{"mm", mm.Telemetry.DRAMBytes, float64(p*2400/mm.K) * mmStripe, 162201600},
	} {
		if float64(c.got) != c.want || c.want != c.pin {
			t.Errorf("%s: simulated DRAM bytes %d, stripe words give %v, pinned %v", c.app, c.got, c.want, c.pin)
		}
	}
}

// TestTelemetryAllApps runs every registered app's small spec with
// Telemetry on and pins what every run's shared epilogue fills in:
// GFLOPS from the flops and the makespan, a span summary whose makespan
// and network bytes are the run's own, one busy entry per node, and an
// overlap decomposition that partitions the makespan. The registered
// spmv run is dense, so the model keeps every row on the processor; a
// sparse repeated apply is added, and its FPGA share must stream DRAM
// bytes and keep an array busy.
func TestTelemetryAllApps(t *testing.T) {
	spmv, _ := LookupApp("spmv")
	spmv.Name = "spmv-sparse"
	sparse := spmv.Small()
	sparse.Density, sparse.RHS = 0.05, 4
	for _, app := range append(Apps(), spmv) {
		s := app.Small()
		if app.Name == spmv.Name {
			s = sparse
		}
		s.Telemetry = true
		r, err := app.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		tel := r.Telemetry
		if tel == nil || tel.Spans == 0 {
			t.Fatalf("%s: no span summary: %+v", app.Name, tel)
		}
		if want := r.Flops / r.Seconds / 1e9; r.GFLOPS != want {
			t.Errorf("%s: GFLOPS %v, want flops/seconds/1e9 = %v", app.Name, r.GFLOPS, want)
		}
		if tel.Makespan != r.Seconds {
			t.Errorf("%s: summary makespan %v != run seconds %v", app.Name, tel.Makespan, r.Seconds)
		}
		if tel.NetworkBytes != r.NetworkBytes {
			t.Errorf("%s: span network bytes %d != fabric bytes %d", app.Name, tel.NetworkBytes, r.NetworkBytes)
		}
		if nodes := s.Machine.Nodes; len(r.CPUBusy) != nodes || len(r.FPGABusy) != nodes {
			t.Errorf("%s: %d CPU and %d FPGA busy entries, want one per node (%d)",
				app.Name, len(r.CPUBusy), len(r.FPGABusy), nodes)
		}
		// The six exposed components re-sum to the makespan up to float
		// rounding (mm lands one ulp off).
		if got := tel.Overlap.Sum(); math.Abs(got-tel.Makespan) > 1e-12*tel.Makespan {
			t.Errorf("%s: overlap sums to %v, want the makespan %v", app.Name, got, tel.Makespan)
		}
		if app.Name == spmv.Name {
			if tel.DRAMBytes <= 0 || !slices.ContainsFunc(r.FPGABusy, func(b float64) bool { return b > 0 }) {
				t.Errorf("%s: FPGA share idle: %d DRAM bytes, FPGA busy %v", app.Name, tel.DRAMBytes, r.FPGABusy)
			}
		}
	}
}

func TestPerfettoExportDeterministic(t *testing.T) {
	export := func() []byte {
		rec := trace.NewRecorder()
		cfg := smallLU()
		cfg.Observer = rec
		if _, err := RunLU(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty perfetto export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
}

func TestObserverOffByDefault(t *testing.T) {
	// Without Telemetry or an Observer the engine must not pay for span
	// construction and the result must carry no summary.
	r, err := RunLU(smallLU())
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry != nil {
		t.Fatal("telemetry attached without opting in")
	}
}

func TestRecorderSpansCarryPhases(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := smallLU()
	cfg.Observer = rec
	if _, err := RunLU(cfg); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	bytesOnWire := false
	for _, s := range rec.Spans() {
		phases[s.Phase] = true
		if s.Category == sim.CatNetwork && s.Bytes > 0 {
			bytesOnWire = true
		}
	}
	for _, want := range []string{"panel", "broadcast", "opmm", "opms", "scatter"} {
		if !phases[want] {
			t.Errorf("no span carried phase %q", want)
		}
	}
	if !bytesOnWire {
		t.Error("no network span carried payload bytes")
	}
}
