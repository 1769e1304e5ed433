package machine

import (
	"fmt"
	"math"
	"testing"

	"codesign/internal/cpu"
	"codesign/internal/fault"
	"codesign/internal/fpga"
	"codesign/internal/mpi"
	"codesign/internal/sim"
)

func TestXD1Preset(t *testing.T) {
	cfg := XD1()
	if cfg.Nodes != 6 || cfg.Fabric.LinkBandwidth != 2e9 || cfg.Fabric.LinksPerNode != 2 {
		t.Fatalf("XD1 preset wrong: %+v", cfg)
	}
	if cfg.Device.Name != "XC2VP50" {
		t.Fatalf("XD1 device = %s", cfg.Device.Name)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 6 {
		t.Fatalf("built %d nodes", len(s.Nodes))
	}
	// 16 MB SRAM per node.
	if got := s.Nodes[0].SRAM.TotalBytes(); got != 16<<20 {
		t.Fatalf("SRAM = %d bytes", got)
	}
}

func TestAllPresetsBuild(t *testing.T) {
	for _, cfg := range []Config{XD1(), XT3DRC(), SRC6(), RASC()} {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := s.InstallDesign(fpga.NewMatMul(4)); err != nil {
			t.Fatalf("%s: install: %v", cfg.Name, err)
		}
	}
}

func TestValidation(t *testing.T) {
	bad := XD1()
	bad.Nodes = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad = XD1()
	bad.Fabric.Nodes = 3
	if _, err := New(bad); err == nil {
		t.Fatal("fabric/node mismatch accepted")
	}
	bad = XD1()
	bad.Processor = nil
	if _, err := New(bad); err == nil {
		t.Fatal("missing processor accepted")
	}
	bad = XD1()
	bad.RawFPGADRAMBandwidth = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero DRAM bandwidth accepted")
	}
}

func TestEffectiveBd(t *testing.T) {
	// Paper: the matmul design consumes one word per 130 MHz cycle:
	// Bd = 1.04 GB/s, below the 2.8 GB/s raw path.
	if got := EffectiveBd(2.8e9, 130e6); math.Abs(got-1.04e9) > 1e3 {
		t.Fatalf("EffectiveBd = %g, want 1.04e9", got)
	}
	// A fast design is capped by the raw path.
	if got := EffectiveBd(2.8e9, 1e9); got != 2.8e9 {
		t.Fatalf("EffectiveBd = %g, want raw cap", got)
	}
}

func TestInstallDesignSetsEffectiveBd(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(8)); err != nil {
		t.Fatal(err)
	}
	a := s.Nodes[0].Accel
	want := EffectiveBd(2.8e9, a.Placed.FreqHz)
	if a.DRAM.BandwidthBytes != want {
		t.Fatalf("accel Bd = %g, want %g", a.DRAM.BandwidthBytes, want)
	}
	// ~1.04 GB/s per the paper.
	if math.Abs(a.DRAM.BandwidthBytes-1.04e9)/1.04e9 > 0.01 {
		t.Fatalf("accel Bd = %g, want ~1.04e9", a.DRAM.BandwidthBytes)
	}
}

func TestInstallDesignRejectsOversize(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(9)); err == nil {
		t.Fatal("9-PE design must not install on XD1")
	}
}

func TestComputeCPUChargesTime(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn(0, func(p *sim.Proc, r *mpi.Rank, n *Node) {
		n.ComputeCPU(p, cpu.DGEMM, 3.9e9) // exactly one second
	})
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1) > 1e-9 {
		t.Fatalf("run ended at %v, want 1", end)
	}
	if got := s.Nodes[0].CPUBusy.BusySeconds(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("CPU busy %v", got)
	}
}

func TestAcceleratorLaunchOverlapsCPU(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(8)); err != nil {
		t.Fatal(err)
	}
	var cpuDone, bothDone float64
	s.Spawn(0, func(p *sim.Proc, r *mpi.Rank, n *Node) {
		a := n.Accel
		// FPGA job: 2 virtual seconds of array time.
		done := a.Launch("fpga-job", func(fp *sim.Proc) {
			a.Compute(fp, 2*a.Placed.FreqHz)
		})
		// CPU does 1 second of its own work concurrently.
		n.ComputeCPU(p, cpu.DGEMM, 3.9e9)
		cpuDone = p.Now()
		a.AwaitDone(p, done)
		bothDone = p.Now()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(cpuDone-1) > 1e-9 {
		t.Fatalf("cpu done at %v, want 1 (overlap)", cpuDone)
	}
	if math.Abs(bothDone-2) > 1e-9 {
		t.Fatalf("join at %v, want 2", bothDone)
	}
	if got := s.Nodes[0].Accel.Coordinations(); got != 2 {
		t.Fatalf("coordinations = %d, want 2 (start + done)", got)
	}
}

func TestAcceleratorStreamChargesBd(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(8)); err != nil {
		t.Fatal(err)
	}
	a := s.Nodes[0].Accel
	bytes := int(a.DRAM.BandwidthBytes) // exactly one second of streaming
	s.Spawn(0, func(p *sim.Proc, r *mpi.Rank, n *Node) {
		a.Run(p, "stream-job", func(fp *sim.Proc) {
			a.Stream(fp, bytes)
		})
	})
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1) > 1e-9 {
		t.Fatalf("stream took %v, want 1", end)
	}
}

func TestSpawnAllRanksTalk(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, 6)
	s.SpawnAll(func(p *sim.Proc, r *mpi.Rank, n *Node) {
		sum[r.ID()] = r.Allreduce(1, float64(r.ID()), "sum")
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range sum {
		if v != 15 {
			t.Fatalf("rank %d allreduce = %v", i, v)
		}
	}
}

func TestConfigTime(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewFW(8)); err != nil {
		t.Fatal(err)
	}
	if got := s.Nodes[0].Accel.ConfigTime(); got != 0.05 {
		t.Fatalf("ConfigTime = %v", got)
	}
}

func TestPresetSRAMBandwidth(t *testing.T) {
	for _, cfg := range []Config{XD1(), XT3DRC(), SRC6(), RASC()} {
		if cfg.SRAMBandwidth <= 0 {
			t.Fatalf("%s: no SRAM bandwidth", cfg.Name)
		}
		// SRAM must be faster than the DRAM path on every preset.
		if cfg.SRAMBandwidth <= cfg.RawFPGADRAMBandwidth {
			t.Fatalf("%s: SRAM (%g) not faster than DRAM path (%g)",
				cfg.Name, cfg.SRAMBandwidth, cfg.RawFPGADRAMBandwidth)
		}
	}
}

// lineRecorder keeps the interleaved event and span stream.
type lineRecorder struct{ lines []string }

func (r *lineRecorder) Event(t float64, proc, action string) {
	r.lines = append(r.lines, fmt.Sprintf("event %v %s %s", t, proc, action))
}

func (r *lineRecorder) Span(s sim.SpanEvent) {
	r.lines = append(r.lines, fmt.Sprintf("span %+v", s))
}

// TestJobAndCPUTaskMatchLaunchedBodies runs the same faulted program
// twice: FPGA jobs and opMS-style updates as engine tasks (Job,
// CPUTask), and as the Launch and Go bodies they replace. Jobs queue on
// the array and updates on the owner's processor, and the fault
// windows dilate fills, array compute and processor charges mid-run;
// every event, span, resource integral and coordination count must
// match.
func TestJobAndCPUTaskMatchLaunchedBodies(t *testing.T) {
	spec, err := fault.Parse([]byte(`{"seed": 1, "events": [
		{"kind": "throttle-bd", "node": 0, "start": 0.1, "duration": 1, "factor": 0.25},
		{"kind": "cpu-slow", "node": 0, "start": 0.05, "duration": 0.4, "factor": 0.5},
		{"kind": "fpga-stall", "node": 0, "start": 0.2, "duration": 0.1},
		{"kind": "fpga-stall", "node": 1, "start": 0.1, "duration": 0.3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	run := func(asTask bool) (lines []string, end float64, counts string) {
		s, err := New(XD1())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InstallDesign(fpga.NewMatMul(8)); err != nil {
			t.Fatal(err)
		}
		inj, err := fault.New(spec, s.Cfg.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InstallFaults(inj); err != nil {
			t.Fatal(err)
		}
		rec := &lineRecorder{}
		s.Eng.Observe(rec)
		owner := s.Nodes[0]
		job := func(a *Accelerator, name string, fill, cycles float64) *sim.Signal {
			if asTask {
				return a.Job(name, "opmm", fill, cycles)
			}
			return a.Launch(name, func(fp *sim.Proc) {
				fp.SetPhase("opmm")
				if fill != NoFill {
					fp.WaitSpanOn(sim.CatDMA, sim.DeviceDRAM, a.Array.Name()+".fill", 0, a.DRAM.Dilated(fp.Now(), fill))
				}
				a.Compute(fp, cycles)
			})
		}
		update := func(name string, charges []sim.Charge, then func()) {
			if asTask {
				owner.CPUTask(name, "opms", charges, then)
				return
			}
			s.Eng.Go(name, func(mp *sim.Proc) {
				mp.SetPhase("opms")
				owner.ChargeCPUSeq(mp, charges)
				then()
			})
		}
		updates := 0
		for i := 0; i < 3; i++ {
			s.Spawn(i, func(p *sim.Proc, r *mpi.Rank, n *Node) {
				a := n.Accel
				cycles := 0.05 * a.Placed.FreqHz
				for it := 0; it < 6; it++ {
					fill := 0.02 * float64(it%3)
					if it == 4 {
						fill = NoFill
					}
					// Two jobs in flight queue on the array.
					d1 := job(a, sim.Name("job", n.ID, it, 1), fill, cycles)
					d2 := job(a, sim.Name("job", n.ID, it, 2), fill, cycles/2)
					n.ChargeCPUSeq(p, []sim.Charge{
						{Cat: sim.CatNetwork, Dt: 0.01},
						{Cat: sim.CatDMA, Bytes: 4096, Dt: 0.02},
						{Cat: sim.CatCompute, Dt: 0.03},
					})
					a.AwaitDone(p, d1)
					a.AwaitDone(p, d2)
					update(sim.Name("opms", n.ID, it), []sim.Charge{
						{Cat: sim.CatNetwork, Dt: 0.015},
						{Cat: sim.CatCompute, Dt: 0.025},
					}, func() { updates++ })
				}
			})
		}
		end, err = s.Run()
		if err != nil {
			t.Fatal(err)
		}
		counts = fmt.Sprintf("updates=%d", updates)
		for _, n := range s.Nodes[:3] {
			counts += fmt.Sprintf(" node%d: coord=%d jobs=%d cpu=%v/%v/%d fpga=%v/%v/%d", n.ID,
				n.Accel.Coordinations(), n.Accel.Jobs(),
				n.CPUBusy.BusySeconds(), n.CPUBusy.ContentionSeconds(), n.CPUBusy.Waits(),
				n.Accel.Array.BusySeconds(), n.Accel.Array.ContentionSeconds(), n.Accel.Array.Waits())
		}
		return rec.lines, end, counts
	}
	procLines, procEnd, procCounts := run(false)
	taskLines, taskEnd, taskCounts := run(true)
	if procEnd != taskEnd || procCounts != taskCounts {
		t.Fatalf("launched bodies end at %v with %s\ntasks end at %v with %s", procEnd, procCounts, taskEnd, taskCounts)
	}
	if len(procLines) != len(taskLines) {
		t.Errorf("%d stream lines from launched bodies, %d from tasks", len(procLines), len(taskLines))
	}
	for i := range min(len(procLines), len(taskLines)) {
		if procLines[i] != taskLines[i] {
			t.Fatalf("stream line %d:\n  launched: %s\n  task:     %s", i, procLines[i], taskLines[i])
		}
	}
}
