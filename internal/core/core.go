package core

import (
	"errors"
	"fmt"

	"codesign/internal/machine"
	"codesign/internal/trace"
)

// Mode selects which compute resources a design uses.
type Mode int

// The design variants compared in Figure 9.
const (
	// Hybrid uses both the processor and the FPGA per the design model.
	Hybrid Mode = iota
	// ProcessorOnly is the software baseline (FPGAs idle).
	ProcessorOnly
	// FPGAOnly is the hardware baseline (processors only orchestrate:
	// panel factorizations, communication and DMA remain on the CPU,
	// which cannot be avoided on these systems).
	FPGAOnly
)

// ParseMode maps a mode name (String's output, or the "cpu" and
// "fpga" aliases) to its Mode.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "hybrid":
		return Hybrid, nil
	case "processor-only", "cpu":
		return ProcessorOnly, nil
	case "fpga-only", "fpga":
		return FPGAOnly, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}

// SolveShare resolves the FPGA's share of total work units under a
// design mode: none under ProcessorOnly, all under FPGAOnly, and under
// Hybrid the configured share, or solve's first result when it is
// negative. A share outside [0, total] is an error naming it.
func SolveShare(mode Mode, name string, share, total int, solve func() (int, int)) (int, error) {
	switch mode {
	case ProcessorOnly:
		share = 0
	case FPGAOnly:
		share = total
	default:
		if share < 0 {
			share, _ = solve()
		}
	}
	if share < 0 || share > total {
		return 0, fmt.Errorf("%s=%d out of [0,%d]", name, share, total)
	}
	return share, nil
}

// String names the mode as ParseMode accepts it.
func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case ProcessorOnly:
		return "processor-only"
	case FPGAOnly:
		return "fpga-only"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Result is the outcome of one simulated run.
type Result struct {
	// App names the application: a registered app name (see Apps),
	// "spmm" for a multi-apply spmv run, or "opmm".
	App string
	// Mode is the design variant.
	Mode Mode
	// N and B are the problem and block sizes.
	N, B int
	// Seconds is the simulated wall time of the whole application.
	Seconds float64
	// GFLOPS is useful work over Seconds.
	GFLOPS float64
	// Flops is the useful floating-point work.
	Flops float64
	// NetworkBytes is total fabric traffic.
	NetworkBytes int64
	// Coordinations is processor<->FPGA handshakes across all nodes.
	Coordinations int64
	// CPUBusy and FPGABusy are per-node busy seconds.
	CPUBusy, FPGABusy []float64
	// MaxResidual is the largest deviation of the functional result
	// from the sequential reference (0 when Functional is off).
	MaxResidual float64
	// Checked reports whether a functional comparison was performed.
	Checked bool
	// Telemetry is the run's span summary, folded by a trace.Summarizer
	// as the run emits spans: per-process utilization, bytes moved, and
	// the overlap decomposition against the model's Tp/Tf/Tmem/Tcomm
	// terms. Nil unless the run's config enabled Telemetry.
	Telemetry *trace.Summary
	// Repartitions lists every mid-run re-solve of the partition
	// equations a fault injector triggered, in order. Empty without
	// fault injection.
	Repartitions []Repartition
	// DeadNodes lists the nodes lost to injected kill faults by the end
	// of the run, in node order. Empty without fault injection.
	DeadNodes []int
}

// Utilization returns mean busy fraction of the given per-node series.
func (r *Result) Utilization(busy []float64) float64 {
	if r.Seconds <= 0 || len(busy) == 0 {
		return 0
	}
	var s float64
	for _, b := range busy {
		s += b
	}
	return s / (float64(len(busy)) * r.Seconds)
}

// machineRun is a started run: the machine with the app's design
// installed and its faults armed, the summarizer whose Summary finish
// attaches (nil unless the run asked for Telemetry), and the run's
// Pricing at the installed design.
type machineRun struct {
	sys *machine.System
	sum *trace.Summarizer
	q   Pricing
}

// start is every run's prologue, in order: default to one XD1 chassis,
// resolve the PE count (s.PEs, or the app's rule when 0) and check the
// app's geometry, run the app's own input check valid (nil for none),
// build the machine, attach s.Observer and then, under s.Telemetry, a
// summarizer, install the design, gate and install s.Faults, and price
// the design installed on node 0. Nothing is built before the checks
// pass. The run reads its defaulted machine back from the Pricing.
func (a App) start(s Spec, valid func() error) (machineRun, error) {
	var r machineRun
	if s.Machine.Nodes == 0 {
		s.Machine = machine.XD1()
	}
	k := s.PEs
	if k == 0 {
		k = a.MaxPEs(s.Machine.Device, s.B)
	}
	if k < 1 {
		return r, fmt.Errorf("core: no %s PE array fits %s", a.Name, s.Machine.Device.Name)
	}
	if err := a.Check(s.Machine.Nodes, s.N, s.B, k); err != nil {
		return r, fmt.Errorf("core: %w", err)
	}
	if valid != nil {
		if err := valid(); err != nil {
			return r, err
		}
	}
	sys, err := machine.New(s.Machine)
	if err != nil {
		return r, err
	}
	if s.Observer != nil {
		sys.Eng.Observe(s.Observer)
	}
	if s.Telemetry {
		r.sum = new(trace.Summarizer)
		sys.Eng.Observe(r.sum)
	}
	if err := sys.InstallDesign(a.Design(k)); err != nil {
		return r, err
	}
	if f := s.Faults; f != nil {
		switch {
		case s.Functional:
			return r, errors.New("core: functional checking cannot run under fault injection")
		case a.killErr != "" && f.HasDeaths():
			return r, errors.New("core: " + a.killErr)
		}
		if err := sys.InstallFaults(f); err != nil {
			return r, err
		}
	}
	node := sys.Nodes[0]
	r.sys = sys
	r.q = Pricing{Machine: s.Machine, Proc: node.Proc, N: s.N, B: s.B, K: k,
		Ff: node.Accel.Placed.FreqHz, Bd: node.Accel.DRAM.BandwidthBytes, Mode: s.Mode}
	return r, nil
}

// finish is every run's epilogue: it runs the engine to completion,
// reporting a failure as "core: <what> simulation: ...", and fills res
// with what the machine measured — the makespan, flops and GFLOPS,
// network bytes, coordinations, per-node busy time and, when start
// attached a summarizer, its span summary.
func (r *machineRun) finish(what string, flops float64, res *Result) error {
	end, err := r.sys.Run()
	if err != nil {
		return fmt.Errorf("core: %s simulation: %w", what, err)
	}
	res.Seconds, res.Flops, res.GFLOPS = end, flops, flops/end/1e9
	res.NetworkBytes = r.sys.Fab.Bytes()
	res.CPUBusy = make([]float64, len(r.sys.Nodes))
	res.FPGABusy = make([]float64, len(r.sys.Nodes))
	for i, n := range r.sys.Nodes {
		res.CPUBusy[i] = n.CPUBusy.BusySeconds()
		if n.Accel != nil {
			res.FPGABusy[i] = n.Accel.Array.BusySeconds()
			res.Coordinations += n.Accel.Coordinations()
		}
	}
	if r.sum != nil {
		res.Telemetry = r.sum.Summary(end)
	}
	return nil
}
